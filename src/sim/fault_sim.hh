/**
 * @file
 * Event-driven incremental fault simulation (single-fault
 * propagation) over a FlatNetlist.
 *
 * The fault campaigns used to resimulate the whole circuit, with
 * freshly heap-allocated line vectors, for every fault x pattern
 * block. FaultSimulator inverts that cost model:
 *
 *  1. the fault-free circuit is evaluated ONCE per pattern block and
 *     its line values cached (two phases for alternating campaigns:
 *     the block and its complement),
 *  2. injecting a fault seeds the replay kernel of sim/wide.hh with
 *     the forced stem lines and branch consumers only; the kernel
 *     sweeps a bitset over topological positions and recomputes a
 *     gate only when one of its fan-ins actually changed (or it
 *     carries an injection), reading every other line from the
 *     cached good values,
 *  3. no fanout cone is built, cached or sorted: an unexcited fault
 *     costs one block compare, and an excited one touches only the
 *     gates its effect reaches.
 *
 * Each line carries a lane block of laneWords() uint64 words (1, 4 or
 * 8 words → 64, 256 or 512 packed patterns per replay); the gate
 * loops run through the runtime-dispatched SIMD kernels of
 * sim/wide.hh, bit-identical across widths and dispatch targets. All
 * block-valued buffers use the input-major layout of sim/wide.hh
 * (line i at words [i*W, i*W+W)).
 *
 * All scratch buffers are preallocated in the constructor; the
 * per-fault hot path performs no heap allocation. Results are
 * bit-identical to the 64-lane full-resimulation oracle
 * oracle::PackedEvaluator in tests/oracle/
 * (tests/test_fault_sim_equiv.cc cross-checks every fault of every
 * covered circuit; tests/test_simd_equiv.cc extends the identity
 * across widths and dispatch targets).
 *
 * One FlatNetlist may be shared read-only by many FaultSimulators
 * (one per worker thread); the simulator itself is not thread-safe.
 */

#ifndef SCAL_SIM_FAULT_SIM_HH
#define SCAL_SIM_FAULT_SIM_HH

#include <cstdint>
#include <vector>

#include "sim/flat.hh"
#include "sim/wide.hh"

namespace scal::sim
{

class FaultSimulator
{
  public:
    /**
     * @p lane_words selects the lanes-per-line width (1, 4 or 8 → 64,
     * 256 or 512 lanes); @p simd the kernel build per sim/simd.hh
     * policy (Auto = SCAL_SIMD override or widest native).
     */
    explicit FaultSimulator(const FlatNetlist &flat, int lane_words = 1,
                            SimdTarget simd = SimdTarget::Auto);

    /** Words per lane block (1, 4 or 8). */
    int laneWords() const { return laneWords_; }
    /** Packed patterns per replay: 64 * laneWords(). */
    int lanes() const { return 64 * laneWords_; }
    /** The resolved kernel build actually running. */
    SimdTarget simdTarget() const { return kernels_->target; }

    /**
     * Evaluate and cache the fault-free circuit for one packed input
     * block (phase 0 only). @p inputs holds numInputs()*laneWords()
     * words, input-major; Dff gates read @p dff_state
     * (numFlipFlops()*laneWords() words, ordered as net.flipFlops()).
     */
    void setBaseline(const std::vector<std::uint64_t> &inputs,
                     const std::vector<std::uint64_t> *dff_state = nullptr);

    /**
     * Cache both phases of an alternating block: phase 0 is @p
     * inputs, phase 1 its bitwise complement. Combinational nets
     * only.
     */
    void setAlternatingBlock(const std::vector<std::uint64_t> &inputs);

    /** Cached fault-free output blocks of @p phase
     *  (numOutputs()*laneWords() words). */
    const std::vector<std::uint64_t> &goodOutputs(int phase = 0) const
    {
        return goodOut_[phase];
    }
    /** Cached fault-free line blocks of @p phase
     *  (numGates()*laneWords() words). */
    const WordVec &goodLines(int phase = 0) const
    {
        return goodLines_[phase];
    }

    /**
     * Output blocks under @p fault against the cached @p phase
     * baseline. The returned buffer is owned by the simulator and
     * valid until the next faultOutputs() call on the same phase.
     */
    const std::vector<std::uint64_t> &
    faultOutputs(const netlist::Fault &fault, int phase = 0)
    {
        simulate(phase, &fault, 1);
        return outBuf_[phase];
    }

    /** Multiple simultaneous faults (the Definition 2.3 model). */
    const std::vector<std::uint64_t> &
    faultOutputs(const netlist::Fault *faults, std::size_t num_faults,
                 int phase = 0)
    {
        simulate(phase, faults, num_faults);
        return outBuf_[phase];
    }

    /**
     * Replay-only flip injection: force each line of @p lines to the
     * complement of its cached @p phase good value and replay the
     * gates the flips reach. No output assembly — read results with
     * lineValue(). One flip pass carries BOTH stuck-at polarities of a
     * line: lane-wise, a stuck-at-v fault behaves exactly like the
     * flip wherever the good value is ~v and has no effect elsewhere,
     * so err(sa-v) = excitation_v & flip error.
     */
    void replayFlips(const netlist::GateId *lines, std::size_t num_lines,
                     int phase);

    /**
     * The value block of line @p g after the immediately preceding
     * replayFlips()/faultOutputs() call: the replayed faulty value
     * where it differs from the @p phase baseline, the cached good
     * value elsewhere. Valid until the next injection call.
     */
    const std::uint64_t *
    lineValue(netlist::GateId g, int phase) const
    {
        const std::uint64_t *base = stamp_[g] == epoch_
                                        ? faulty_.data()
                                        : goodLines_[phase].data();
        return base +
               static_cast<std::size_t>(g) *
                   static_cast<std::size_t>(laneWords_);
    }

    /**
     * Simulate @p fault (or the simultaneous @p faults) against both
     * cached phases and fold the outputs into per-lane verdict masks;
     * word w covers lanes [64w, 64w+64) of the block.
     * @pre setAlternatingBlock() was called for the current block.
     */
    WideMasks classifyAlternatingWide(const netlist::Fault &fault)
    {
        return classifyAlternatingWide(&fault, 1);
    }
    WideMasks classifyAlternatingWide(const netlist::Fault *faults,
                                      std::size_t num_faults);

    const FlatNetlist &flat() const { return flat_; }

  private:
    void evalGood(int phase, const std::uint64_t *inputs,
                  const std::uint64_t *dff_state);
    void simulate(int phase, const netlist::Fault *faults,
                  std::size_t num_faults);
    void bumpEpoch();

    const FlatNetlist &flat_;
    const detail::WideKernels *kernels_;
    int laneWords_;

    /** Cached fault-free values, one slot per phase. */
    WordVec goodLines_[2];
    std::vector<std::uint64_t> goodOut_[2];
    std::vector<std::uint64_t> outBuf_[2];

    /** Copy-on-write faulty values: valid iff stamp_[g] == epoch_. */
    WordVec faulty_;
    std::vector<std::uint32_t> stamp_;
    /** Stem-forced gates this epoch (skip recompute). */
    std::vector<std::uint32_t> forced_;
    std::uint32_t epoch_ = 0;

    /** Replay seeds and the kernel's event bitset (all zero
     *  between calls). */
    std::vector<netlist::GateId> seeds_;
    std::vector<std::uint64_t> events_;

    /** Preallocated hot-path scratch. */
    std::vector<const std::uint64_t *> ptrScratch_;
    WordVec inbarScratch_;

    struct TapInjection
    {
        int outputIdx;
        netlist::GateId driver;
        const std::uint64_t *value; ///< broadcast block (kOnes/kZero)
    };
    std::vector<detail::WideBranchInj> branchInj_;
    std::vector<TapInjection> tapInj_;
};

} // namespace scal::sim

#endif // SCAL_SIM_FAULT_SIM_HH
