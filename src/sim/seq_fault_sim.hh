/**
 * @file
 * The fault-free side of packed sequential fault simulation (Chapter
 * 4/5 machines), shared by every sequential replay:
 *
 *  - SeqGoodTrace evaluates the fault-free machine period by period
 *    over a FlatNetlist, 64 x laneWords() independent input sequences
 *    per lane block, and records every line, output and flip-flop
 *    lane block. The trace is immutable after construction of the
 *    stream and is shared read-only by all workers of a campaign.
 *
 *  - SeqFaultSite decodes a netlist::Fault into the site category a
 *    replay acts on.
 *
 * Campaigns replay faults against the trace in lane batches
 * (sim/seq_batch_sim.hh). The one-fault replay that the batches are
 * checked against is a test oracle (tests/oracle/seq_fault_simulator).
 *
 * Each line carries laneWords() uint64 words (1, 4 or 8 → 64, 256 or
 * 512 packed sequences); the per-period gate loop runs through the
 * runtime-dispatched SIMD kernels of sim/wide.hh. Every block-valued
 * buffer uses the layout of sim/wide.hh: line i at words
 * [i*W, i*W+W), lane l at bit (l % 64) of word (l / 64) — so word w
 * of a wide trace evolves exactly as an independent 64-lane trace fed
 * with word w of every input (tests/test_simd_equiv.cc asserts this).
 *
 * Period, phase and latch semantics are exactly those of the scalar
 * SeqSimulator (sim/sequential.hh), and the site rules are its fault
 * semantics (tests/test_seq_fault_sim_equiv.cc cross-checks every
 * fault, window and latch mode): stem faults force the driver's line,
 * branch faults override one consumer pin, a Dff D-pin branch fault
 * acts only at latch time, and output-tap faults override output
 * assembly — all gated by the [start, end) period window.
 */

#ifndef SCAL_SIM_SEQ_FAULT_SIM_HH
#define SCAL_SIM_SEQ_FAULT_SIM_HH

#include <cstdint>
#include <vector>

#include "sim/flat.hh"
#include "sim/wide.hh"

namespace scal::sim
{

class SeqGoodTrace
{
  public:
    /**
     * @param flat the compiled netlist (must outlive the trace)
     * @param phi_input input index of the period clock φ, or -1 if
     *        the caller drives it; when managed, the input block is
     *        overwritten with the current phase (all-zeros in phase 0,
     *        all-ones in phase 1), matching SeqSimulator.
     * @param lane_words words per lane block (1, 4 or 8)
     * @param simd kernel build per sim/simd.hh policy
     */
    explicit SeqGoodTrace(const FlatNetlist &flat, int phi_input = -1,
                          int lane_words = 1,
                          SimdTarget simd = SimdTarget::Auto);

    /** Words per lane block (1, 4 or 8). */
    int laneWords() const { return laneWords_; }
    /** Packed sequences per block: 64 * laneWords(). */
    int lanes() const { return 64 * laneWords_; }
    /** The resolved kernel build actually running. */
    SimdTarget simdTarget() const { return kernels_->target; }

    /** Drop all periods, return flip-flops to their init words. */
    void reset();

    /** Preallocate storage for @p periods periods. */
    void reservePeriods(long periods);

    /**
     * Append one period: drive @p inputs (one lane block of
     * laneWords() words per primary input, input-major; the φ block,
     * if managed, is overwritten), evaluate, latch eligible
     * flip-flops.
     */
    void stepPeriod(const std::uint64_t *inputs);

    long numPeriods() const { return periods_; }
    /** Phase (value of φ) during period @p t. */
    bool phaseAt(long t) const { return (t & 1) != 0; }

    /** All line blocks of period @p t (numGates()*laneWords() words). */
    const std::uint64_t *lines(long t) const
    {
        return lines_.data() + static_cast<std::size_t>(t) * n_ * laneWords_;
    }
    /** Output blocks of period @p t (numOutputs()*laneWords() words). */
    const std::uint64_t *outputs(long t) const
    {
        return outs_.data() + static_cast<std::size_t>(t) * no_ * laneWords_;
    }
    /**
     * Flip-flop state blocks at the *start* of period @p t, for
     * t in [0, numPeriods()]; state(0) is the power-on state.
     */
    const std::uint64_t *state(long t) const
    {
        return state_.data() +
               static_cast<std::size_t>(t) * nff_ * laneWords_;
    }

    const FlatNetlist &flat() const { return flat_; }
    int phiInput() const { return phiInput_; }

    /** True when flip-flop @p i latches at the end of a @p phase period. */
    bool latchEligible(int i, bool phase) const
    {
        return elig_[phase ? 1 : 0][static_cast<std::size_t>(i)] != 0;
    }

    /** Per-flip-flop latch eligibility of @p phase as a byte table. */
    const std::uint8_t *latchEligibleTable(bool phase) const
    {
        return elig_[phase ? 1 : 0].data();
    }

    /** The kernel table this trace runs on (shared by replayers). */
    const detail::WideKernels &kernels() const { return *kernels_; }

  private:
    const FlatNetlist &flat_;
    const detail::WideKernels *kernels_;
    int phiInput_;
    int laneWords_;
    int n_, no_, nff_;
    long periods_ = 0;
    WordVec lines_;
    WordVec outs_;
    WordVec state_; ///< (periods_+1) x nff_ blocks
    std::vector<std::uint8_t> elig_[2];
};

/**
 * A netlist::Fault decoded against a FlatNetlist into the site
 * category the sequential replay kernels act on. The lane-multiplexed
 * SeqFaultBatchSimulator (sim/seq_batch_sim.hh) and the one-fault test
 * oracle both decode through it, so both interpret every site —
 * including malformed ones (Inert) — identically to the scalar
 * SeqSimulator.
 */
struct SeqFaultSite
{
    enum class Kind : std::uint8_t
    {
        Stem,
        Branch,    ///< combinational consumer pin
        DffBranch, ///< D-pin of a flip-flop: latch-time only
        Tap,       ///< primary-output branch
        Inert,     ///< malformed site: no effect (matches the oracle)
    };
    Kind kind = Kind::Inert;
    netlist::GateId driver = netlist::kNoGate;
    netlist::GateId consumer = netlist::kNoGate;
    int pin = -1;       ///< consumer fanin pin (Branch/DffBranch)
    int ff = -1;        ///< flip-flop index for DffBranch
    int tap = -1;       ///< output index for Tap
    bool value = false; ///< stuck-at polarity
};

/** Decode @p fault against @p flat (oracle-exact site rules). */
SeqFaultSite decodeSeqFaultSite(const FlatNetlist &flat,
                                const netlist::Fault &fault);

} // namespace scal::sim

#endif // SCAL_SIM_SEQ_FAULT_SIM_HH
