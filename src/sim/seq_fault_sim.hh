/**
 * @file
 * Packed, event-driven sequential fault simulation (Chapter 4/5
 * machines): 64 x laneWords() independent input sequences per lane
 * block, the fault-free machine evaluated once per period, and each
 * fault resimulated only over the gates its effect can reach.
 *
 * Two pieces:
 *
 *  - SeqGoodTrace evaluates the fault-free machine period by period
 *    over a FlatNetlist and records every line, output and flip-flop
 *    lane block. The trace is immutable after construction of the
 *    stream and is shared read-only by all workers of a campaign.
 *
 *  - SeqFaultSimulator replays one fault against a trace. Per period
 *    it seeds the event-driven replay kernel of sim/wide.hh with (a)
 *    the fault site, when the period is inside the fault's activity
 *    window, and (b) every flip-flop whose faulty state block diverged
 *    from the good machine; only gates with a changed fan-in are
 *    recomputed, all other lines are read from the trace, and no cone
 *    is built or sorted. Two early exits keep the common case cheap:
 *    an unexcited site with fully converged state is a single block
 *    compare, and once the activity window is behind and the state
 *    blocks reconverge the remaining periods are skipped outright
 *    (they are bit-identical to the good machine). Campaigns replay
 *    lane batches instead (sim/seq_batch_sim.hh); this one-fault
 *    replay serves seq::runAlternating and the per-fault reference
 *    campaign in tests/oracle/.
 *
 * Each line carries laneWords() uint64 words (1, 4 or 8 → 64, 256 or
 * 512 packed sequences); the per-period gate loops run through the
 * runtime-dispatched SIMD kernels of sim/wide.hh. Every block-valued
 * buffer uses the layout of sim/wide.hh: line i at words
 * [i*W, i*W+W), lane l at bit (l % 64) of word (l / 64) — so word w
 * of a wide trace evolves exactly as an independent 64-lane trace fed
 * with word w of every input (tests/test_simd_equiv.cc asserts this).
 *
 * Fault semantics are exactly SeqSimulator's, which stays in the tree
 * as the scalar reference oracle (tests/test_seq_fault_sim_equiv.cc
 * cross-checks every fault, window and latch mode): stem faults force
 * the driver's line, branch faults override one consumer pin, a Dff
 * D-pin branch fault acts only at latch time, and output-tap faults
 * override output assembly — all gated by the [start, end) period
 * window.
 *
 * A SeqFaultSimulator is single-threaded scratch; one SeqGoodTrace
 * may be shared by many of them.
 */

#ifndef SCAL_SIM_SEQ_FAULT_SIM_HH
#define SCAL_SIM_SEQ_FAULT_SIM_HH

#include <cstdint>
#include <limits>
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
 * category the sequential replay kernels act on. Shared by the
 * per-fault SeqFaultSimulator and the lane-multiplexed
 * SeqFaultBatchSimulator (sim/seq_batch_sim.hh) so both interpret
 * every site — including malformed ones (Inert) — identically to the
 * scalar oracle.
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

class SeqFaultSimulator
{
  public:
    static constexpr long kForever = std::numeric_limits<long>::max();

    explicit SeqFaultSimulator(const SeqGoodTrace &trace);

    /**
     * Replay @p fault over the whole trace, active during periods
     * [window_start, window_end). @p sink is invoked as
     * `bool sink(long period, std::uint64_t diffMask, const
     * std::uint64_t *outputs)` for every period whose faulty outputs
     * differ from the trace (diffMask ORs the per-output XOR words of
     * every lane word; @p outputs is numOutputs()*laneWords() words);
     * returning false retires the fault immediately. Periods without a
     * sink call are bit-identical to the good machine.
     */
    template <typename Sink>
    void
    runFault(const netlist::Fault &fault, Sink &&sink,
             long window_start = 0, long window_end = kForever)
    {
        beginFault(fault, window_start, window_end);
        const long total = trace_.numPeriods();
        long t = 0;
        while (t < total) {
            if (diverged_.empty() && !inWindow(t)) {
                if (t >= wend_)
                    return; // window closed, state reconverged
                // Quiescent until the window opens: fast-forward.
                periodsSkipped_ += std::min(wstart_, total) - t;
                t = wstart_;
                continue;
            }
            const std::uint64_t diff = stepFaultPeriod(t);
            ++periodsSimulated_;
            if (diff && !sink(t, diff, outBuf_.data()))
                return;
            ++t;
        }
    }

    /** @name Work counters (reset per runFault) */
    /** @{ */
    long periodsSimulated() const { return periodsSimulated_; }
    long periodsSkipped() const { return periodsSkipped_; }
    /** @} */

  private:
    void beginFault(const netlist::Fault &fault, long ws, long we);
    bool inWindow(long t) const { return t >= wstart_ && t < wend_; }
    /** Simulate period @p t; returns the OR of output diff words. */
    std::uint64_t stepFaultPeriod(long t);
    void bumpEpoch();
    /** True iff all W words of @p block equal the broadcast fault value. */
    bool blockIsFaultValue(const std::uint64_t *block) const;

    const SeqGoodTrace &trace_;
    const FlatNetlist &flat_;
    const detail::WideKernels *kernels_;
    int laneWords_;

    /** Decomposed fault being replayed. */
    SeqFaultSite site_;
    /** Broadcast stuck-at block (kOnesGroup/kZeroGroup). */
    const std::uint64_t *faultGroup_ = nullptr;
    long wstart_ = 0, wend_ = 0;

    /** Faulty machine state and its divergence from the trace. */
    WordVec faultyState_;
    std::vector<std::int32_t> diverged_, divergedNext_;

    /** Copy-on-write faulty line blocks: valid iff stamp == epoch. */
    WordVec faulty_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> forced_;
    std::uint32_t epoch_ = 0;

    /** Replay seeds and the kernel's event bitset (all zero
     *  between calls). */
    std::vector<netlist::GateId> seeds_;
    std::vector<std::uint64_t> events_;

    std::vector<const std::uint64_t *> ptrScratch_;
    std::vector<std::uint64_t> outBuf_;
    detail::WideBranchInj branchInj_;

    long periodsSimulated_ = 0, periodsSkipped_ = 0;
};

} // namespace scal::sim

#endif // SCAL_SIM_SEQ_FAULT_SIM_HH
