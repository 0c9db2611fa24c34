/**
 * @file
 * One-fault sequential replay against a sim::SeqGoodTrace: the
 * reference the lane-batched campaign replay (sim/seq_batch_sim.hh) is
 * checked against. The per-fault reference campaign
 * (oracle/per_fault_campaign.hh) folds it, and it is held equal to the
 * scalar sim::SeqSimulator on every fault, window and latch mode
 * (tests/test_seq_fault_sim_equiv.cc) and across widths and dispatch
 * targets (tests/test_simd_equiv.cc). No program library links it.
 *
 * Per period it seeds the event-driven replay kernel of sim/wide.hh
 * with (a) the fault site, when the period is inside the fault's
 * activity window, and (b) every flip-flop whose faulty state block
 * diverged from the good machine; only gates with a changed fan-in
 * are recomputed, and all other lines are read from the trace. Two
 * early exits keep the common case cheap: an unexcited site with fully
 * converged state is a single block compare, and once the activity
 * window is behind and the state blocks reconverge the remaining
 * periods are skipped outright (they are bit-identical to the good
 * machine).
 *
 * Fault semantics are SeqSimulator's, decoded by
 * sim::decodeSeqFaultSite: stem faults force the driver's line, branch
 * faults override one consumer pin, a Dff D-pin branch fault acts only
 * at latch time, and output-tap faults override output assembly — all
 * gated by the [start, end) period window.
 *
 * A SeqFaultSimulator is single-threaded scratch; one SeqGoodTrace
 * may be shared by many of them.
 */

#ifndef SCAL_TESTS_ORACLE_SEQ_FAULT_SIMULATOR_HH
#define SCAL_TESTS_ORACLE_SEQ_FAULT_SIMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/seq_fault_sim.hh"

namespace scal::oracle
{

class SeqFaultSimulator
{
  public:
    static constexpr long kForever = std::numeric_limits<long>::max();

    explicit SeqFaultSimulator(const sim::SeqGoodTrace &trace);

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
    /** Latch the faulty next state of phase-@p phase period @p t and
     *  rebuild diverged_ against the trace. */
    void latchAndTrack(long t, bool phase, bool active);
    void bumpEpoch();
    /** True iff all W words of @p block equal the broadcast fault value. */
    bool blockIsFaultValue(const std::uint64_t *block) const;

    const sim::SeqGoodTrace &trace_;
    const sim::FlatNetlist &flat_;
    const sim::detail::WideKernels *kernels_;
    int laneWords_;

    /** Decomposed fault being replayed. */
    sim::SeqFaultSite site_;
    /** Broadcast stuck-at block (kOnesGroup/kZeroGroup). */
    const std::uint64_t *faultGroup_ = nullptr;
    long wstart_ = 0, wend_ = 0;

    /** Faulty machine state and its divergence from the trace. */
    sim::WordVec faultyState_;
    std::vector<std::int32_t> diverged_;

    /** Copy-on-write faulty line blocks: valid iff stamp == epoch. */
    sim::WordVec faulty_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> forced_;
    std::uint32_t epoch_ = 0;

    /** Replay seeds and the kernel's event bitset (all zero
     *  between calls). */
    std::vector<netlist::GateId> seeds_;
    std::vector<std::uint64_t> events_;

    std::vector<const std::uint64_t *> ptrScratch_;
    std::vector<std::uint64_t> outBuf_;
    sim::detail::WideBranchInj branchInj_;

    long periodsSimulated_ = 0, periodsSkipped_ = 0;
};

} // namespace scal::oracle

#endif // SCAL_TESTS_ORACLE_SEQ_FAULT_SIMULATOR_HH
