/**
 * @file
 * Lane-multiplexed sequential fault replay: the W×64 SIMD lanes of
 * one time-frame evaluation carry *different faults* instead of
 * different patterns. The trace is built at the full kernel width
 * (kMaxLaneWords words per line) with the campaign's input stream
 * replicated into every lane *group* of groupWords() words, so group
 * f of every trace row is bit-identical to a groupWords()-word trace
 * of the same stream — the layout guarantee of sim/wide.hh (word w
 * of a wide block evolves exactly as word w of a narrow one) is what
 * makes the whole scheme sound. One event-driven replay pass then
 * advances up to groupsPerBatch() faults simultaneously (one, when a
 * group fills the block); per-group convergence/retire masks let
 * individual faults drop out (verdict settled) while the batch keeps
 * running, and the converged-state and window fast-forward paths apply
 * batch-wide. This is the library's one sequential fault replay.
 *
 * Injections are *lane-masked* (detail::WideStemInj and the mask
 * field of detail::WideBranchInj): a pinned stem gate is still
 * recomputed during replay and only its own lane group is overridden
 * afterwards, and a branch pin override mixes the pinned group over
 * the live driver block. Another batch member's divergence therefore
 * propagates *through* a pinned line exactly as it would alone, so
 * any faults can share a batch — planSeqBatches only packs sites in
 * topological order of their injection root, so batch-mates' effects
 * overlap and one pass recomputes each shared gate once. (Dff stem
 * drivers keep the whole-block force: replay never recomputes state
 * sources, and their non-own lanes carry the seeded per-group state,
 * which is already exact. So does any stem of a fault whose lane
 * group is the whole block: with no batch-mate, recomputing the
 * pinned gate would be wasted work.)
 *
 * Per period the batch pays only for what the replay touched, and the
 * replay touches only what the period can show. It skips the lines
 * that are dead in the period's phase (SeqDeadLines below): lines
 * that the Yamamoto mux's φ-gated AND/OR switches off from every
 * output and every flip-flop that latches, about half of a hardened
 * machine. A flip-flop's faulty state is kept only while it differs
 * from the trace (every other flip-flop reads the trace), and only
 * flip-flops whose D driver the replay stamped, or that had diverged,
 * are latched and compared. The output diff covers the stamped output
 * gates and the active tap sites, and the output row is assembled
 * only for a fold. The merged injection lists are built when a batch
 * begins and rebuilt when a group retires; a batch with a member that
 * can make a clock line faulty also builds its own dead-line masks
 * then.
 *
 * Verdict folds are delivered per group through a SymbolSink with
 * exactly the pending/stash discipline of a one-fault replay (the
 * per-fault reference campaign in tests/oracle/ folds the one-fault
 * oracle replay that way), so campaign verdicts, first-alarm periods
 * and latency histograms stay bit-identical to replaying each fault on
 * its own (tests/test_seq_fault_parallel_equiv.cc).
 */

#ifndef SCAL_SIM_SEQ_BATCH_SIM_HH
#define SCAL_SIM_SEQ_BATCH_SIM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "sim/seq_fault_sim.hh"

namespace scal::sim
{

/**
 * The lines of a sequential netlist that no period of each phase of φ
 * can show. A clock line is one fed only by φ and constants, so in
 * phase p it holds the value the netlist gives it at φ = p, in every
 * lane and period. A line is dead in phase p when every path from it
 * to a primary output, or to the D pin of a flip-flop that latches
 * after a phase-p period, passes an AND/NAND (OR/NOR) gate with a
 * clock fan-in at 0 (1) in phase p. The Yamamoto mux of a hardened
 * machine, φ̄·F(X) ∨ φ·F̄(X̄), switches one copy of F off this way in
 * each period. A dead line's value reaches no output row and no
 * latched state, so a replay may leave it unevaluated.
 *
 * The masks assume that every clock line holds its netlist value. A
 * fault can break that: a stem on a clock line makes that line and
 * the clock lines it feeds faulty, and a branch from a clock driver
 * makes its consumer pin faulty (and the consumer line, when it is a
 * clock line). Such a line or pin blocks nothing, and the masks of a
 * batch that holds such a fault must be built with it. Under the
 * premise a clock line never changes, so a clock line at its
 * controlling value counts as blocking itself.
 */
struct SeqDeadLines
{
    /** clock[g] = 1 when line g is fed only by φ and constants. */
    std::vector<std::uint8_t> clock;
    /** dead[p][g] = 1 when line g is dead in phase p. */
    std::array<std::vector<std::uint8_t>, 2> dead;

    /** The skip mask of a phase, a byte per GateId. */
    const std::uint8_t *mask(bool phase) const
    {
        return dead[phase ? 1 : 0].data();
    }
    /** True when @p site can make a clock line or pin faulty. */
    bool taints(const SeqFaultSite &site) const;
};

/**
 * The dead-line masks of @p trace's netlist, for the φ input and latch
 * eligibility of the trace (the trace's rows are not read), with the
 * clock lines and pins that @p faults can make faulty blocking
 * nothing. One pass in topological order values the clock lines, one
 * reverse pass per phase marks the live lines.
 */
SeqDeadLines seqDeadLines(const SeqGoodTrace &trace,
                          std::span<const SeqFaultSite> faults = {});

/** Lane-batch assignment of decoded fault sites. */
struct SeqBatchPlan
{
    /** batches[b] = indices into the planner's site array. */
    std::vector<std::vector<int>> batches;
};

/**
 * Pack @p sites into full lane batches of
 * @p batch_words / @p group_words faults each, in topological order
 * of each site's injection root so batch-mates share replay cones.
 * Deterministic: depends only on the netlist and the site order.
 */
SeqBatchPlan planSeqBatches(const FlatNetlist &flat,
                            std::span<const SeqFaultSite> sites,
                            int group_words, int batch_words);

class SeqFaultBatchSimulator
{
  public:
    static constexpr long kForever = std::numeric_limits<long>::max();

    /** Verdict-fold outputs/pairs, resolved once per campaign. */
    struct FoldSpec
    {
        const int *alt = nullptr;
        int nalt = 0;
        const int *pairs = nullptr; ///< flattened code pairs
        int npairs = 0;             ///< pair count (pairs has 2x ints)
        const int *data = nullptr;
        int ndata = 0;
    };

    /**
     * Per-group verdict delivery: called once per live group per
     * folded symbol, groups ascending, with that group's
     * groupWords()-word alarm and wrong slices. Returning false
     * retires the group (its lanes re-sync to the good machine).
     */
    using SymbolSink = std::function<bool(
        int group, long symbol, const std::uint64_t *alarm,
        const std::uint64_t *wrong)>;

    /**
     * @param trace full-width good trace (laneWords() must be a
     *        multiple of @p group_words)
     * @param group_words Wg words per fault lane group
     * @param dead seqDeadLines(trace) with no faults, shared read-only
     *        (must outlive the simulator)
     */
    SeqFaultBatchSimulator(const SeqGoodTrace &trace, int group_words,
                           const SeqDeadLines &dead);

    int groupWords() const { return Wg_; }
    int groupsPerBatch() const { return F_; }

    /**
     * Load a batch of up to groupsPerBatch() decoded sites, active
     * during periods [ws, we). Resets all replay and fold state.
     */
    void beginBatch(const SeqFaultSite *sites, int nf, long ws, long we);

    /**
     * Replay the batch to the end of the trace (or until every group
     * is retired / re-synced), folding verdict symbols, the trailing
     * half-delivered one included, through @p sink.
     */
    void run(const FoldSpec &spec, const SymbolSink &sink);

    bool retired(int f) const { return retired_[f] != 0; }

    /** @name Work counters (reset by beginBatch) */
    /** @{ */
    long periodsSimulated() const { return periodsSimulated_; }
    long periodsSkipped() const { return periodsSkipped_; }
    /** @} */

  private:
    /** The stem pins of one driver gate: W-word value and mask blocks
     *  at stemVals_ / stemMasks_ + slot. */
    struct StemPin
    {
        netlist::GateId gate;
        bool whole; ///< forced whole block, not a lane-masked injection
        std::size_t slot;
    };
    /** A tap (output @p index) or Dff D-pin (flip-flop @p index) pin
     *  of lane group @p group. */
    struct GroupPin
    {
        int index;
        int group;
        bool value;
    };

    bool inWindow(long t) const { return t >= wstart_ && t < wend_; }
    bool groupSliceIs(const std::uint64_t *block, int f,
                      std::uint64_t broadcast) const;
    bool anyLiveExcited(long t) const;
    /** Merge the live sites' pins into the injection lists. */
    void rebuildInjections();
    void setGroup(std::uint64_t *block, const GroupPin &p) const;
    std::uint64_t stepBatchPeriod(long t);
    void fold(long t, const FoldSpec &spec, const SymbolSink &sink);
    bool flushSymbol(long s, const std::uint64_t *p1row,
                     const FoldSpec &spec, const SymbolSink &sink);
    void retireGroup(int f, long state_row);
    void bumpEpoch();

    const SeqGoodTrace &trace_;
    const FlatNetlist &flat_;
    const detail::WideKernels *kernels_;
    int Wb_; ///< trace lane words
    int Wg_; ///< words per fault group
    int F_;  ///< groups per batch

    /** The campaign's masks, and the batch's own pair when a member
     *  can make a clock line or pin faulty; dead_ is the one in use. */
    const SeqDeadLines *sharedDead_;
    SeqDeadLines ownDead_;
    const SeqDeadLines *dead_;

    std::vector<SeqFaultSite> sites_;
    int nf_ = 0;
    long wstart_ = 0, wend_ = 0;
    std::vector<std::uint8_t> retired_;
    int live_ = 0;
    long t_ = 0;

    /** Faulty machine state and its divergence from the trace, in
     *  ascending flip-flop order. Row i of faultyState_ is valid only
     *  while i is in diverged_; every other flip-flop is in the
     *  trace's state. */
    WordVec faultyState_;
    std::vector<std::int32_t> diverged_, divergedNext_;

    /** Copy-on-write faulty line blocks: valid iff stamp == epoch. */
    WordVec faulty_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> forced_;
    std::uint32_t epoch_ = 0;

    /** Merged injections of the live sites, rebuilt when the batch
     *  begins and when a group retires; applied in active periods. */
    WordVec injVals_, injMasks_;
    std::vector<detail::WideBranchInj> binj_;
    WordVec stemVals_, stemMasks_;
    std::vector<StemPin> stemPins_;
    std::vector<detail::WideStemInj> sinj_;
    std::vector<GroupPin> taps_, dffPins_; ///< by index
    std::vector<int> patchedFfs_;

    std::vector<const std::uint64_t *> ptrScratch_;
    std::vector<std::uint64_t> outBuf_;
    std::vector<std::uint64_t> alarmBuf_, wrongBuf_;
    /** Replay seeds and the kernel's event bitset (all zero
     *  between calls). */
    std::vector<netlist::GateId> seeds_;
    std::vector<std::uint64_t> events_;

    /** Batch-wide verdict-fold stash (per-fault pending discipline). */
    long pending_ = -1;
    bool have0_ = false;
    std::vector<std::uint64_t> buf0_;

    long periodsSimulated_ = 0, periodsSkipped_ = 0;
};

} // namespace scal::sim

#endif // SCAL_SIM_SEQ_BATCH_SIM_HH
