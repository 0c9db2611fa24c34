/**
 * @file
 * Lane-multiplexed sequential fault replay: the W×64 SIMD lanes of
 * one time-frame evaluation carry *different faults* instead of
 * different patterns. The trace is built at the full kernel width
 * (kMaxLaneWords words per line) with the campaign's input stream
 * replicated into every lane *group* of groupWords() words, so group
 * f of every trace row is bit-identical to the narrow trace a
 * one-fault replay (SeqFaultSimulator) would build — the layout
 * guarantee of sim/wide.hh (word w of a wide block evolves exactly as
 * word w of a narrow one) is what makes the whole scheme sound. One
 * event-driven replay pass then advances up to groupsPerBatch()
 * faults simultaneously (one, when a group fills the block); per-group
 * convergence/retire masks let individual faults drop out (verdict
 * settled) while the batch keeps running, and SeqFaultSimulator's
 * converged-state + window fast-forward fast paths apply batch-wide.
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
 * Verdict folds are delivered per group through a SymbolSink with
 * exactly the pending/stash discipline of a one-fault replay (the
 * per-fault reference campaign in tests/oracle/ folds SeqFaultSimulator
 * that way), so campaign verdicts, first-alarm periods and latency
 * histograms stay bit-identical to replaying each fault on its own
 * (tests/test_seq_fault_parallel_equiv.cc).
 */

#ifndef SCAL_SIM_SEQ_BATCH_SIM_HH
#define SCAL_SIM_SEQ_BATCH_SIM_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/seq_fault_sim.hh"

namespace scal::sim
{

/** Lane-batch assignment of decoded fault sites. */
struct SeqBatchPlan
{
    /** batches[b] = indices into the planner's site array. */
    std::vector<std::vector<int>> batches;
};

/**
 * Per-site replay-cost estimate: 1 + the fanout-cone gate count of
 * the site's injection root (1 for inert sites). It feeds only the
 * cost-balanced --shard slices of the class space; in-process chunks
 * are equal counts. Deterministic — a pure function of the netlist
 * and site list.
 */
std::vector<std::uint64_t>
seqSiteCosts(const FlatNetlist &flat,
             const std::vector<SeqFaultSite> &sites);

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
    static constexpr long kForever = SeqFaultSimulator::kForever;

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
     */
    SeqFaultBatchSimulator(const SeqGoodTrace &trace, int group_words);

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
    bool inWindow(long t) const { return t >= wstart_ && t < wend_; }
    bool groupSliceIs(const std::uint64_t *block, int f,
                      std::uint64_t broadcast) const;
    bool anyLiveExcited(long t) const;
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

    std::vector<SeqFaultSite> sites_;
    int nf_ = 0;
    long wstart_ = 0, wend_ = 0;
    std::vector<std::uint8_t> retired_;
    int live_ = 0;
    long t_ = 0;

    /** Faulty machine state and its divergence from the trace. */
    WordVec faultyState_;
    std::vector<std::int32_t> diverged_, divergedNext_;

    /** Copy-on-write faulty line blocks: valid iff stamp == epoch. */
    WordVec faulty_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> forced_;
    std::uint32_t epoch_ = 0;

    /** Per-period merged injection blocks (rebuilt from live sites). */
    WordVec injVals_, injMasks_;
    std::vector<detail::WideBranchInj> binj_;
    WordVec stemVals_, stemMasks_;
    std::vector<detail::WideStemInj> sinj_;
    std::vector<netlist::GateId> stemFresh_;
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
