/**
 * @file
 * Fault-parallel classification over a FlatNetlist: fanout-free-region
 * (FFR) routing, disjoint-cone fault batching, a
 * critical-path-tracing (CPT) fast path, and dropping of what a block
 * cannot change.
 *
 * The per-fault campaign kernel pays one two-phase cone replay plus a
 * full-output fold for every collapsed class x pattern block. This
 * layer cuts that cost on four axes while keeping verdict masks
 * bit-identical to FaultSimulator::classifyAlternatingWide for every
 * class it emits:
 *
 *  - **Routing.** Every collapsed class is assigned to the FFR whose
 *    tree contains its fault sites (equivalence chains never cross an
 *    FFR root, so the assignment is well defined) and given one of
 *    five resolutions: `Flip` (the class carries an FFR root's stem
 *    fault: derived from the root's flip response, below), `Tap` (an
 *    output-branch fault: the faulty output block IS the stuck value,
 *    no simulation needed), `Cpt` (all members interior to a
 *    supported FFR: derived analytically, below), `Pruned`
 *    (structurally forced Untestable by fault/collapse dominance —
 *    skipped outright), or `Sim` (must be simulated — CPT cannot
 *    handle its region).
 *  - **Flip passes.** The root's *flip response* at each output — the
 *    lanes where complementing the root line changes that output — is
 *    computed by ONE replay per phase injecting the complement of the
 *    root's good value. Lane-wise, a stuck-at-v fault on the root is
 *    the flip wherever the good value is ~v and a no-op elsewhere, so
 *    BOTH stuck-at polarities derive analytically from the one pass:
 *    err(sa-v) = excitation_v & flip error. The pass skips output
 *    assembly entirely; the fold reads the replayed lines of the
 *    root's reachable outputs only.
 *  - **Batching.** Flip units (and residual `Sim` classes) with
 *    pairwise-disjoint fanout cones are packed into one replay pass
 *    (exact by superposition: a fault's effect never leaves its cone,
 *    so disjoint cones cannot interact) with each member's fold
 *    restricted to the outputs its own cone drives. A pass seeds the
 *    event-driven replay kernel with its members' injection sites
 *    only; no cone is merged or sorted.
 *  - **CPT.** Inside an FFR the path from any line to the FFR root is
 *    unique, so fault propagation to the root is exact single-path
 *    sensitization: err_root = excitation & criticality, where
 *    criticality is a backtrace product of gate sensitivities on the
 *    path. Beyond the root, err at each output is err_root & the flip
 *    response the flip pass already produced. One backtrace per FFR
 *    therefore classifies every interior fault with zero replays.
 *  - **Dropping.** A Flip or Cpt class's masks on a block are folds
 *    of its root error e_p in phase p (the excitation; for Cpt, times
 *    the criticality) against the root's flip responses, and a flip
 *    response lies inside the root's observability bound U_p.
 *    - *Rule.* A block can make the class Unsafe only where
 *      e_0 & e_1 & U_0 & U_1 is set (an output wrong in both periods
 *      of a lane), and Detected only where (e_0 & U_0) | (e_1 & U_1)
 *      is set. A group is replayed, folded and emitted on a block only
 *      when one of its Flip/Cpt classes has the first set non-empty,
 *      or is not yet Detected and has the second non-empty. The
 *      caller says which classes are Detected.
 *    - *Bound.* U_p(g) is every lane when g drives an output, and
 *      otherwise the OR over g's consumers c of U_p(c) & ~B_p(c).
 *      B_p(c) holds the lanes in which a *narrow* fan-in of c holds
 *      c's controlling value: 0 for AND/NAND, 1 for OR/NOR; no other
 *      kind blocks. A line is narrow when its fan-in cone holds at
 *      most one primary input: the inputs, φ, φ̄ and the constants.
 *    - *Soundness.* A root with two or more inputs in its fan-in cone
 *      is in no narrow line's fan-in cone. Under its flip every
 *      narrow line keeps its good value and still controls its
 *      consumer, so a path that carries the error to an output passes
 *      only gates that no narrow fan-in blocks. A narrow root's bound
 *      is every lane.
 *    - *Why it pays.* This is Chapter 3's argument made lane-wise. An
 *      incorrectly alternating output needs the error at an output in
 *      both periods of (X, X̄). The hardening's Yamamoto mux
 *      φ̄·F ∨ φ·F^d lets each line of F and F^d reach the outputs in
 *      only one period of each pair: φ̄ blocks F where φ = 1, and φ
 *      blocks F^d where φ = 0. So once such a class is Detected, no
 *      block replays it again.
 *
 * Exactness guard: the campaign fold treats the fault-free phase-2
 * output as the complement of phase 1, so on a block where the good
 * outputs are not perfectly alternating (a non-self-dual circuit)
 * even a no-effect fault picks up baseline mask bits. The fast paths
 * are therefore gated per block on `good1 == ~good0`; blocks that
 * fail the check fall back to per-class simulation, preserving
 * bit-identity for arbitrary circuits while hardened SCAL networks —
 * the only ones where the campaign verdict means anything — always
 * take the fast path.
 *
 * A FaultBatchPlan is immutable after construction and shared
 * read-only by every worker; each worker owns a BatchClassifier
 * (scratch + batch structures for its shard).
 */

#ifndef SCAL_SIM_BATCH_SIM_HH
#define SCAL_SIM_BATCH_SIM_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "sim/wide.hh"

namespace scal::sim
{

/** Resolution of one collapsed class (see file comment). */
enum class ClassRoute : std::uint8_t
{
    Pruned,
    Flip,
    Sim,
    Tap,
    Cpt,
};

/**
 * The narrow lines of @p flat, indexed by GateId: 1 where the line's
 * fan-in cone holds at most one primary input (the inputs, the
 * constants, and gates fed by one input's lines only, such as φ̄).
 * One pass in topological order; a flip-flop counts as an input.
 */
std::vector<std::uint8_t> narrowLines(const FlatNetlist &flat);

/**
 * The observability bound U_p of every line of the combinational
 * @p flat for one phase (see the file comment): @p lines are the
 * phase's good values (numGates() rows of @p lane_words words) and
 * @p bound receives numGates() rows. A narrow line's row is every
 * lane. Complementing any line that is not @p narrow changes an
 * output only in lanes of its row. One reverse-topological pass.
 */
void observabilityBound(const FlatNetlist &flat,
                        const std::vector<std::uint8_t> &narrow,
                        const std::uint64_t *lines, int lane_words,
                        std::uint64_t *bound);

struct BatchPlanStats
{
    int groups = 0;
    int flipClasses = 0;
    int simClasses = 0;
    int tapClasses = 0;
    int cptClasses = 0;
    int prunedClasses = 0;
};

class FaultBatchPlan
{
  public:
    /**
     * Build the routing plan for the collapsed universe of @p flat.
     * @p all_faults / @p class_of / @p representatives / @p pruned
     * come from fault::collapseFaults (pruned may be empty when
     * dominance analysis was off); @p enable_cpt gates the Cpt route.
     * Combinational netlists only.
     */
    FaultBatchPlan(const FlatNetlist &flat,
                   const std::vector<netlist::Fault> &all_faults,
                   const std::vector<int> &class_of,
                   const std::vector<netlist::Fault> &representatives,
                   const std::vector<std::uint8_t> &pruned,
                   bool enable_cpt);

    const FlatNetlist &flat() const { return *flat_; }
    int numGroups() const
    {
        return static_cast<int>(groupRoots_.size());
    }
    int numClasses() const { return static_cast<int>(route_.size()); }

    /** Heuristic per-group simulation cost: the weights of the
     *  cost-balanced --shard slices (engine/shard.hh). */
    const std::vector<std::uint64_t> &groupCosts() const
    {
        return groupCost_;
    }

    /** Classes of group g occupy positions
     *  [classOffset(g), classOffset(g+1)) of classList(). */
    const std::vector<int> &classList() const { return classList_; }
    std::size_t classOffset(int g) const
    {
        return static_cast<std::size_t>(classOff_[g]);
    }

    ClassRoute routeOf(int cls) const { return route_[cls]; }
    BatchPlanStats stats() const;

    /** @name Fanout cones, each an unordered gate set */
    /** @{ */
    netlist::GateId groupRoot(int g) const { return groupRoots_[g]; }
    /** The cone of Sim class @p cls's injection gate (empty for the
     *  other routes), and the outputs it drives. */
    std::span<const netlist::GateId> simCone(int cls) const
    {
        return coneOf_[cls] < 0 ? std::span<const netlist::GateId>{}
                                : cones_.cone(static_cast<std::size_t>(
                                      coneOf_[cls]));
    }
    std::span<const std::int32_t> simOutputs(int cls) const
    {
        return range(ownData_, ownOff_, cls);
    }
    /** The root cone of group @p g (empty unless it has a Flip class),
     *  and the outputs the root reaches (empty unless it has a Flip or
     *  Cpt class). */
    std::span<const netlist::GateId> rootCone(int g) const
    {
        return flipNeed_[g] ? cones_.cone(static_cast<std::size_t>(
                                  rootConeOf_[g]))
                            : std::span<const netlist::GateId>{};
    }
    std::span<const std::int32_t> rootOutputs(int g) const
    {
        return range(rootTapData_, rootTapOff_, g);
    }
    /** @} */

  private:
    friend class BatchClassifier;

    static std::span<const std::int32_t>
    range(const std::vector<std::int32_t> &data,
          const std::vector<std::int32_t> &off, int i)
    {
        return {data.data() + off[static_cast<std::size_t>(i)],
                data.data() + off[static_cast<std::size_t>(i) + 1]};
    }

    const FlatNetlist *flat_;
    bool cpt_;

    /** FFR root of every gate. */
    std::vector<netlist::GateId> rootOf_;
    /** narrowLines() of the netlist, for the observability bound. */
    std::vector<std::uint8_t> narrow_;

    /** @name Per class (index = collapsed class id) */
    /** @{ */
    std::vector<ClassRoute> route_;
    /** The member this class is resolved through: the injected fault
     *  for Sim, the root stem fault for Flip, the output-branch fault
     *  for Tap, the interior site for Cpt, the representative for
     *  Pruned (fallback path). All members share one faulty function,
     *  so the choice is invisible in the masks. */
    std::vector<netlist::Fault> simFault_;
    std::vector<int> groupOf_;
    std::vector<std::int32_t> coneOf_; ///< index into cones_, Sim only
    std::vector<std::int32_t> ownOff_; ///< per class + 1
    std::vector<std::int32_t> ownData_; ///< owned output ids
    /** @} */

    /** The fanout cones of the Sim classes' injection gates and of the
     *  Flip/Cpt groups' roots. */
    FanoutCones cones_;

    /** @name Per group (one per FFR root owning >= 1 class) */
    /** @{ */
    std::vector<netlist::GateId> groupRoots_;
    std::vector<std::int32_t> classOff_; ///< per group + 1
    std::vector<int> classList_;
    std::vector<std::uint64_t> groupCost_;
    std::vector<std::uint8_t> groupCpt_;  ///< has >= 1 Cpt class
    std::vector<std::uint8_t> flipNeed_;  ///< has >= 1 Flip class
    /** Index into cones_ of the root cone of a Flip/Cpt group; in a
     *  flip-needing group it is the flip unit the batcher colors. */
    std::vector<std::int32_t> rootConeOf_;
    /** Outputs reachable from the root; doubles as the flip-response
     *  slot index space (slot = rootTapOff_[g] + t). A group with Cpt
     *  classes but no Flip class (both root stems dominance-pruned) is
     *  never folded, which is exact: the flip response is the union of
     *  the two pruned — hence everywhere-null — stem error masks. */
    std::vector<std::int32_t> rootTapOff_; ///< per group + 1
    std::vector<std::int32_t> rootTapData_;
    std::vector<std::int32_t> ffrOff_; ///< per group + 1 (Cpt groups)
    std::vector<netlist::GateId> ffrData_; ///< FFR gates, topo-ascending
    /** @} */
};

/**
 * Per-worker classifier: batches a shard's Sim classes once, then
 * classifies every class of the shard against each cached alternating
 * block of the owning FaultSimulator. Not thread-safe; one per worker.
 */
class BatchClassifier
{
  public:
    /** Called once per class per block with the class's position in
     *  plan.classList() and its verdict masks for the block. */
    using Emit = std::function<void(std::size_t, const WideMasks &)>;

    BatchClassifier(FaultSimulator &sim, const FaultBatchPlan &plan);

    /** Build the batch structures for groups [begin, end). */
    void setRange(int group_begin, int group_end);

    /** Replay passes per block for the current range (flip batches
     *  plus residual Sim batches). */
    std::uint64_t numBatches() const
    {
        return flipBatches_.size() + batches_.size();
    }

    /**
     * Classify the classes of the current range against the block
     * cached by FaultSimulator::setAlternatingBlock, emitting masks
     * bit-identical to classifyAlternatingWide of each class's
     * representative. @p tested holds one flag per position of the
     * range (position - classOffset(group_begin)); set means the
     * class is already Detected. Empty means none is.
     *
     * On a self-dual block, Flip and Cpt classes of a group the block
     * cannot change are dropped (file comment). Pruned classes, and
     * the Cpt classes of a group with no Flip class, emit nothing
     * (their masks are all-zero by construction). The
     * contract: a class that is not emitted has a zero `incorrect`
     * mask on this block, and zero `anyErr` and `nonAlt` masks too
     * unless it was passed as tested. So a caller that passes no
     * tested flags still receives every non-zero mask.
     */
    void classifyBlock(const Emit &emit,
                       std::span<const std::uint8_t> tested = {});

    /** Roots replayed by the flip passes, summed over the blocks
     *  classified so far (each root counted once per block). */
    std::uint64_t rootReplays() const { return rootReplays_; }

  private:
    struct Member
    {
        int cls;
        std::size_t pos; ///< position in plan.classList()
    };
    struct Batch
    {
        std::vector<netlist::Fault> faults;
        std::vector<Member> members;
    };
    /** One flip replay covering several cone-disjoint group roots. */
    struct FlipBatch
    {
        std::vector<netlist::GateId> roots;
        std::vector<int> groups;
    };

    /** Slot aggregates of one group's flip responses; the Flip/Cpt
     *  folds are O(laneWords) functions of these (see computeAgg). */
    struct FlipAgg
    {
        std::uint64_t X[kMaxLaneWords];
        std::uint64_t Y[kMaxLaneWords];
        std::uint64_t P[kMaxLaneWords];
        std::uint64_t Q[kMaxLaneWords];
        std::uint64_t R[kMaxLaneWords];
    };

    void computeSens(netlist::GateId g, const std::uint64_t *lines,
                     std::uint64_t *sens);
    void computeCrit(int group);
    void computeAgg(int group, FlipAgg &agg);
    void foldAgg(const std::uint64_t *a, const std::uint64_t *b,
                 const FlipAgg &agg, WideMasks &m);
    void rootError(int cls, std::uint64_t *err);
    bool groupNeeded(int group, std::span<const std::uint8_t> tested,
                     std::uint64_t *err);

    FaultSimulator &sim_;
    const FaultBatchPlan &plan_;
    int g0_ = 0, g1_ = 0;

    std::vector<FlipBatch> flipBatches_;
    std::vector<Batch> batches_;
    std::vector<std::int32_t> lastBatch_; ///< per gate, batch coloring

    /** Per-phase in-FFR criticality blocks, indexed by gate. */
    WordVec crit_[2];
    /** Per-phase observability bound blocks, indexed by gate. */
    WordVec bound_[2];
    /** @name One flip batch's scratch */
    /** @{ */
    /** Per group: the block can change it. */
    std::vector<std::uint8_t> groupNeed_;
    /** Root errors of its groups' classes: (class * 2 + phase) * W,
     *  classes numbered through the groups in batch order. */
    WordVec rootErr_;
    /** The needed roots. */
    std::vector<netlist::GateId> replayRoots_;
    /** @} */
    std::uint64_t rootReplays_ = 0;
    /** Root flip responses: slot-major, (slot * 2 + phase) * W. */
    WordVec errFlip_;
    /** Sensitivity scratch: (3 * maxArity + 2) * W words. */
    WordVec sensScratch_;
};

} // namespace scal::sim

#endif // SCAL_SIM_BATCH_SIM_HH
