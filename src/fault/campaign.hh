/**
 * @file
 * Exhaustive (or sampled) alternating-logic fault injection: for each
 * single stuck-at fault at each stem/branch site, apply every
 * alternating input pair (X, X̄) and classify the fault per the
 * self-checking definitions of Chapter 2/3.
 *
 * There is one pipeline: the fault universe is collapsed (const-
 * refined equivalence plus dominance pruning), its classes are routed
 * through the fault-parallel plan (FFR flip batching, critical-path
 * tracing, pruning; sim/batch_sim.hh), and the plan's groups are
 * chunked across the parallel engine (src/engine), each chunk
 * classified at 64, 256 or 512 lanes per replay (see `lanes`/`simd`
 * below). jobs == 1 is the same pipeline with the engine's single
 * chunk run on the calling thread. Results are merged
 * deterministically, and the pattern->lane mapping preserves the
 * global pattern order, so the same (netlist, seed, maxPatterns)
 * triple yields a bit-identical CampaignResult at any jobs count, any
 * lane width, and any SIMD dispatch target. The per-fault reference
 * loop the equivalence suites compare against lives in tests/oracle/.
 */

#ifndef SCAL_FAULT_CAMPAIGN_HH
#define SCAL_FAULT_CAMPAIGN_HH

#include <chrono>
#include <cstdint>

#include "engine/cancel.hh"
#include "engine/progress.hh"
#include "fault/fault.hh"
#include "sim/simd.hh"

namespace scal::fault
{

struct CampaignOptions
{
    /**
     * Pattern cap: campaigns are exhaustive when 2^numInputs fits,
     * otherwise this many uniformly random patterns are used
     * (sim::PatternStream: one Rng word per pattern and per 64
     * inputs).
     */
    std::uint64_t maxPatterns = std::uint64_t{1} << 20;
    std::uint64_t seed = 1;
    /** Keep at most this many unsafe example patterns per fault
     *  (each records inputs 0-63 only; see FaultResult). */
    int keepUnsafeExamples = 4;
    /**
     * Verify the precondition that every output is self-dual,
     * exhaustively, on targets of at most 20 inputs: 2^(n-1) patterns
     * through the wide good-value kernel (sim::isAlternatingNetwork),
     * 1,024 blocks of 512 lanes at 20 inputs. It stays an option
     * although its cost no longer calls for turning it off: it is a
     * column of the comb config key (canonicalCampaignConfig), so
     * dropping it changes every cache key and snapshot header and
     * belongs with a versioned format change.
     */
    bool checkAlternating = true;
    /**
     * Worker threads: 0 = hardware_concurrency, 1 = run on the
     * calling thread (no pool). Verdicts are identical either way.
     */
    int jobs = 0;
    /**
     * Period of the engine's stderr progress line; zero (default)
     * disables reporting.
     */
    std::chrono::milliseconds progressInterval{0};
    /**
     * Patterns per packed replay: 64, 256 or 512; 0 (default) picks
     * the widest the resolved SIMD target is designed for. Purely a
     * performance knob — verdicts are bit-identical at any width.
     */
    int lanes = 0;
    /** Kernel build per sim/simd.hh policy (Auto = SCAL_SIMD env
     *  override or widest native). */
    sim::SimdTarget simd = sim::SimdTarget::Auto;
    /**
     * Cooperative cancellation: workers poll the token between fault
     * shards; when it fires the campaign throws
     * engine::CampaignCancelled instead of returning a result.
     */
    const engine::CancelToken *cancel = nullptr;
    /**
     * When set (and progressInterval > 0), periodic snapshots go to
     * this callback instead of the default stderr line.
     */
    engine::ProgressTracker::Callback progressCallback;
};

/**
 * Fault-parallel pipeline statistics. Everything but @p batches is a
 * pure function of (netlist, options); @p batches depends on the
 * sharding and so on the jobs count — report it only alongside other
 * non-deterministic stats.
 */
struct FaultParallelStats
{
    int totalFaults = 0;
    /** Equivalence classes after collapsing. */
    int classes = 0;
    /** Classes structurally forced Untestable and skipped. */
    int prunedClasses = 0;
    /** Original faults covered by pruned classes. */
    int prunedFaults = 0;
    /** Root-stem classes derived from one flip replay per FFR root
     *  (both stuck-at polarities per pass). */
    int flipClasses = 0;
    /** Classes resolved by critical-path tracing. */
    int cptClasses = 0;
    /** Output-branch classes resolved analytically. */
    int tapClasses = 0;
    /** Classes that required cone simulation. */
    int simClasses = 0;
    /** Simulation passes per pattern block, summed over shards
     *  (jobs-dependent — see struct comment). */
    std::uint64_t batches = 0;
};

struct CampaignResult
{
    std::vector<FaultResult> faults;
    std::uint64_t patternsApplied = 0;
    int numUntestable = 0;
    int numDetected = 0;
    int numUnsafe = 0;
    /** Lanes per packed replay the campaign actually ran with. */
    int lanes = 64;
    /** The resolved SIMD kernel build the workers ran. */
    sim::SimdTarget simd = sim::SimdTarget::Portable;
    /**
     * Wall-clock/throughput stats from the engine. Everything else in
     * this struct is deterministic; stats is explicitly not.
     */
    engine::CampaignStats stats;
    /** Fault-parallel pipeline breakdown (fp.batches is
     *  jobs-dependent, see FaultParallelStats). */
    FaultParallelStats fp;

    /**
     * Definition 2.4 verdict: self-checking iff every fault is
     * testable (self-testing) and none is unsafe (fault-secure).
     */
    bool selfChecking() const
    {
        return numUnsafe == 0 && numUntestable == 0;
    }

    /** Fault-secure alone: no unsafe faults. */
    bool faultSecure() const { return numUnsafe == 0; }
};

/**
 * Run the campaign over all stuck-at faults of @p net.
 * @pre net is combinational and every output is self-dual
 *      (an alternating network per Theorem 2.1).
 */
CampaignResult runAlternatingCampaign(const netlist::Netlist &net,
                                      const CampaignOptions &opts = {});

} // namespace scal::fault

#endif // SCAL_FAULT_CAMPAIGN_HH
