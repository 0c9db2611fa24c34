/**
 * @file
 * Sequential alternating-logic fault campaigns (Chapter 4/5): drive a
 * machine with independent random alternating symbol streams, one per
 * lane, replay every collapsed stuck-at fault against the fault-free
 * trace with the event-driven sequential kernels, and classify each
 * fault by the self-checking definitions — did a wrong data word ever
 * escape without a prior or simultaneous alarm on the checked lines?
 *
 * Every lane width replays through lane batches (sim/seq_batch_sim):
 * each fault owns one lane group of the widest (512-lane) kernel
 * block, so a pass replays 8, 2 or 1 faults at up to 64, 256 or 512
 * lanes.
 *
 * Campaigns route through the parallel engine exactly like the
 * combinational ones: fault collapsing, contiguous sharding,
 * chunk-ordered merge, with jobs == 1 running the engine's single
 * chunk on the calling thread — the same (netlist, spec, options)
 * triple yields a bit-identical SeqCampaignResult at any jobs count
 * (tests/test_seq_fault_sim_equiv.cc asserts this and the scalar
 * SeqSimulator oracle equality; tests/test_seq_fault_parallel_equiv.cc
 * diffs the campaign against the per-fault oracle in tests/oracle/,
 * which replays each fault alone with oracle::SeqFaultSimulator).
 *
 * On top of the verdicts the campaign reports detection latency: for
 * every (fault, lane) the period of the first non-code symptom,
 * folded into a log2 histogram — the paper's "error detected within
 * one symbol" claim made measurable at scale.
 */

#ifndef SCAL_FAULT_SEQ_CAMPAIGN_HH
#define SCAL_FAULT_SEQ_CAMPAIGN_HH

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/cancel.hh"
#include "engine/progress.hh"
#include "fault/fault.hh"
#include "sim/wide.hh"

namespace scal::fault
{

/**
 * What to drive and what to check. Every primary input except the φ
 * input receives an independent random bit per symbol per lane,
 * applied as the alternating pair (X, X̄) over the symbol's two
 * periods; inputs listed in holdInputs (non-alternating controls,
 * e.g. a register's load line) keep their phase-0 value in phase 1.
 */
struct SeqCampaignSpec
{
    /** Input index of the period clock φ, or -1 if there is none. */
    int phiInput = -1;
    /** Inputs held constant across both periods of a symbol. */
    std::vector<int> holdInputs;
    /**
     * Output indices carrying data (compared against the fault-free
     * machine in phase 0). Empty = all outputs.
     */
    std::vector<int> dataOutputs;
    /**
     * Output indices that must alternate across the symbol's two
     * periods (Z and Y lines). Empty = all outputs.
     */
    std::vector<int> altOutputs;
    /**
     * Flattened (p, q) checker pairs: each period must carry a
     * 1-out-of-2 word on every pair.
     */
    std::vector<int> codePairs;
};

struct SeqCampaignOptions
{
    /** Symbols per lane; one symbol = two simulator periods. */
    long symbols = 256;
    /**
     * Independent random streams packed per replay (1..512; widths
     * above 64 run the multi-word SIMD kernels). 0 picks the widest
     * block the resolved SIMD target is designed for. The width also
     * sets how many faults share a replay pass: 512 / the group width.
     */
    int lanes = 64;
    /** Kernel build per sim/simd.hh policy (Auto = SCAL_SIMD env
     *  override or widest native). */
    sim::SimdTarget simd = sim::SimdTarget::Auto;
    std::uint64_t seed = 1;
    /** Fault activity window [start, end) in periods (transients).
     *  It must overlap the stream's 2 * symbols periods. */
    long faultStart = 0;
    long faultEnd = std::numeric_limits<long>::max();
    /**
     * Retire a fault once every lane has alarmed. Purely a work
     * saving: nothing observable can change afterwards (escapes need
     * an unalarmed lane, and all first alarms are already recorded),
     * so results are bit-identical either way.
     */
    bool dropDetected = true;
    /**
     * Const-refined equivalence collapsing plus structural dominance
     * pruning: classes whose faults are forced
     * Untestable (constant or unobservable line) skip simulation
     * outright. Purely a work saving — a pruned fault's machine is
     * trace-identical to the fault-free one, which the campaign has
     * already verified alarm-free, so verdicts are bit-identical
     * either way.
     */
    bool dominance = true;
    /**
     * Sequential extensions to collapsing (CollapseOptions::seq and,
     * when the fault window spans the whole run, seqTimeFrame):
     * constant propagation through flip-flop boundaries plus the
     * D-pin/output-stem time-frame equivalence. Exact like the
     * combinational rules, so verdicts are bit-identical either way;
     * only the class/pruned counts in the non-deterministic tail
     * move.
     */
    bool seqDominance = true;
    /**
     * Run the sequential dominance rules even on a netlist that
     * structurally looks like a verified self-dual hardened
     * realization. By default the campaign skips them there (the
     * Yamamoto mux isolates every original line, so the rules prune
     * zero classes — measured in EXPERIMENTS E23 — and the analysis
     * pass is pure cost); `--seq-dominance` on the CLI sets this.
     * Verdict-neutral either way.
     */
    bool seqDominanceForce = false;
    /** Worker threads: 0 = hardware_concurrency, 1 = run on the
     *  calling thread (no pool). Verdicts are identical either way. */
    int jobs = 0;
    std::chrono::milliseconds progressInterval{0};
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

/** log2 detection-latency buckets: bucket k holds first-alarm periods
 *  p with floor(log2(p+1)) == k. 16 buckets cover 65534 periods. */
inline constexpr int kLatencyBuckets = 16;

inline int
latencyBucket(long period)
{
    int b = 0;
    for (long v = period + 1; v > 1; v >>= 1)
        ++b;
    return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
}

struct SeqFaultVerdict
{
    netlist::Fault fault;
    Outcome outcome = Outcome::Untestable;
    /** Earliest period with an alarm in any lane, or -1. */
    long firstAlarmPeriod = -1;
    /** Earliest period a wrong data word escaped unalarmed, or -1. */
    long firstEscapePeriod = -1;
};

struct SeqCampaignResult
{
    std::vector<SeqFaultVerdict> faults;
    long symbols = 0;
    int lanes = 0;
    /** The resolved SIMD kernel build the workers ran. */
    sim::SimdTarget simd = sim::SimdTarget::Portable;
    int numUntestable = 0;
    int numDetected = 0;
    int numUnsafe = 0;
    /** Per-(fault, lane) first-alarm periods, log2-bucketed. */
    std::array<std::uint64_t, kLatencyBuckets> latencyHistogram{};
    /** Number of (fault, lane) first alarms recorded. */
    std::uint64_t alarmLaneCount = 0;
    /** Mean first-alarm period over those, in periods. */
    double meanAlarmPeriod = 0;
    /**
     * Kernel work counters. These depend on collapsing and batching
     * (only representatives are simulated), so unlike everything
     * above they are NOT part of the determinism contract.
     */
    long periodsSimulated = 0;
    long periodsSkipped = 0;
    /** Classes (and the faults they cover) dominance-pruned instead
     *  of simulated. Work accounting like the period counters above. */
    int prunedClasses = 0;
    int prunedFaults = 0;
    /** @name Fault-parallel replay breakdown
     *  Work accounting of the lane batches; all of it is
     *  non-deterministic tail data like the period counters. */
    /** @{ */
    int classes = 0;        ///< collapse classes
    int batchedClasses = 0; ///< classes replayed lane-batched
    int batches = 0;        ///< lane batches formed
    long retiredEarly = 0;  ///< lane groups retired before stream end
    /** @} */
    /** Wall-clock stats; explicitly non-deterministic. */
    engine::CampaignStats stats;

    bool faultSecure() const { return numUnsafe == 0; }
    bool selfChecking() const
    {
        return numUnsafe == 0 && numUntestable == 0;
    }
};

/**
 * One fault class's verdict, which every member fault shares. The
 * per-lane first-alarm periods are pre-bucketed rather than carried
 * as a lanes-long vector: at 512 lanes the flat vector would be the
 * dominant per-fault bookkeeping cost, and a result only consumes the
 * aggregate. The classifier yields one per class, a shard partial
 * carries one per fault (fault/shard.hh), and foldSeqVerdicts turns
 * them into a result.
 */
struct SeqClassVerdict
{
    Outcome outcome = Outcome::Untestable;
    long firstAlarm = -1;
    long firstEscape = -1;
    std::array<std::uint64_t, kLatencyBuckets> latHist{};
    std::uint64_t alarmLanes = 0;
    std::uint64_t latSum = 0;
};

/**
 * The one fold of per-fault verdicts into @p result: @p verdicts[k] is
 * the verdict of @p faults[k] (allFaults() order). Sets the fault
 * vector, the outcome counts and the latency aggregate, summed in
 * fault order with one closing double division, and leaves the stream
 * identity and work counters to the caller. runSequentialCampaign and
 * mergeSeqCampaignPartials both fold through it, so the inline and the
 * merged result agree field for field.
 */
void foldSeqVerdicts(const std::vector<netlist::Fault> &faults,
                     const std::vector<SeqClassVerdict> &verdicts,
                     SeqCampaignResult &result);

/**
 * The shared verdict state machine, fed one symbol at a time with the
 * packed per-lane alarm and wrong-data masks. The lane-batched
 * campaign, the per-fault oracle campaign (tests/oracle/) and the
 * scalar SeqSimulator oracles of the tests and bench_seq_fault_sim all
 * fold through this one implementation, so their outcome semantics
 * cannot drift apart.
 *
 * Rules, per symbol s (periods 2s and 2s+1):
 *  - lanes newly alarmed record first-alarm period 2s+1;
 *  - a wrong data word in a lane with no alarm at or before this
 *    symbol is an escape: the fault is Unsafe and the run stops
 *    (nothing can redeem it);
 *  - with dropDetected, once every lane has alarmed the run stops
 *    (nothing observable can still change);
 *  - at end of stream: alarmed somewhere → Detected, else Untestable.
 */
class SeqVerdictAccumulator
{
  public:
    /**
     * @p lane_mask holds @p lane_words packed mask words (lane l at
     * bit l % 64 of word l / 64, the sim/wide.hh layout).
     */
    SeqVerdictAccumulator(const std::uint64_t *lane_mask, int lane_words,
                          bool drop_detected)
        : laneWords_(lane_words), drop_(drop_detected)
    {
        for (int w = 0; w < lane_words; ++w)
            laneMask_[static_cast<std::size_t>(w)] = lane_mask[w];
        laneAlarm_.fill(-1);
    }

    /**
     * Returns false when the run may stop (verdict is final).
     * @p alarm_words / @p wrong_words are laneWords()-word blocks.
     */
    bool
    addSymbol(long symbol, const std::uint64_t *alarm_words,
              const std::uint64_t *wrong_words)
    {
        bool all_alarmed = true;
        bool escape = false;
        for (int w = 0; w < laneWords_; ++w) {
            const std::size_t sw = static_cast<std::size_t>(w);
            const std::uint64_t alarm = alarm_words[w] & laneMask_[sw];
            std::uint64_t fresh = alarm & ~alarmed_[sw];
            if (fresh) {
                const long p = 2 * symbol + 1;
                if (firstAlarm_ < 0)
                    firstAlarm_ = p;
                while (fresh) {
                    const int lane = 64 * w + std::countr_zero(fresh);
                    laneAlarm_[static_cast<std::size_t>(lane)] = p;
                    fresh &= fresh - 1;
                }
                alarmed_[sw] |= alarm;
            }
            if ((wrong_words[w] & laneMask_[sw]) & ~alarmed_[sw])
                escape = true;
            if (alarmed_[sw] != laneMask_[sw])
                all_alarmed = false;
        }
        if (escape) {
            escaped_ = true;
            firstEscape_ = 2 * symbol;
            return false;
        }
        return !(drop_ && all_alarmed);
    }

    Outcome
    outcome() const
    {
        if (escaped_)
            return Outcome::Unsafe;
        for (int w = 0; w < laneWords_; ++w)
            if (alarmed_[static_cast<std::size_t>(w)])
                return Outcome::Detected;
        return Outcome::Untestable;
    }
    int laneWords() const { return laneWords_; }
    long firstAlarmPeriod() const { return firstAlarm_; }
    long firstEscapePeriod() const { return firstEscape_; }
    /** Alarmed-lane word @p w. */
    std::uint64_t alarmedWord(int w) const
    {
        return alarmed_[static_cast<std::size_t>(w)];
    }
    /** First-alarm period of @p lane, or -1. */
    long laneFirstAlarm(int lane) const
    {
        return laneAlarm_[static_cast<std::size_t>(lane)];
    }

  private:
    int laneWords_;
    bool drop_;
    std::array<std::uint64_t, sim::kMaxLaneWords> laneMask_{};
    std::array<std::uint64_t, sim::kMaxLaneWords> alarmed_{};
    bool escaped_ = false;
    long firstAlarm_ = -1;
    long firstEscape_ = -1;
    std::array<long, 64 * sim::kMaxLaneWords> laneAlarm_;
};

/**
 * The deterministic per-symbol input words every lane receives:
 * words[s][i*lane_words + w] is packed phase-0 bit word w of input i
 * at symbol s (the φ slots, if any, are left zero — the trace drives
 * them). The Rng is drawn per symbol, per non-φ input, per word, so
 * lane_words == 1 reproduces the historical streams exactly. Exposed
 * so the scalar oracle in tests and benchmarks can replay the exact
 * streams the campaign generates.
 */
std::vector<std::vector<std::uint64_t>>
buildSymbolWords(int num_inputs, int phi_input, long symbols,
                 std::uint64_t seed, int lane_words = 1);

/**
 * Run the campaign over all stuck-at faults of @p net. Throws
 * std::invalid_argument on a bad spec or options (no symbols, lanes
 * outside 0..512, a fault window that misses the stream) and when the
 * fault-free machine raises an alarm under @p spec.
 */
SeqCampaignResult
runSequentialCampaign(const netlist::Netlist &net,
                      const SeqCampaignSpec &spec,
                      const SeqCampaignOptions &opts = {});

/** The streams a campaign with @p opts runs: opts.lanes, or for 0 the
 *  widest block of the resolved SIMD target. Throws
 *  std::invalid_argument unless opts.lanes is 0..512. */
int resolveSeqLanes(const SeqCampaignOptions &opts);

} // namespace scal::fault

#endif // SCAL_FAULT_SEQ_CAMPAIGN_HH
