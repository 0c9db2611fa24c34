#include "fault/campaign.hh"

#include <limits>
#include <stdexcept>

#include "engine/campaign_engine.hh"
#include "fault/collapse.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "netlist/io.hh"
#include "sim/alternating.hh"
#include "sim/batch_sim.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"

namespace scal::fault
{

using namespace netlist;

namespace
{

/** Per-class verdict accumulated over the whole pattern space. */
struct Verdict
{
    bool tested = false;
    bool unsafe = false;
    std::vector<std::uint64_t> unsafePatterns;
};

/**
 * One packed input block (64 * laneWords lanes) with its per-lane
 * patterns. Built once before fan-out and shared read-only by every
 * worker, so the good-value simulation and the Rng draw happen
 * exactly once per pattern regardless of the chunk count. Lane l of
 * input i lives at bit (l % 64) of word i*W + l/64, so lanes are
 * always in ascending global-pattern order — the invariant that makes
 * verdicts (and kept unsafe examples) identical at every width.
 */
struct PatternBlock
{
    std::vector<std::uint64_t> in; ///< per-input lane blocks (ni * W)
    /** Each lane's first pattern word, inputs 0-63 (sampled mode
     *  only; exhaustive patterns are first + lane). A kept unsafe
     *  example records these inputs only. */
    std::vector<std::uint64_t> base;
    std::uint64_t first = 0;
    int lanes = 64;

    std::uint64_t
    laneMask(int word) const
    {
        const int rem = lanes - 64 * word;
        if (rem <= 0)
            return 0;
        if (rem >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << rem) - 1;
    }

    std::uint64_t
    patternAt(int lane) const
    {
        return base.empty() ? first + static_cast<std::uint64_t>(lane)
                            : base[lane];
    }
};

/** Serial pre-pass: the packed pattern stream (sim::PatternStream:
 *  pattern order, independent of lane_words); the fault-free values
 *  are cached per worker by FaultSimulator::setAlternatingBlock. */
std::vector<PatternBlock>
buildBlocks(int ni, bool exhaustive, std::uint64_t num_patterns,
            std::uint64_t seed, int lane_words)
{
    sim::PatternStream stream(ni, exhaustive, seed);

    const std::uint64_t block_lanes =
        static_cast<std::uint64_t>(64) * lane_words;
    std::vector<PatternBlock> blocks;
    blocks.reserve(static_cast<std::size_t>(
        (num_patterns + block_lanes - 1) / block_lanes));
    for (std::uint64_t base = 0; base < num_patterns;
         base += block_lanes) {
        PatternBlock blk;
        blk.first = base;
        blk.lanes = static_cast<int>(
            std::min<std::uint64_t>(block_lanes, num_patterns - base));
        blk.in.resize(static_cast<std::size_t>(ni) * lane_words);
        if (!exhaustive)
            blk.base.resize(blk.lanes);
        stream.next(blk.lanes, lane_words, blk.in.data(),
                    exhaustive ? nullptr : blk.base.data());
        blocks.push_back(std::move(blk));
    }
    return blocks;
}

/**
 * Fold one block's lane masks into a class's running verdict.
 */
void
accumulateVerdict(const sim::WideMasks &m, const PatternBlock &blk,
                  int lane_words, const CampaignOptions &opts,
                  engine::ProgressTracker &progress, Verdict &v)
{
    bool any_err = false, any_unsafe = false;
    for (int w = 0; w < lane_words; ++w) {
        const std::uint64_t lm = blk.laneMask(w);
        if (m.anyErr[static_cast<std::size_t>(w)] & lm)
            any_err = true;
        if (m.unsafeWord(w) & lm)
            any_unsafe = true;
    }
    if (any_err)
        v.tested = true;
    if (any_unsafe) {
        if (!v.unsafe)
            progress.addUnsafe(1);
        v.unsafe = true;
        for (int lane = 0; lane < blk.lanes; ++lane) {
            if (static_cast<int>(v.unsafePatterns.size()) >=
                opts.keepUnsafeExamples)
                break;
            if ((m.unsafeWord(lane / 64) >> (lane % 64)) & 1)
                v.unsafePatterns.push_back(blk.patternAt(lane));
        }
    }
}

Outcome
outcomeOf(const Verdict &v)
{
    if (v.unsafe)
        return Outcome::Unsafe;
    return v.tested ? Outcome::Detected : Outcome::Untestable;
}

/** The campaign preconditions on the netlist and options, checked
 *  before any work is done; returns the target's fault universe. */
std::vector<Fault>
checkedFaults(const Netlist &net, const CampaignOptions &opts)
{
    if (!net.isCombinational())
        throw std::invalid_argument("campaign needs combinational netlist");
    if (opts.lanes != 0 && opts.lanes != 64 && opts.lanes != 256 &&
        opts.lanes != 512)
        throw std::invalid_argument("lanes must be 0 (auto), 64, 256 or 512");
    return net.allFaults();
}

/** The compiled target, checked for Theorem 2.1's precondition that
 *  every output is self-dual: exhaustively, up to 20 inputs. */
sim::FlatNetlist
checkedFlat(const Netlist &net, const CampaignOptions &opts)
{
    sim::FlatNetlist flat(net);
    if (opts.checkAlternating && net.numInputs() <= 20 &&
        !sim::isAlternatingNetwork(
            flat, std::numeric_limits<std::uint64_t>::max(), 1))
        throw std::invalid_argument(
            "campaign target is not an alternating network "
            "(some output is not self-dual)");
    return flat;
}

/**
 * Everything a combinational campaign derives before it classifies:
 * the checked fault universe, the packed width and kernel build
 * (resolved once, so every worker runs the same configuration), the
 * compiled netlist, the shared pattern blocks, the const-refined
 * collapse with dominance pruning, and the fault-parallel plan that
 * routes its classes through FFR batching, CPT and pruning
 * (sim/batch_sim.hh). The inline and the shard runner both build one,
 * so they classify the identical group space. Everything here is
 * immutable and shared read-only by the workers. Not copyable: the
 * plan points into flat.
 */
struct CombSetup
{
    CombSetup(const Netlist &net, const CampaignOptions &opts)
        : faults(checkedFaults(net, opts)),
          simd(sim::resolveSimdTarget(opts.simd)),
          laneWords(opts.lanes == 0 ? sim::defaultLaneWords(simd)
                                    : sim::laneWordsForLanes(opts.lanes)),
          exhaustive(net.numInputs() < 63 &&
                     (std::uint64_t{1} << net.numInputs()) <=
                         opts.maxPatterns),
          numPatterns(exhaustive ? std::uint64_t{1} << net.numInputs()
                                 : opts.maxPatterns),
          flat(checkedFlat(net, opts)),
          blocks(buildBlocks(net.numInputs(), exhaustive, numPatterns,
                             opts.seed, laneWords)),
          col(collapseFaults(net, {.constRefine = true, .dominance = true})),
          plan(flat, faults, col.classOf, col.representatives, col.pruned,
               /*enable_cpt=*/true)
    {
    }
    CombSetup(const CombSetup &) = delete;
    CombSetup &operator=(const CombSetup &) = delete;

    std::vector<Fault> faults;
    sim::SimdTarget simd;
    int laneWords;
    bool exhaustive;
    std::uint64_t numPatterns;
    sim::FlatNetlist flat;
    std::vector<PatternBlock> blocks;
    CollapseResult col;
    sim::FaultBatchPlan plan;
};

/** Result of one chunk: per-class verdicts for the positions
 *  [plan.classOffset(begin), plan.classOffset(end)) of its group
 *  range, plus the chunk's batch count. */
struct GroupChunkOut
{
    std::vector<Verdict> verdicts;
    std::uint64_t batches = 0;
};

/**
 * Classify every class of groups [gbegin, gend) over the shared
 * pattern blocks with a BatchClassifier — the campaign's one classify
 * loop. Each call owns its simulator and classifier; everything else
 * it reads is immutable, so a class verdict cannot depend on which
 * chunk classified it.
 */
GroupChunkOut
classifyGroupChunk(const CombSetup &s, int gbegin, int gend,
                   const CampaignOptions &opts,
                   engine::ProgressTracker &progress)
{
    sim::FaultSimulator fs(s.flat, s.laneWords, s.simd);
    sim::BatchClassifier classifier(fs, s.plan);
    classifier.setRange(gbegin, gend);

    GroupChunkOut out;
    out.batches = classifier.numBatches();
    const std::size_t base = s.plan.classOffset(gbegin);
    out.verdicts.resize(s.plan.classOffset(gend) - base);
    // The Detected classes, which the classifier may drop on a block
    // that cannot make them Unsafe.
    std::vector<std::uint8_t> tested(out.verdicts.size(), 0);
    for (const PatternBlock &blk : s.blocks) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        fs.setAlternatingBlock(blk.in);
        classifier.classifyBlock(
            [&](std::size_t pos, const sim::WideMasks &m) {
                Verdict &v = out.verdicts[pos - base];
                accumulateVerdict(m, blk, s.laneWords, opts, progress, v);
                tested[pos - base] = v.tested;
            },
            tested);
        progress.addPatterns(static_cast<std::uint64_t>(blk.lanes));
    }
    progress.addFaultsDone(out.verdicts.size());
    return out;
}

engine::EngineOptions
engineOptions(const CampaignOptions &opts)
{
    engine::EngineOptions eopts;
    eopts.jobs = opts.jobs;
    eopts.progressInterval = opts.progressInterval;
    eopts.progressCallback = opts.progressCallback;
    return eopts;
}

} // namespace

CampaignResult
runAlternatingCampaign(const Netlist &net, const CampaignOptions &opts)
{
    const CombSetup s(net, opts);
    const sim::FaultBatchPlan &plan = s.plan;

    CampaignResult result;
    result.faults.resize(s.faults.size());
    for (std::size_t k = 0; k < s.faults.size(); ++k)
        result.faults[k].fault = s.faults[k];
    result.patternsApplied = s.numPatterns;
    result.lanes = 64 * s.laneWords;
    result.simd = s.simd;
    const sim::BatchPlanStats ps = plan.stats();
    result.fp.totalFaults = s.col.totalFaults;
    result.fp.classes = plan.numClasses();
    result.fp.prunedClasses = ps.prunedClasses;
    result.fp.prunedFaults = s.col.prunedFaults;
    result.fp.flipClasses = ps.flipClasses;
    result.fp.cptClasses = ps.cptClasses;
    result.fp.tapClasses = ps.tapClasses;
    result.fp.simClasses = ps.simClasses;

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(static_cast<std::uint64_t>(plan.numClasses()));
    // Groups — not single classes — are the chunking unit, so batches
    // never straddle a chunk boundary; the pool's queue over the
    // engine's equal-count chunks balances their uneven costs.
    const std::vector<GroupChunkOut> chunkOuts =
        eng.mapChunks<GroupChunkOut>(
            static_cast<std::size_t>(plan.numGroups()),
            [&](engine::Chunk c, std::size_t) {
                return classifyGroupChunk(s, static_cast<int>(c.begin),
                                          static_cast<int>(c.end), opts,
                                          eng.progress());
            });

    // Deterministic merge: chunk results concatenate back to the
    // position order of plan.classList(), which maps positions to
    // class ids; classOf then expands classes over allFaults().
    std::vector<const Verdict *> classVerdict(
        static_cast<std::size_t>(plan.numClasses()));
    std::size_t pos = 0;
    for (const GroupChunkOut &co : chunkOuts) {
        result.fp.batches += co.batches;
        for (const Verdict &v : co.verdicts)
            classVerdict[static_cast<std::size_t>(
                plan.classList()[pos++])] = &v;
    }
    for (std::size_t k = 0; k < s.faults.size(); ++k) {
        const Verdict &v =
            *classVerdict[static_cast<std::size_t>(s.col.classOf[k])];
        FaultResult &fr = result.faults[k];
        fr.outcome = outcomeOf(v);
        fr.unsafePatterns = v.unsafePatterns;
        switch (fr.outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
    }

    result.stats = eng.endCampaign(
        s.faults.size(),
        static_cast<std::uint64_t>(s.col.simulatedClasses()),
        s.numPatterns);
    return result;
}

ShardOutcome
runAlternatingCampaignShard(const Netlist &net,
                            const CampaignOptions &opts,
                            const engine::ShardSpec &shard,
                            const CheckpointOptions &ckpt)
{
    // The shard universe is the fault-parallel plan's *group* space:
    // batches never straddle a group, groups map to contiguous class
    // positions, and the plan is a pure function of the netlist, so
    // every process derives the same split. Class verdicts are
    // batch-composition-independent (the PR 7 equivalence contract),
    // which is what licenses re-planning per shard.
    const CombSetup s(net, opts);
    const sim::FaultBatchPlan &plan = s.plan;

    // Cost-weighted split: groups carry the plan's per-group cone
    // costs, so each shard owns ~equal simulation work instead of
    // equal group counts — equal counts leave the fleet's critical
    // path hostage to wherever the big cones cluster.
    const engine::Chunk slice =
        engine::shardSliceWeighted(plan.groupCosts(), shard);
    const int g0 = static_cast<int>(slice.begin);
    const int g1 = static_cast<int>(slice.end);

    ShardOutcome out;
    out.units = slice.size();
    out.shardClasses = static_cast<int>(plan.classOffset(g1) -
                                        plan.classOffset(g0));

    // The run's identity: what a resume snapshot must match, and the
    // header every snapshot of this run carries.
    engine::SnapshotHeader id;
    id.kind = "comb";
    id.netHash = netlist::contentHash(net);
    id.configKey = canonicalCampaignConfig(opts);
    id.shapeKey = "comb";
    id.shard = shard;
    id.units = out.units;

    // Class -> member faults, in ascending fault order (one pass over
    // allFaults()), so record order is a pure function of positions.
    std::vector<std::vector<std::uint32_t>> classFaults(
        static_cast<std::size_t>(plan.numClasses()));
    for (std::size_t k = 0; k < s.faults.size(); ++k)
        classFaults[static_cast<std::size_t>(s.col.classOf[k])].push_back(
            static_cast<std::uint32_t>(k));

    // Per-fault records, each encoded once when its chunk commits.
    engine::ByteWriter records;
    std::uint32_t numRecords = 0;
    shard_detail::CombPayload tail;
    tail.patternsApplied = s.numPatterns;
    tail.lanes = 64 * s.laneWords;
    tail.simd = sim::simdTargetName(s.simd);

    if (ckpt.resume) {
        std::vector<std::uint8_t> payload;
        out.resumedUnits = engine::decodeResumeSnapshot(
            *ckpt.resume, id, &payload, ckpt.resumeName).cursor;
        const shard_detail::CombPayload p =
            shard_detail::decodeCombPayload(payload, ckpt.resumeName);
        for (const shard_detail::CombRecord &r : p.records)
            shard_detail::encodeCombRecord(records, r.faultIndex,
                                           r.outcome, r.unsafePatterns);
        numRecords = static_cast<std::uint32_t>(p.records.size());
        tail.batches = p.batches;
    }

    std::vector<std::uint64_t> classes;
    for (int g = g0; g < g1; ++g)
        classes.push_back(plan.classOffset(g + 1) - plan.classOffset(g));

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(static_cast<std::uint64_t>(out.shardClasses));
    runCheckpointedShard(
        eng, ckpt, opts.cancel, id, classes,
        [&](engine::Chunk c) -> std::function<void()> {
            const int gb = g0 + static_cast<int>(c.begin);
            // Commit: expand the chunk's class verdicts to per-fault
            // records in position order; merge re-sorts nothing.
            return [&, gb,
                    co = classifyGroupChunk(s, gb,
                                            g0 + static_cast<int>(c.end),
                                            opts, eng.progress())] {
                tail.batches += co.batches;
                std::size_t pos = plan.classOffset(gb);
                for (const Verdict &v : co.verdicts)
                    for (const std::uint32_t k :
                         classFaults[static_cast<std::size_t>(
                             plan.classList()[pos++])]) {
                        shard_detail::encodeCombRecord(
                            records, k,
                            static_cast<std::uint8_t>(outcomeOf(v)),
                            v.unsafePatterns);
                        ++numRecords;
                    }
            };
        },
        records,
        [&](engine::ByteWriter &w) {
            shard_detail::encodeCombPrefix(w, tail, numRecords);
        },
        out);

    out.shardFaults = static_cast<int>(numRecords);
    out.stats = eng.endCampaign(
        static_cast<std::uint64_t>(out.shardFaults),
        static_cast<std::uint64_t>(out.shardClasses), s.numPatterns);
    return out;
}

} // namespace scal::fault
