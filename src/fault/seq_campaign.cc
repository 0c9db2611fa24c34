#include "fault/seq_campaign.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "engine/campaign_engine.hh"
#include "fault/collapse.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "sim/flat.hh"
#include "sim/seq_batch_sim.hh"
#include "util/rng.hh"

namespace scal::fault
{

using namespace netlist;

namespace
{

/** Spec with defaults resolved against the netlist. */
struct ResolvedSpec
{
    std::vector<int> dataOutputs;
    std::vector<int> altOutputs;
    std::vector<int> codePairs;
    /** Per input: 1 = held across both periods of a symbol. */
    std::vector<std::uint8_t> hold;
    /** Words per fault lane group (Wg) and the group's lane mask. */
    int laneWords = 1;
    std::array<std::uint64_t, sim::kMaxLaneWords> laneMask{};
};

SeqClassVerdict
classVerdict(const SeqVerdictAccumulator &acc, int lanes)
{
    SeqClassVerdict v;
    v.outcome = acc.outcome();
    v.firstAlarm = acc.firstAlarmPeriod();
    v.firstEscape = acc.firstEscapePeriod();
    for (int l = 0; l < lanes; ++l) {
        const long p = acc.laneFirstAlarm(l);
        if (p >= 0) {
            ++v.latHist[static_cast<std::size_t>(latencyBucket(p))];
            ++v.alarmLanes;
            v.latSum += static_cast<std::uint64_t>(p);
        }
    }
    return v;
}

/** One chunk's class verdicts, in classification order, plus its
 *  work counters. */
struct ChunkOut
{
    std::vector<std::pair<std::size_t, SeqClassVerdict>> verdicts;
    long periodsSimulated = 0;
    long periodsSkipped = 0;
    long retiredEarly = 0;
};

/**
 * Validate the spec against the netlist and resolve its defaults, the
 * hold set and the packed lane mask of one @p lanes-wide group.
 */
ResolvedSpec
resolveSeqSpec(const Netlist &net, const SeqCampaignSpec &spec, int lanes)
{
    const int ni = net.numInputs();
    const int no = net.numOutputs();
    const int W = sim::laneWordsForLanes(lanes);

    ResolvedSpec rs;
    rs.dataOutputs = spec.dataOutputs;
    rs.altOutputs = spec.altOutputs;
    rs.codePairs = spec.codePairs;
    if (rs.dataOutputs.empty())
        for (int j = 0; j < no; ++j)
            rs.dataOutputs.push_back(j);
    if (rs.altOutputs.empty())
        for (int j = 0; j < no; ++j)
            rs.altOutputs.push_back(j);
    rs.laneWords = W;
    for (int w = 0; w < W; ++w) {
        const int rem = lanes - 64 * w;
        rs.laneMask[static_cast<std::size_t>(w)] =
            rem >= 64    ? ~std::uint64_t{0}
            : rem <= 0   ? 0
                         : (std::uint64_t{1} << rem) - 1;
    }
    auto check_output = [no](int j) {
        if (j < 0 || j >= no)
            throw std::invalid_argument("output index out of range");
    };
    for (const int j : rs.dataOutputs)
        check_output(j);
    for (const int j : rs.altOutputs)
        check_output(j);
    for (const int j : rs.codePairs)
        check_output(j);
    rs.hold.assign(static_cast<std::size_t>(ni), 0);
    for (const int i : spec.holdInputs) {
        if (i < 0 || i >= ni)
            throw std::invalid_argument("hold input index out of range");
        rs.hold[static_cast<std::size_t>(i)] = 1;
    }
    return rs;
}

/**
 * The campaign preconditions on @p opts, checked before any work is
 * done, and the options every worker runs: lanes and the SIMD target
 * resolved once, and seqDominance as it takes effect. The sequential
 * collapse rules
 * provably prune nothing on a verified self-dual hardened realization
 * (EXPERIMENTS E23 — the Yamamoto mux isolates every original line
 * behind φ-gated reconvergence), so the pass is skipped there unless
 * forced. Verdict-neutral: the rules are exact, only analysis time
 * moves.
 */
SeqCampaignOptions
checkedOptions(const Netlist &net, const SeqCampaignOptions &opts)
{
    if (opts.symbols < 1)
        throw std::invalid_argument("need at least one symbol");
    // A fault that is never active would get a verdict that means
    // nothing: the window must overlap the stream's periods.
    const long periods = 2 * opts.symbols;
    if (std::max(opts.faultStart, 0L) >= std::min(opts.faultEnd, periods))
        throw std::invalid_argument(
            "fault window " + std::to_string(opts.faultStart) + ":" +
            std::to_string(opts.faultEnd) + " does not overlap the " +
            std::to_string(periods) + "-period stream 0:" +
            std::to_string(periods));
    SeqCampaignOptions r = opts;
    r.lanes = resolveSeqLanes(opts);
    r.simd = sim::resolveSimdTarget(opts.simd);
    r.seqDominance = opts.seqDominance &&
                     (opts.seqDominanceForce ||
                      !netlist::looksSelfDualHardened(net));
    return r;
}

/**
 * Const-refined collapsing with dominance pruning, plus the
 * sequential rules when in effect. The collapsing equivalences are
 * all same-line-function equivalences (Dffs collapse nothing), so they
 * hold per period and therefore over any sequence — including the
 * const-refined chains, whose constant propagation treats Dff outputs
 * as free variables. The time-frame rules only hold when the fault is
 * active for the whole stream.
 */
CollapseOptions
seqCollapseOptions(const SeqCampaignOptions &opts)
{
    CollapseOptions c;
    c.constRefine = opts.dominance;
    c.dominance = opts.dominance;
    c.seq = opts.seqDominance;
    c.seqTimeFrame = opts.seqDominance && opts.faultStart <= 0 &&
                     opts.faultEnd >= 2 * opts.symbols;
    return c;
}

/**
 * Everything a sequential campaign derives before it classifies: the
 * checked and resolved options, the spec, the compiled netlist, the
 * collapse, the fault-free trace, its dead-line masks and the decoded
 * sites of the unpruned classes. The inline and the shard runner both
 * build one, so they classify the identical class space.
 * Everything here is immutable and shared read-only by the workers.
 * Not copyable: the trace points into flat.
 *
 * The trace is kMaxLaneWords wide with the stream replicated into
 * every Wg-word lane group, one group per fault of a lane batch:
 * group f of every row is bit-identical to a Wg-wide trace (the
 * sim/wide.hh per-word layout guarantee), and above 256 lanes the one
 * group is the stream itself.
 */
struct SeqSetup
{
    SeqSetup(const Netlist &net, const SeqCampaignSpec &spec,
             const SeqCampaignOptions &requested)
        : opts(checkedOptions(net, requested)),
          rs(resolveSeqSpec(net, spec, opts.lanes)),
          colOpts(seqCollapseOptions(opts)),
          flat(net),
          col(collapseFaults(net, colOpts)),
          trace(flat, spec.phiInput, sim::kMaxLaneWords, opts.simd),
          dead(sim::seqDeadLines(trace))
    {
        buildTrace(net.numInputs(), spec.phiInput);
        for (std::size_t r = 0; r < col.representatives.size(); ++r) {
            if (!col.pruned.empty() && col.pruned[r])
                continue;
            sites.push_back(
                sim::decodeSeqFaultSite(flat, col.representatives[r]));
            siteRep.push_back(r);
        }
    }
    SeqSetup(const SeqSetup &) = delete;
    SeqSetup &operator=(const SeqSetup &) = delete;

    /** The kernel build of one Wg-wide replay: tail data. */
    sim::SimdTarget
    groupSimd() const
    {
        return sim::wideKernels(rs.laneWords, opts.simd).target;
    }

    /** Lane batches over every site; members are site indices. */
    sim::SeqBatchPlan
    planBatches() const
    {
        return sim::planSeqBatches(flat, sites, rs.laneWords,
                                   sim::kMaxLaneWords);
    }

    SeqCampaignOptions opts;
    ResolvedSpec rs;
    CollapseOptions colOpts;
    sim::FlatNetlist flat;
    CollapseResult col;
    sim::SeqGoodTrace trace;
    /** The lines each phase's replay skips (sim/seq_batch_sim.hh). */
    sim::SeqDeadLines dead;
    /** Decoded representative per unpruned class, in class order. */
    std::vector<sim::SeqFaultSite> sites;
    std::vector<std::size_t> siteRep; ///< site index -> class

  private:
    /**
     * Symbol s drives X in period 2s and X̄ (held inputs and φ
     * unchanged) in period 2s + 1. The classifier skips symbols a
     * fault never touches, which needs a fault-free machine that is
     * alarm-free on every symbol: checked here, in every lane.
     */
    void
    buildTrace(int ni, int phi)
    {
        const int Wg = rs.laneWords;
        const int Wb = sim::kMaxLaneWords;
        const auto words =
            buildSymbolWords(ni, phi, opts.symbols, opts.seed, Wg);
        trace.reservePeriods(2 * opts.symbols);
        std::vector<std::uint64_t> in(static_cast<std::size_t>(ni) * Wb);
        std::vector<std::uint64_t> inbar(in.size());
        const int npairs = static_cast<int>(rs.codePairs.size()) / 2;
        for (long s = 0; s < opts.symbols; ++s) {
            for (int i = 0; i < ni; ++i)
                for (int w = 0; w < Wb; ++w) {
                    const std::uint64_t v =
                        words[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(i) * Wg + w % Wg];
                    const std::size_t idx =
                        static_cast<std::size_t>(i) * Wb + w;
                    in[idx] = v;
                    inbar[idx] = (i == phi ||
                                  rs.hold[static_cast<std::size_t>(i)])
                                     ? v
                                     : ~v;
                }
            trace.stepPeriod(in.data());
            trace.stepPeriod(inbar.data());

            const std::uint64_t *p0 = trace.outputs(2 * s);
            std::uint64_t alarm[sim::kMaxLaneWords];
            std::uint64_t wrong[sim::kMaxLaneWords];
            trace.kernels().seqAlarmWrong(
                p0, trace.outputs(2 * s + 1), p0, rs.altOutputs.data(),
                static_cast<int>(rs.altOutputs.size()),
                rs.codePairs.data(), npairs, nullptr, 0, alarm, wrong);
            for (int w = 0; w < Wb; ++w)
                if (alarm[w] & rs.laneMask[static_cast<std::size_t>(w % Wg)])
                    throw std::invalid_argument(
                        "fault-free machine raises an alarm: not an "
                        "alternating (SCAL) machine under this spec");
        }
    }
};

/**
 * Replay the batches [begin, end) of @p plan and fold each member's
 * verdict. Each call owns its simulator and reads only immutable
 * shared state, so a fault's verdict cannot depend on which chunk
 * replayed it or who shared its batch. The kernel folds only the
 * symbols a batch member touches; the rest contribute nothing, which
 * is exact because the fault-free machine is alarm-free (checked by
 * SeqSetup) and has no wrong data words.
 */
ChunkOut
classifySeqBatchChunk(const SeqSetup &s, const sim::SeqBatchPlan &plan,
                      std::size_t begin, std::size_t end,
                      engine::ProgressTracker &progress)
{
    const SeqCampaignOptions &opts = s.opts;
    const ResolvedSpec &rs = s.rs;
    const int Wg = rs.laneWords;
    sim::SeqFaultBatchSimulator bsim(s.trace, Wg, s.dead);
    const int F = bsim.groupsPerBatch();

    sim::SeqFaultBatchSimulator::FoldSpec fold;
    fold.alt = rs.altOutputs.data();
    fold.nalt = static_cast<int>(rs.altOutputs.size());
    fold.pairs = rs.codePairs.data();
    fold.npairs = static_cast<int>(rs.codePairs.size()) / 2;
    fold.data = rs.dataOutputs.data();
    fold.ndata = static_cast<int>(rs.dataOutputs.size());

    std::vector<sim::SeqFaultSite> bs(static_cast<std::size_t>(F));
    std::vector<SeqVerdictAccumulator> accs;
    accs.reserve(static_cast<std::size_t>(F));
    const auto sink = [&accs](int f, long sym, const std::uint64_t *alarm,
                              const std::uint64_t *wrong) {
        return accs[static_cast<std::size_t>(f)].addSymbol(sym, alarm,
                                                           wrong);
    };

    ChunkOut out;
    for (std::size_t b = begin; b < end; ++b) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        const std::vector<int> &members = plan.batches[b];
        const int nf = static_cast<int>(members.size());
        accs.clear();
        for (int i = 0; i < nf; ++i) {
            bs[static_cast<std::size_t>(i)] =
                s.sites[static_cast<std::size_t>(members[i])];
            accs.emplace_back(rs.laneMask.data(), Wg, opts.dropDetected);
        }

        bsim.beginBatch(bs.data(), nf, opts.faultStart, opts.faultEnd);
        bsim.run(fold, sink);

        out.periodsSimulated += bsim.periodsSimulated();
        out.periodsSkipped += bsim.periodsSkipped();
        for (int i = 0; i < nf; ++i) {
            if (bsim.retired(i) &&
                bs[static_cast<std::size_t>(i)].kind !=
                    sim::SeqFaultSite::Kind::Inert)
                ++out.retiredEarly;
            SeqClassVerdict v =
                classVerdict(accs[static_cast<std::size_t>(i)], opts.lanes);
            if (v.outcome == Outcome::Unsafe)
                progress.addUnsafe(1);
            out.verdicts.emplace_back(
                s.siteRep[static_cast<std::size_t>(members[i])],
                std::move(v));
        }
        progress.addPatterns(
            static_cast<std::uint64_t>(bsim.periodsSimulated()));
        progress.addFaultsDone(static_cast<std::size_t>(nf));
    }
    return out;
}

engine::EngineOptions
engineOptions(const SeqCampaignOptions &opts)
{
    engine::EngineOptions eopts;
    eopts.jobs = opts.jobs;
    eopts.progressInterval = opts.progressInterval;
    eopts.progressCallback = opts.progressCallback;
    return eopts;
}

} // namespace

std::vector<std::vector<std::uint64_t>>
buildSymbolWords(int num_inputs, int phi_input, long symbols,
                 std::uint64_t seed, int lane_words)
{
    util::Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> words(
        static_cast<std::size_t>(symbols));
    for (auto &w : words) {
        w.assign(static_cast<std::size_t>(num_inputs) * lane_words, 0);
        for (int i = 0; i < num_inputs; ++i)
            if (i != phi_input)
                for (int ww = 0; ww < lane_words; ++ww)
                    w[static_cast<std::size_t>(i) * lane_words + ww] =
                        rng.next();
    }
    return words;
}

int
resolveSeqLanes(const SeqCampaignOptions &opts)
{
    if (opts.lanes < 0 || opts.lanes > 512)
        throw std::invalid_argument("lanes must be 0 (auto) or 1..512");
    return opts.lanes == 0
               ? 64 * sim::defaultLaneWords(sim::resolveSimdTarget(opts.simd))
               : opts.lanes;
}

void
foldSeqVerdicts(const std::vector<Fault> &faults,
                const std::vector<SeqClassVerdict> &verdicts,
                SeqCampaignResult &result)
{
    result.faults.resize(faults.size());
    std::uint64_t lat_sum = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
        const SeqClassVerdict &v = verdicts[k];
        result.faults[k] = {faults[k], v.outcome, v.firstAlarm,
                            v.firstEscape};
        switch (v.outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
        for (int b = 0; b < kLatencyBuckets; ++b)
            result.latencyHistogram[static_cast<std::size_t>(b)] +=
                v.latHist[static_cast<std::size_t>(b)];
        result.alarmLaneCount += v.alarmLanes;
        lat_sum += v.latSum;
    }
    if (result.alarmLaneCount)
        result.meanAlarmPeriod =
            static_cast<double>(lat_sum) /
            static_cast<double>(result.alarmLaneCount);
}

SeqCampaignResult
runSequentialCampaign(const Netlist &net, const SeqCampaignSpec &spec,
                      const SeqCampaignOptions &opts)
{
    const SeqSetup s(net, spec, opts);
    const std::size_t numClasses = s.col.representatives.size();
    const sim::SeqBatchPlan plan = s.planBatches();

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(numClasses);
    // Pruned classes never enter the plan: their verdict is final now.
    eng.progress().addFaultsDone(numClasses - s.sites.size());
    const std::vector<ChunkOut> chunkOuts = eng.mapChunks<ChunkOut>(
        plan.batches.size(), [&](engine::Chunk c, std::size_t) {
            return classifySeqBatchChunk(s, plan, c.begin, c.end,
                                         eng.progress());
        });

    SeqCampaignResult result;
    result.symbols = opts.symbols;
    result.lanes = s.opts.lanes;
    result.simd = s.groupSimd();
    result.prunedClasses = s.col.prunedClasses;
    result.prunedFaults = s.col.prunedFaults;
    result.classes = static_cast<int>(numClasses);
    result.batchedClasses = static_cast<int>(s.sites.size());
    result.batches = static_cast<int>(plan.batches.size());

    // Pruned classes keep the default verdict: the faulty machine is
    // trace-identical to the fault-free one (stuck value equals a
    // structural constant, or the line reaches no output), so
    // Untestable with no alarms is exact.
    std::vector<SeqClassVerdict> classVerdicts(numClasses);
    for (const ChunkOut &o : chunkOuts) {
        for (const auto &[rep, v] : o.verdicts)
            classVerdicts[rep] = v;
        result.periodsSimulated += o.periodsSimulated;
        result.periodsSkipped += o.periodsSkipped;
        result.retiredEarly += o.retiredEarly;
    }
    const std::vector<Fault> faults = net.allFaults();
    std::vector<SeqClassVerdict> verdicts(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        verdicts[k] =
            classVerdicts[static_cast<std::size_t>(s.col.classOf[k])];
    foldSeqVerdicts(faults, verdicts, result);

    result.stats = eng.endCampaign(
        faults.size(),
        static_cast<std::uint64_t>(s.col.simulatedClasses()),
        static_cast<std::uint64_t>(opts.symbols) *
            static_cast<std::uint64_t>(s.opts.lanes));
    return result;
}

ShardOutcome
runSequentialCampaignShard(const Netlist &net,
                           const SeqCampaignSpec &spec,
                           const SeqCampaignOptions &opts,
                           const engine::ShardSpec &shard,
                           const CheckpointOptions &ckpt)
{
    // The shard universe is the collapsed class space under the
    // effective knobs, a pure function of (netlist, config), so every
    // process derives the same inline batch plan and deals it: slice
    // k of N replays plan batches k, k + N, k + 2N, ... exactly as
    // the inline run does, so the slices' work counters sum to the
    // inline run's. Adjacent batches have similar replay cones, so
    // every slice gets an equal share of every region of the
    // circuit. Pruned class r belongs to slice r mod N.
    const SeqSetup s(net, spec, opts);
    const std::size_t numClasses = s.col.representatives.size();
    const auto n = static_cast<std::size_t>(shard.count);
    const auto k = static_cast<std::size_t>(shard.index);
    sim::SeqBatchPlan plan = s.planBatches();
    std::vector<std::vector<int>> dealt;
    for (std::size_t b = k; b < plan.batches.size(); b += n)
        dealt.push_back(std::move(plan.batches[b]));
    plan.batches = std::move(dealt);

    // Unit = one batch of the plan, covering its member classes.
    std::vector<std::uint64_t> classes;
    std::size_t batchedClasses = 0;
    for (const std::vector<int> &b : plan.batches) {
        classes.push_back(b.size());
        batchedClasses += b.size();
    }
    std::vector<std::size_t> prunedMine;
    if (!s.col.pruned.empty())
        for (std::size_t r = k; r < numClasses; r += n)
            if (s.col.pruned[r])
                prunedMine.push_back(r);

    ShardOutcome out;
    out.units = classes.size();
    out.shardClasses = static_cast<int>(prunedMine.size() + batchedClasses);

    // The run's identity: what a resume snapshot must match, and the
    // header every snapshot of this run carries. fb=1 is the batch
    // unit kind; a snapshot of the retired per-fault units said fb=0.
    // "dealt" names the partition of a split run, so a snapshot cut
    // under the older contiguous slices is refused at resume.
    engine::SnapshotHeader id;
    id.kind = "seq";
    id.netHash = netlist::contentHash(net);
    id.configKey = canonicalSeqCampaignConfig(opts, spec);
    std::ostringstream sk;
    sk << "seq;fb=1"
       << ";dom=" << (s.opts.dominance ? 1 : 0)
       << ";seqdom=" << (s.opts.seqDominance ? 1 : 0)
       << ";seqtf=" << (s.colOpts.seqTimeFrame ? 1 : 0)
       << ";lanes=" << s.opts.lanes;
    if (shard.active())
        sk << ";dealt";
    id.shapeKey = sk.str();
    id.shard = shard;
    id.units = out.units;

    const std::vector<Fault> faults = net.allFaults();
    std::vector<std::vector<std::uint32_t>> classFaults(numClasses);
    for (std::size_t k = 0; k < faults.size(); ++k)
        classFaults[static_cast<std::size_t>(s.col.classOf[k])].push_back(
            static_cast<std::uint32_t>(k));

    // Per-fault records, each encoded once when its chunk commits, and
    // the payload prefix with the running non-deterministic counters.
    engine::ByteWriter records;
    std::uint32_t numRecords = 0;
    shard_detail::SeqPayload tail;

    auto appendClass = [&](std::size_t rep, const SeqClassVerdict &v) {
        for (const std::uint32_t k : classFaults[rep]) {
            shard_detail::encodeSeqRecord(records, {k, v});
            ++numRecords;
        }
    };

    if (ckpt.resume) {
        std::vector<std::uint8_t> payload;
        out.resumedUnits = engine::decodeResumeSnapshot(
            *ckpt.resume, id, &payload, ckpt.resumeName).cursor;
        shard_detail::SeqPayload p =
            shard_detail::decodeSeqPayload(payload, ckpt.resumeName);
        for (const shard_detail::SeqRecord &rec : p.records)
            shard_detail::encodeSeqRecord(records, rec);
        numRecords = static_cast<std::uint32_t>(p.records.size());
        p.records.clear();
        tail = std::move(p);
    } else {
        // Pruned classes never enter the batch plan; their exact
        // default verdict (Untestable, no alarms) is recorded up
        // front, so it is part of every snapshot.
        for (const std::size_t r : prunedMine)
            appendClass(r, SeqClassVerdict{});
    }
    tail.symbols = opts.symbols;
    tail.lanes = s.opts.lanes;
    tail.simd = sim::simdTargetName(s.groupSimd());
    tail.classes = static_cast<int>(numClasses);
    tail.prunedClasses = s.col.prunedClasses;
    tail.prunedFaults = s.col.prunedFaults;
    tail.batchedClasses = static_cast<int>(batchedClasses);
    tail.batches = static_cast<int>(plan.batches.size());

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(static_cast<std::uint64_t>(out.shardClasses));
    eng.progress().addFaultsDone(prunedMine.size());
    runCheckpointedShard(
        eng, ckpt, opts.cancel, id, classes,
        [&](engine::Chunk c) -> std::function<void()> {
            return [&, o = classifySeqBatchChunk(s, plan, c.begin, c.end,
                                                 eng.progress())] {
                tail.periodsSimulated += o.periodsSimulated;
                tail.periodsSkipped += o.periodsSkipped;
                tail.retiredEarly += o.retiredEarly;
                for (const auto &[rep, v] : o.verdicts)
                    appendClass(rep, v);
            };
        },
        records,
        [&](engine::ByteWriter &w) {
            shard_detail::encodeSeqPrefix(w, tail, numRecords);
        },
        out);

    out.shardFaults = static_cast<int>(numRecords);
    out.stats = eng.endCampaign(
        static_cast<std::uint64_t>(out.shardFaults),
        static_cast<std::uint64_t>(out.shardClasses),
        static_cast<std::uint64_t>(opts.symbols) *
            static_cast<std::uint64_t>(s.opts.lanes));
    return out;
}

} // namespace scal::fault
