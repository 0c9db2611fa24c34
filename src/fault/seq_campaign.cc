#include "fault/seq_campaign.hh"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "engine/campaign_engine.hh"
#include "fault/collapse.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "sim/flat.hh"
#include "sim/seq_batch_sim.hh"
#include "sim/seq_fault_sim.hh"
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
    int laneWords = 1;
    std::array<std::uint64_t, sim::kMaxLaneWords> laneMask{};
};

/** Per-representative verdict payload, merged deterministically. The
 *  per-lane first-alarm times are pre-bucketed here rather than
 *  carried as a lanes-long vector: at 512 lanes the flat vector is
 *  the dominant per-fault bookkeeping cost and the campaign result
 *  only ever consumes the aggregate. */
struct RepVerdict
{
    Outcome outcome = Outcome::Untestable;
    long firstAlarm = -1;
    long firstEscape = -1;
    std::array<std::uint64_t, kLatencyBuckets> latHist{};
    std::uint64_t alarmLanes = 0;
    std::uint64_t latSum = 0;
    long periodsSimulated = 0;
    long periodsSkipped = 0;
};

/** Alarm words of one symbol's two output-block rows (laneWords words
 *  per output, sim/wide.hh layout). */
void
alarmWords(const ResolvedSpec &rs, const std::uint64_t *p0,
           const std::uint64_t *p1, std::uint64_t *alarm)
{
    const int W = rs.laneWords;
    for (int w = 0; w < W; ++w)
        alarm[w] = 0;
    for (const int j : rs.altOutputs)
        for (int w = 0; w < W; ++w)
            alarm[w] |= ~(p0[j * W + w] ^ p1[j * W + w]);
    for (std::size_t c = 0; c + 1 < rs.codePairs.size(); c += 2) {
        const int p = rs.codePairs[c], q = rs.codePairs[c + 1];
        for (int w = 0; w < W; ++w) {
            alarm[w] |= ~(p0[p * W + w] ^ p0[q * W + w]);
            alarm[w] |= ~(p1[p * W + w] ^ p1[q * W + w]);
        }
    }
}

/**
 * Classify faults[begin, end) against the shared trace. Each call
 * owns its SeqFaultSimulator; everything it reads is immutable, so a
 * fault's verdict cannot depend on which chunk simulated it. The
 * packed kernel only reports periods whose outputs differ from the
 * trace; undelivered halves of a symbol are read from the trace
 * (bit-identical by the kernel's contract), and symbols with no
 * delivery at all contribute nothing — valid because the fault-free
 * machine is alarm-free (checked by runSequentialCampaign) and
 * trivially has no wrong data words.
 */
std::vector<RepVerdict>
classifySeqChunk(const sim::SeqGoodTrace &trace, const ResolvedSpec &rs,
                 const std::vector<Fault> &faults, std::size_t begin,
                 std::size_t end, const SeqCampaignOptions &opts,
                 engine::ProgressTracker &progress,
                 const std::uint8_t *pruned)
{
    sim::SeqFaultSimulator fsim(trace);
    const int no = trace.flat().numOutputs();
    const int W = rs.laneWords;
    const std::size_t row = static_cast<std::size_t>(no) * W;
    std::vector<std::uint64_t> buf0(row);
    const sim::detail::WideKernels &kernels = trace.kernels();
    const int npairs = static_cast<int>(rs.codePairs.size()) / 2;

    std::vector<RepVerdict> out(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        // Dominance-pruned class: the faulty machine is
        // trace-identical to the fault-free one (stuck value equals a
        // structural constant, or the line reaches no output), so the
        // default verdict — Untestable, no alarms — is exact.
        if (pruned && pruned[k])
            continue;
        SeqVerdictAccumulator acc(rs.laneMask.data(), W,
                                  opts.dropDetected);
        long pending = -1;
        bool have0 = false;

        // The phase-1 row can be folded straight from the sink's
        // buffer (the symbol completes inside the callback); only a
        // phase-0 row has to be stashed until its partner arrives.
        auto flush = [&](long s, const std::uint64_t *p1row) -> bool {
            const std::uint64_t *p0 =
                have0 ? buf0.data() : trace.outputs(2 * s);
            const std::uint64_t *p1 =
                p1row ? p1row : trace.outputs(2 * s + 1);
            std::uint64_t alarm[sim::kMaxLaneWords];
            std::uint64_t wrong[sim::kMaxLaneWords];
            kernels.seqAlarmWrong(
                p0, p1, trace.outputs(2 * s), rs.altOutputs.data(),
                static_cast<int>(rs.altOutputs.size()),
                rs.codePairs.data(), npairs, rs.dataOutputs.data(),
                static_cast<int>(rs.dataOutputs.size()), alarm, wrong);
            have0 = false;
            pending = -1;
            return acc.addSymbol(s, alarm, wrong);
        };

        fsim.runFault(
            faults[k],
            [&](long t, std::uint64_t, const std::uint64_t *outs) {
                const long s = t / 2;
                if (pending >= 0 && pending != s &&
                    !flush(pending, nullptr))
                    return false;
                pending = s;
                if (t & 1)
                    return flush(s, outs);
                std::copy(outs, outs + row, buf0.begin());
                have0 = true;
                return true;
            },
            opts.faultStart, opts.faultEnd);
        if (pending >= 0)
            flush(pending, nullptr); // trailing phase-0-only divergence

        RepVerdict &rv = out[k - begin];
        rv.outcome = acc.outcome();
        rv.firstAlarm = acc.firstAlarmPeriod();
        rv.firstEscape = acc.firstEscapePeriod();
        for (int l = 0; l < opts.lanes; ++l) {
            const long p = acc.laneFirstAlarm(l);
            if (p >= 0) {
                ++rv.latHist[latencyBucket(p)];
                ++rv.alarmLanes;
                rv.latSum += static_cast<std::uint64_t>(p);
            }
        }
        rv.periodsSimulated = fsim.periodsSimulated();
        rv.periodsSkipped = fsim.periodsSkipped();
        progress.addPatterns(
            static_cast<std::uint64_t>(fsim.periodsSimulated()));
        if (rv.outcome == Outcome::Unsafe)
            progress.addUnsafe(1);
    }
    progress.addFaultsDone(end - begin);
    return out;
}

/**
 * Validate the spec against the netlist and resolve its defaults plus
 * the packed lane mask. Shared by the inline campaign and the shard
 * runner so both see the identical checked universe.
 */
ResolvedSpec
resolveSeqSpec(const Netlist &net, const SeqCampaignSpec &spec,
               int lanes, std::vector<std::uint8_t> *hold)
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
    hold->assign(static_cast<std::size_t>(ni), 0);
    for (const int i : spec.holdInputs) {
        if (i < 0 || i >= ni)
            throw std::invalid_argument("hold input index out of range");
        (*hold)[static_cast<std::size_t>(i)] = 1;
    }
    return rs;
}

/**
 * The effective seqDominance knob: the sequential collapse rules
 * provably prune nothing on a verified self-dual hardened realization
 * (EXPERIMENTS E23 — the Yamamoto mux isolates every original line
 * behind φ-gated reconvergence), so skip the pass there unless forced.
 * Verdict-neutral: the rules are exact, only analysis time moves.
 */
bool
effectiveSeqDominance(const Netlist &net, const SeqCampaignOptions &opts)
{
    if (!opts.seqDominance)
        return false;
    if (opts.seqDominanceForce)
        return true;
    return !netlist::looksSelfDualHardened(net);
}

/** Fold expanded per-fault verdicts into the result. */
void
finalizeSeqResult(SeqCampaignResult &result,
                  const std::vector<const RepVerdict *> &verdictOf)
{
    std::uint64_t lat_sum = 0;
    for (std::size_t k = 0; k < result.faults.size(); ++k) {
        const RepVerdict &rv = *verdictOf[k];
        result.faults[k].outcome = rv.outcome;
        result.faults[k].firstAlarmPeriod = rv.firstAlarm;
        result.faults[k].firstEscapePeriod = rv.firstEscape;
        switch (rv.outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
        for (int b = 0; b < kLatencyBuckets; ++b)
            result.latencyHistogram[static_cast<std::size_t>(b)] +=
                rv.latHist[static_cast<std::size_t>(b)];
        result.alarmLaneCount += rv.alarmLanes;
        lat_sum += rv.latSum;
    }
    if (result.alarmLaneCount)
        result.meanAlarmPeriod =
            static_cast<double>(lat_sum) /
            static_cast<double>(result.alarmLaneCount);
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

/**
 * Cached cross-call state of the lane-batched path. Everything up to
 * the batch plan is a pure function of (netlist content, config minus
 * symbols) — the key — and the trace only ever grows, so a key hit
 * with more symbols extends in place. The snapshot LRU is the hot-
 * state memo: per batch, the replay position + faulty flip-flop state
 * + verdict accumulators at the last stream end.
 */
struct SeqCampaignContext::Impl
{
    std::mutex m; ///< guards the snapshot LRU (workers race on it)
    std::string key;
    std::unique_ptr<netlist::Netlist> net; ///< owns what flat refs
    std::unique_ptr<sim::FlatNetlist> flat;
    std::unique_ptr<sim::SeqGoodTrace> trace; ///< full kernel width
    long builtSymbols = 0;
    CollapseResult col;
    std::vector<sim::SeqFaultSite> sites; ///< per unpruned class
    std::vector<int> siteRep;             ///< site index -> rep index
    sim::SeqBatchPlan plan;

    struct Snap
    {
        sim::SeqFaultBatchSimulator::BatchState st;
        std::vector<SeqVerdictAccumulator> accs;
        std::size_t bytes = 0;
        std::uint64_t lastUse = 0;
    };
    std::unordered_map<int, Snap> snaps; ///< batch index -> snapshot
    std::size_t snapBytes = 0;
    std::uint64_t useClock = 0;
    long hits = 0, misses = 0;
    static constexpr std::size_t kCapBytes = std::size_t{64} << 20;
};

SeqCampaignContext::SeqCampaignContext() : impl(new Impl) {}
SeqCampaignContext::~SeqCampaignContext() = default;

long
SeqCampaignContext::memoHits() const
{
    return impl->hits;
}

long
SeqCampaignContext::memoMisses() const
{
    return impl->misses;
}

namespace
{

/** Per-chunk result of the lane-batched classifier. */
struct BatchChunkOut
{
    std::vector<std::pair<int, RepVerdict>> verdicts; ///< by rep index
    long periodsSimulated = 0;
    long periodsSkipped = 0;
    long retiredEarly = 0;
    long hits = 0, misses = 0;
};

std::size_t
snapshotBytes(const SeqCampaignContext::Impl::Snap &s)
{
    return s.st.faultyState.size() * 8 + s.st.buf0.size() * 8 +
           s.st.retired.size() + s.st.diverged.size() * 4 +
           s.accs.size() * sizeof(SeqVerdictAccumulator) + 64;
}

/**
 * Replay plan batches [begin, end). Mirrors classifySeqChunk: each
 * call owns its simulator, reads only immutable shared state (plus
 * the mutex-guarded snapshot memo, whose hits and misses produce
 * bit-identical verdicts), and folds through the same accumulator.
 */
BatchChunkOut
classifySeqBatchChunk(SeqCampaignContext::Impl &cx,
                      const ResolvedSpec &rs, std::size_t begin,
                      std::size_t end, const SeqCampaignOptions &opts,
                      engine::ProgressTracker &progress, bool memo)
{
    BatchChunkOut out;
    const int Wg = rs.laneWords;
    sim::SeqFaultBatchSimulator bsim(*cx.trace, Wg);
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

    for (std::size_t b = begin; b < end; ++b) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        const std::vector<int> &members = cx.plan.batches[b];
        const int nf = static_cast<int>(members.size());
        for (int i = 0; i < nf; ++i)
            bs[static_cast<std::size_t>(i)] =
                cx.sites[static_cast<std::size_t>(members[i])];
        accs.clear();
        for (int i = 0; i < nf; ++i)
            accs.emplace_back(rs.laneMask.data(), Wg,
                              opts.dropDetected);

        bsim.beginBatch(bs.data(), nf, opts.faultStart, opts.faultEnd);
        bool restored = false;
        if (memo) {
            std::lock_guard<std::mutex> lk(cx.m);
            const auto it = cx.snaps.find(static_cast<int>(b));
            if (it != cx.snaps.end() &&
                it->second.st.t <= 2 * opts.symbols) {
                bsim.restoreState(it->second.st);
                accs = it->second.accs;
                it->second.lastUse = ++cx.useClock;
                restored = true;
            }
            (restored ? out.hits : out.misses) += 1;
        }

        const long ps0 = bsim.periodsSimulated();
        const long sk0 = bsim.periodsSkipped();
        const auto sink = [&accs](int f, long s,
                                  const std::uint64_t *alarm,
                                  const std::uint64_t *wrong) {
            return accs[static_cast<std::size_t>(f)].addSymbol(s, alarm,
                                                               wrong);
        };
        bsim.run(fold, sink);

        if (memo) {
            // Snapshot before the trailing flush: the stash must be
            // re-deliverable when the stream is extended later.
            SeqCampaignContext::Impl::Snap snap;
            bsim.saveState(&snap.st);
            snap.accs = accs;
            snap.bytes = snapshotBytes(snap);
            std::lock_guard<std::mutex> lk(cx.m);
            if (snap.bytes <= SeqCampaignContext::Impl::kCapBytes) {
                const auto old = cx.snaps.find(static_cast<int>(b));
                if (old != cx.snaps.end()) {
                    cx.snapBytes -= old->second.bytes;
                    cx.snaps.erase(old);
                }
                while (cx.snapBytes + snap.bytes >
                           SeqCampaignContext::Impl::kCapBytes &&
                       !cx.snaps.empty()) {
                    auto lru = cx.snaps.begin();
                    for (auto it = cx.snaps.begin();
                         it != cx.snaps.end(); ++it)
                        if (it->second.lastUse < lru->second.lastUse)
                            lru = it;
                    cx.snapBytes -= lru->second.bytes;
                    cx.snaps.erase(lru);
                }
                snap.lastUse = ++cx.useClock;
                cx.snapBytes += snap.bytes;
                cx.snaps.emplace(static_cast<int>(b),
                                 std::move(snap));
            }
        }
        bsim.flushPending(fold, sink);

        out.periodsSimulated += bsim.periodsSimulated() - ps0;
        out.periodsSkipped += bsim.periodsSkipped() - sk0;
        for (int i = 0; i < nf; ++i) {
            if (bsim.retired(i) &&
                bs[static_cast<std::size_t>(i)].kind !=
                    sim::SeqFaultSite::Kind::Inert)
                ++out.retiredEarly;
        }

        for (int i = 0; i < nf; ++i) {
            const SeqVerdictAccumulator &acc =
                accs[static_cast<std::size_t>(i)];
            RepVerdict rv;
            rv.outcome = acc.outcome();
            rv.firstAlarm = acc.firstAlarmPeriod();
            rv.firstEscape = acc.firstEscapePeriod();
            for (int l = 0; l < opts.lanes; ++l) {
                const long p = acc.laneFirstAlarm(l);
                if (p >= 0) {
                    ++rv.latHist[latencyBucket(p)];
                    ++rv.alarmLanes;
                    rv.latSum += static_cast<std::uint64_t>(p);
                }
            }
            if (rv.outcome == Outcome::Unsafe)
                progress.addUnsafe(1);
            out.verdicts.emplace_back(
                cx.siteRep[static_cast<std::size_t>(members[i])],
                std::move(rv));
        }
        progress.addPatterns(
            static_cast<std::uint64_t>(bsim.periodsSimulated() - ps0));
        progress.addFaultsDone(static_cast<std::size_t>(nf));
    }
    return out;
}

/**
 * The lane-batched campaign body: one full-width trace with the input
 * stream replicated into every lane group, faults collapsed (with the
 * sequential rules when enabled) and packed into conflict-free lane
 * batches, batches sharded by replay weight across the engine.
 */
SeqCampaignResult
runSeqBatchCampaign(const Netlist &net, const SeqCampaignSpec &spec,
                    const ResolvedSpec &rs,
                    const std::vector<std::uint8_t> &hold,
                    const SeqCampaignOptions &opts, sim::SimdTarget simd,
                    SeqCampaignContext *ctx)
{
    const int Wg = rs.laneWords;
    const int Wb = sim::kMaxLaneWords;
    const int ni = net.numInputs();
    const long total = 2 * opts.symbols;
    const bool fullWindow =
        opts.faultStart <= 0 && opts.faultEnd >= total;

    CollapseOptions colOpts;
    colOpts.constRefine = opts.dominance;
    colOpts.dominance = opts.dominance;
    colOpts.seq = opts.seqDominance;
    colOpts.seqTimeFrame = opts.seqDominance && fullWindow;

    SeqCampaignContext local;
    SeqCampaignContext::Impl &cx = *(ctx ? ctx : &local)->impl;
    const bool memo = ctx != nullptr;

    // Everything cached under the key is symbol-count-independent;
    // shrinking the stream invalidates the grown trace, so a shorter
    // re-run rebuilds from scratch.
    std::ostringstream ks;
    ks << netlist::contentHash(net) << ";lanes=" << opts.lanes
       << ";seed=" << opts.seed
       << ";simd=" << sim::simdTargetName(simd)
       << ";window=" << opts.faultStart << ":" << opts.faultEnd
       << ";drop=" << (opts.dropDetected ? 1 : 0)
       << ";dom=" << (opts.dominance ? 1 : 0)
       << ";seqdom=" << (opts.seqDominance ? 1 : 0)
       << ";seqtf=" << (colOpts.seqTimeFrame ? 1 : 0)
       << ";phi=" << spec.phiInput << ";hold=";
    for (const int i : spec.holdInputs)
        ks << i << ",";
    ks << ";data=";
    for (const int j : rs.dataOutputs)
        ks << j << ",";
    ks << ";alt=";
    for (const int j : rs.altOutputs)
        ks << j << ",";
    ks << ";pairs=";
    for (const int j : rs.codePairs)
        ks << j << ",";
    const std::string key = ks.str();

    if (cx.key != key || opts.symbols < cx.builtSymbols) {
        cx.key = key;
        cx.net.reset(new Netlist(net));
        cx.flat.reset(new sim::FlatNetlist(*cx.net));
        cx.trace.reset(
            new sim::SeqGoodTrace(*cx.flat, spec.phiInput, Wb, simd));
        cx.builtSymbols = 0;
        cx.col = collapseFaults(*cx.net, colOpts);
        cx.sites.clear();
        cx.siteRep.clear();
        for (std::size_t r = 0; r < cx.col.representatives.size();
             ++r) {
            if (!cx.col.pruned.empty() && cx.col.pruned[r])
                continue;
            cx.sites.push_back(sim::decodeSeqFaultSite(
                *cx.flat, cx.col.representatives[r]));
            cx.siteRep.push_back(static_cast<int>(r));
        }
        cx.plan = sim::planSeqBatches(*cx.flat, cx.sites, Wg, Wb);
        cx.snaps.clear();
        cx.snapBytes = 0;
    }

    // Extend the trace to the requested stream length; the per-symbol
    // Rng draw order makes the words a prefix-stable function of the
    // seed, so appending periods preserves every existing row.
    if (cx.builtSymbols < opts.symbols) {
        const auto words = buildSymbolWords(ni, spec.phiInput,
                                            opts.symbols, opts.seed, Wg);
        cx.trace->reservePeriods(total);
        std::vector<std::uint64_t> inw(
            static_cast<std::size_t>(ni) * Wb);
        std::vector<std::uint64_t> inbarw(
            static_cast<std::size_t>(ni) * Wb);
        for (long s = cx.builtSymbols; s < opts.symbols; ++s) {
            for (int i = 0; i < ni; ++i)
                for (int w = 0; w < Wb; ++w) {
                    const std::uint64_t v =
                        words[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(i) * Wg +
                              (w % Wg)];
                    const std::size_t idx =
                        static_cast<std::size_t>(i) * Wb + w;
                    inw[idx] = v;
                    inbarw[idx] = (i == spec.phiInput || hold[i])
                                      ? v
                                      : ~v;
                }
            cx.trace->stepPeriod(inw.data());
            cx.trace->stepPeriod(inbarw.data());
        }
        cx.builtSymbols = opts.symbols;
    }

    // Alarm-free precondition at full width, lane mask replicated
    // into every group (same contract as the narrow path).
    ResolvedSpec rsw = rs;
    rsw.laneWords = Wb;
    for (int w = 0; w < Wb; ++w)
        rsw.laneMask[static_cast<std::size_t>(w)] =
            rs.laneMask[static_cast<std::size_t>(w % Wg)];
    std::uint64_t alarm[sim::kMaxLaneWords];
    for (long s = 0; s < opts.symbols; ++s) {
        alarmWords(rsw, cx.trace->outputs(2 * s),
                   cx.trace->outputs(2 * s + 1), alarm);
        for (int w = 0; w < Wb; ++w) {
            if (alarm[w] & rsw.laneMask[static_cast<std::size_t>(w)]) {
                throw std::invalid_argument(
                    "fault-free machine raises an alarm: not an "
                    "alternating (SCAL) machine under this spec");
            }
        }
    }

    const std::vector<Fault> faults = net.allFaults();
    SeqCampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];
    result.symbols = opts.symbols;
    result.lanes = opts.lanes;
    // Report the kernel build the narrow path would run at this lane
    // width, not the full-width build — the deterministic verdict
    // block (and the server cache key derived from it) must not move
    // with the batching knob.
    result.simd = sim::wideKernels(Wg, simd).target;
    result.prunedClasses = cx.col.prunedClasses;
    result.prunedFaults = cx.col.prunedFaults;
    result.faultBatch = true;
    result.classes = static_cast<int>(cx.col.representatives.size());
    result.batchedClasses = static_cast<int>(cx.sites.size());
    result.batches = static_cast<int>(cx.plan.batches.size());

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(cx.col.representatives.size());

    const auto chunkOuts = eng.mapWeightedChunks<BatchChunkOut>(
        cx.plan.weights, [&](engine::Chunk chunk, std::size_t) {
            return classifySeqBatchChunk(cx, rs, chunk.begin, chunk.end,
                                         opts, eng.progress(), memo);
        });

    // Pruned classes keep the default (Untestable, no alarms)
    // verdict; batched classes overwrite theirs by rep index.
    std::vector<RepVerdict> repVerdicts(cx.col.representatives.size());
    for (const BatchChunkOut &o : chunkOuts) {
        for (const auto &[rep, rv] : o.verdicts)
            repVerdicts[static_cast<std::size_t>(rep)] = rv;
        result.periodsSimulated += o.periodsSimulated;
        result.periodsSkipped += o.periodsSkipped;
        result.retiredEarly += o.retiredEarly;
        result.memoHits += o.hits;
        result.memoMisses += o.misses;
    }
    cx.hits += result.memoHits;
    cx.misses += result.memoMisses;

    std::vector<const RepVerdict *> verdictOf(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        verdictOf[k] = &repVerdicts[static_cast<std::size_t>(
            cx.col.classOf[k])];
    finalizeSeqResult(result, verdictOf);

    result.stats = eng.endCampaign(
        faults.size(),
        static_cast<std::uint64_t>(cx.col.simulatedClasses()),
        static_cast<std::uint64_t>(opts.symbols) *
            static_cast<std::uint64_t>(opts.lanes));
    return result;
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

SeqCampaignResult
runSequentialCampaign(const Netlist &net, const SeqCampaignSpec &spec,
                      const SeqCampaignOptions &opts,
                      SeqCampaignContext *ctx)
{
    if (opts.symbols < 1)
        throw std::invalid_argument("need at least one symbol");

    // Resolve the packed width and kernel build once, up front, so
    // every worker runs the same configuration.
    const sim::SimdTarget simd = sim::resolveSimdTarget(opts.simd);
    const int lanes = resolveSeqLanes(opts);
    const int W = sim::laneWordsForLanes(lanes);
    SeqCampaignOptions ropts = opts;
    ropts.lanes = lanes;
    ropts.seqDominance = effectiveSeqDominance(net, opts);

    const int ni = net.numInputs();
    const sim::FlatNetlist flat(net);

    std::vector<std::uint8_t> hold;
    const ResolvedSpec rs = resolveSeqSpec(net, spec, lanes, &hold);

    // Lane-multiplexed path: when the requested width leaves groups
    // free in the widest kernel block, carry several faults per
    // replay. At 512 lanes one fault already fills the block, so the
    // per-fault path below is the batch path.
    if (opts.faultBatch && W < sim::kMaxLaneWords)
        return runSeqBatchCampaign(net, spec, rs, hold, ropts, simd,
                                   ctx);

    // Serial pre-pass: the per-symbol input words and the fault-free
    // trace, built exactly once and shared read-only by all workers.
    const auto words = buildSymbolWords(ni, spec.phiInput, opts.symbols,
                                        opts.seed, W);
    sim::SeqGoodTrace trace(flat, spec.phiInput, W, simd);
    trace.reservePeriods(2 * opts.symbols);
    std::vector<std::uint64_t> inbar(static_cast<std::size_t>(ni) * W);
    for (long s = 0; s < opts.symbols; ++s) {
        trace.stepPeriod(words[s].data());
        for (int i = 0; i < ni; ++i)
            for (int w = 0; w < W; ++w) {
                const std::size_t idx =
                    static_cast<std::size_t>(i) * W + w;
                inbar[idx] = (i == spec.phiInput || hold[i])
                                 ? words[s][idx]
                                 : ~words[s][idx];
            }
        trace.stepPeriod(inbar.data());
    }

    // Precondition for skipping symbols the fault never touches: the
    // fault-free machine must be alarm-free on every symbol.
    std::uint64_t alarm[sim::kMaxLaneWords];
    for (long s = 0; s < opts.symbols; ++s) {
        alarmWords(rs, trace.outputs(2 * s), trace.outputs(2 * s + 1),
                   alarm);
        for (int w = 0; w < W; ++w) {
            if (alarm[w] & rs.laneMask[static_cast<std::size_t>(w)]) {
                throw std::invalid_argument(
                    "fault-free machine raises an alarm: not an "
                    "alternating (SCAL) machine under this spec");
            }
        }
    }

    const std::vector<Fault> faults = net.allFaults();
    SeqCampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];
    result.symbols = opts.symbols;
    result.lanes = lanes;
    result.simd = trace.simdTarget();

    const std::uint64_t lane_symbols =
        static_cast<std::uint64_t>(opts.symbols) *
        static_cast<std::uint64_t>(lanes);

    // Per-fault route: collapse, shard the representatives, merge in
    // chunk order, expand class verdicts over allFaults() order. The
    // collapsing equivalences are all same-line-function equivalences
    // (Dffs collapse nothing), so they hold per period and therefore
    // over any sequence — including the const-refined chains, whose
    // constant propagation treats Dff outputs as free variables.
    CollapseOptions colOpts;
    colOpts.constRefine = opts.dominance;
    colOpts.dominance = opts.dominance;
    colOpts.seq = ropts.seqDominance;
    colOpts.seqTimeFrame = ropts.seqDominance && opts.faultStart <= 0 &&
                           opts.faultEnd >= 2 * opts.symbols;
    const CollapseResult col = collapseFaults(net, colOpts);
    result.classes = static_cast<int>(col.representatives.size());
    result.prunedClasses = col.prunedClasses;
    result.prunedFaults = col.prunedFaults;
    const std::uint8_t *pruned =
        col.pruned.empty() ? nullptr : col.pruned.data();

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(col.representatives.size());

    auto chunkVerdicts = eng.mapChunks<std::vector<RepVerdict>>(
        col.representatives.size(),
        [&](engine::Chunk chunk, std::size_t) {
            return classifySeqChunk(trace, rs, col.representatives,
                                    chunk.begin, chunk.end, ropts,
                                    eng.progress(), pruned);
        });

    std::vector<const RepVerdict *> repVerdict;
    repVerdict.reserve(col.representatives.size());
    for (const auto &chunk : chunkVerdicts) {
        for (const RepVerdict &v : chunk) {
            repVerdict.push_back(&v);
            result.periodsSimulated += v.periodsSimulated;
            result.periodsSkipped += v.periodsSkipped;
        }
    }
    std::vector<const RepVerdict *> verdictOf(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        verdictOf[k] = repVerdict[col.classOf[k]];
    finalizeSeqResult(result, verdictOf);

    result.stats = eng.endCampaign(
        faults.size(),
        static_cast<std::uint64_t>(col.simulatedClasses()),
        lane_symbols);
    return result;
}

ShardOutcome
runSequentialCampaignShard(const Netlist &net,
                           const SeqCampaignSpec &spec,
                           const SeqCampaignOptions &opts,
                           const engine::ShardSpec &shard,
                           const CheckpointOptions &ckpt)
{
    if (opts.symbols < 1)
        throw std::invalid_argument("need at least one symbol");

    const sim::SimdTarget simd = sim::resolveSimdTarget(opts.simd);
    const int lanes = resolveSeqLanes(opts);
    const int W = sim::laneWordsForLanes(lanes);
    SeqCampaignOptions ropts = opts;
    ropts.lanes = lanes;
    ropts.seqDominance = effectiveSeqDominance(net, opts);

    const int ni = net.numInputs();
    std::vector<std::uint8_t> hold;
    const ResolvedSpec rs = resolveSeqSpec(net, spec, lanes, &hold);

    // The shard universe is the collapsed class space under the
    // effective knobs — a pure function of (netlist, config), so every
    // process derives the same contiguous split. Both sub-paths below
    // re-pack only their slice; verdicts are batch-composition-
    // independent (the PR 8 equivalence contract), which is what
    // licenses per-shard re-planning.
    const long total = 2 * opts.symbols;
    const bool fullWindow =
        opts.faultStart <= 0 && opts.faultEnd >= total;
    CollapseOptions colOpts;
    colOpts.constRefine = ropts.dominance;
    colOpts.dominance = ropts.dominance;
    colOpts.seq = ropts.seqDominance;
    colOpts.seqTimeFrame = ropts.seqDominance && fullWindow;
    const CollapseResult col = collapseFaults(net, colOpts);
    const std::size_t numClasses = col.representatives.size();

    // The class slice is cost-weighted — computed below once the
    // path's FlatNetlist exists.
    std::size_t c0 = 0;
    std::size_t c1 = numClasses;

    const bool batchPath = opts.faultBatch && W < sim::kMaxLaneWords;

    // The run's identity: what a resume snapshot must match, and the
    // header every snapshot of this run carries (units is set below,
    // once the route has sliced its work).
    engine::SnapshotHeader id;
    id.kind = "seq";
    id.netHash = netlist::contentHash(net);
    id.configKey = canonicalSeqCampaignConfig(opts, spec);
    std::ostringstream sk;
    sk << "seq;fb=" << (batchPath ? 1 : 0)
       << ";dom=" << (ropts.dominance ? 1 : 0)
       << ";seqdom=" << (ropts.seqDominance ? 1 : 0)
       << ";seqtf=" << (colOpts.seqTimeFrame ? 1 : 0)
       << ";lanes=" << lanes;
    id.shapeKey = sk.str();
    id.shard = shard;

    const std::vector<Fault> faults = net.allFaults();
    std::vector<std::vector<std::uint32_t>> classFaults(numClasses);
    for (std::size_t k = 0; k < faults.size(); ++k)
        classFaults[static_cast<std::size_t>(col.classOf[k])].push_back(
            static_cast<std::uint32_t>(k));

    ShardOutcome out;

    // Cost-weighted class slicing: each unpruned class weighs its
    // representative's replay-cost estimate (sim::seqSiteCosts),
    // pruned classes only their records, so shards own ~equal
    // simulation work instead of equal class counts — equal counts
    // leave the fleet's critical path hostage to wherever the big
    // replay cones cluster. A pure function of (netlist, effective
    // knobs): every process derives the identical split. The same
    // weights balance the per-fault route's chunks.
    std::vector<std::uint64_t> classWeights;
    const auto applySlice = [&](const sim::FlatNetlist &f) {
        std::vector<sim::SeqFaultSite> sites;
        std::vector<std::size_t> live;
        sites.reserve(numClasses);
        live.reserve(numClasses);
        for (std::size_t r = 0; r < numClasses; ++r) {
            if (!col.pruned.empty() && col.pruned[r])
                continue;
            sites.push_back(
                sim::decodeSeqFaultSite(f, col.representatives[r]));
            live.push_back(r);
        }
        const std::vector<std::uint64_t> costs =
            sim::seqSiteCosts(f, sites);
        classWeights.assign(numClasses, 1);
        for (std::size_t i = 0; i < live.size(); ++i)
            classWeights[live[i]] = costs[i];
        const engine::Chunk slice =
            engine::shardSliceWeighted(classWeights, shard);
        c0 = slice.begin;
        c1 = slice.end;
    };

    // Shard-local context for the lane-batched route: the full-width
    // trace plus a batch plan over only this shard's unpruned classes.
    SeqCampaignContext local;
    SeqCampaignContext::Impl &cx = *local.impl;
    const int Wb = sim::kMaxLaneWords;
    std::unique_ptr<sim::FlatNetlist> flat;
    std::unique_ptr<sim::SeqGoodTrace> narrowTrace;
    if (batchPath) {
        cx.net.reset(new Netlist(net));
        cx.flat.reset(new sim::FlatNetlist(*cx.net));
        cx.trace.reset(
            new sim::SeqGoodTrace(*cx.flat, spec.phiInput, Wb, simd));
        applySlice(*cx.flat);
        for (std::size_t r = c0; r < c1; ++r) {
            if (!col.pruned.empty() && col.pruned[r])
                continue;
            cx.sites.push_back(sim::decodeSeqFaultSite(
                *cx.flat, col.representatives[r]));
            cx.siteRep.push_back(static_cast<int>(r));
        }
        cx.plan = sim::planSeqBatches(*cx.flat, cx.sites, W, Wb);
        out.units = cx.plan.batches.size();
    } else {
        flat.reset(new sim::FlatNetlist(net));
        narrowTrace.reset(
            new sim::SeqGoodTrace(*flat, spec.phiInput, W, simd));
        applySlice(*flat);
        out.units = c1 - c0;
    }
    out.shardClasses = static_cast<int>(c1 - c0);
    id.units = out.units;

    // Build the fault-free trace (full width replicates every lane
    // group, same loop as the inline batch path) and check the
    // alarm-free precondition on this spec.
    {
        sim::SeqGoodTrace &trace = batchPath ? *cx.trace : *narrowTrace;
        const int Wt = batchPath ? Wb : W;
        const auto words = buildSymbolWords(ni, spec.phiInput,
                                            opts.symbols, opts.seed, W);
        trace.reservePeriods(total);
        std::vector<std::uint64_t> inw(
            static_cast<std::size_t>(ni) * Wt);
        std::vector<std::uint64_t> inbarw(
            static_cast<std::size_t>(ni) * Wt);
        for (long s = 0; s < opts.symbols; ++s) {
            for (int i = 0; i < ni; ++i)
                for (int w = 0; w < Wt; ++w) {
                    const std::uint64_t v =
                        words[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(i) * W + (w % W)];
                    const std::size_t idx =
                        static_cast<std::size_t>(i) * Wt + w;
                    inw[idx] = v;
                    inbarw[idx] = (i == spec.phiInput ||
                                   hold[static_cast<std::size_t>(i)])
                                      ? v
                                      : ~v;
                }
            trace.stepPeriod(inw.data());
            trace.stepPeriod(inbarw.data());
        }

        ResolvedSpec rst = rs;
        rst.laneWords = Wt;
        for (int w = 0; w < Wt; ++w)
            rst.laneMask[static_cast<std::size_t>(w)] =
                rs.laneMask[static_cast<std::size_t>(w % W)];
        std::uint64_t alarm[sim::kMaxLaneWords];
        for (long s = 0; s < opts.symbols; ++s) {
            alarmWords(rst, trace.outputs(2 * s),
                       trace.outputs(2 * s + 1), alarm);
            for (int w = 0; w < Wt; ++w) {
                if (alarm[w] &
                    rst.laneMask[static_cast<std::size_t>(w)]) {
                    throw std::invalid_argument(
                        "fault-free machine raises an alarm: not an "
                        "alternating (SCAL) machine under this spec");
                }
            }
        }
    }

    // Per-fault records, each encoded once when its chunk commits, and
    // the payload prefix with the running non-deterministic counters.
    engine::ByteWriter records;
    std::uint32_t numRecords = 0;
    shard_detail::SeqPayload tail;

    auto appendRep = [&](std::size_t rep, const RepVerdict &rv) {
        shard_detail::SeqRecord rec;
        rec.outcome = static_cast<std::uint8_t>(rv.outcome);
        rec.firstAlarm = rv.firstAlarm;
        rec.firstEscape = rv.firstEscape;
        rec.alarmLanes = rv.alarmLanes;
        rec.latSum = rv.latSum;
        rec.latHist = rv.latHist;
        for (const std::uint32_t k : classFaults[rep]) {
            rec.faultIndex = k;
            shard_detail::encodeSeqRecord(records, rec);
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
    } else if (batchPath) {
        // Pruned classes never enter the batch plan; their exact
        // default verdict (Untestable, no alarms) is recorded up
        // front, so it is part of every snapshot.
        for (std::size_t r = c0; r < c1; ++r)
            if (!col.pruned.empty() && col.pruned[r])
                appendRep(r, RepVerdict{});
    }
    tail.symbols = opts.symbols;
    tail.lanes = lanes;
    tail.simd = sim::simdTargetName(
        batchPath ? sim::wideKernels(W, simd).target
                  : narrowTrace->simdTarget());
    tail.classes = static_cast<int>(numClasses);
    tail.prunedClasses = col.prunedClasses;
    tail.prunedFaults = col.prunedFaults;
    tail.batchedClasses = batchPath ? static_cast<int>(cx.sites.size()) : 0;
    tail.batches = batchPath ? static_cast<int>(cx.plan.batches.size()) : 0;
    tail.faultBatch = batchPath;

    // Unit = one batch of the plan (covering its member classes) or,
    // on the per-fault route, one representative class of the slice.
    std::vector<std::uint64_t> weights, classes;
    if (batchPath) {
        weights = cx.plan.weights;
        for (const std::vector<int> &b : cx.plan.batches)
            classes.push_back(b.size());
    } else {
        weights.assign(classWeights.begin() + static_cast<long>(c0),
                       classWeights.begin() + static_cast<long>(c1));
        classes.assign(c1 - c0, 1);
    }
    const std::uint8_t *pruned =
        col.pruned.empty() ? nullptr : col.pruned.data();

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(static_cast<std::uint64_t>(out.shardClasses));
    runCheckpointedShard(
        eng, ckpt, opts.cancel, id, weights, classes,
        [&](engine::Chunk c) -> std::function<void()> {
            if (batchPath)
                return [&, o = classifySeqBatchChunk(cx, rs, c.begin, c.end,
                                                     ropts, eng.progress(),
                                                     false)] {
                    tail.periodsSimulated += o.periodsSimulated;
                    tail.periodsSkipped += o.periodsSkipped;
                    tail.retiredEarly += o.retiredEarly;
                    for (const auto &[rep, rv] : o.verdicts)
                        appendRep(static_cast<std::size_t>(rep), rv);
                };
            return [&, r0 = c0 + c.begin,
                    verdicts = classifySeqChunk(
                        *narrowTrace, rs, col.representatives,
                        c0 + c.begin, c0 + c.end, ropts, eng.progress(),
                        pruned)] {
                std::size_t r = r0;
                for (const RepVerdict &rv : verdicts) {
                    tail.periodsSimulated += rv.periodsSimulated;
                    tail.periodsSkipped += rv.periodsSkipped;
                    appendRep(r++, rv);
                }
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
            static_cast<std::uint64_t>(lanes));
    return out;
}

} // namespace scal::fault
