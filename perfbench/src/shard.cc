/**
 * @file
 * shard_resume: hardened s1488-class (64 symbols) split into 4
 * cost-weighted slices with runSequentialCampaignShard, run one after
 * another with an in-memory auto-cadence checkpoint sink; one slice
 * (chosen by the seed) is then resumed from its middle snapshot, and
 * the partials — the resumed one in place of its original — are
 * merged with mergeSeqCampaignPartials. The merged verdict must hash
 * to the same golden digest as seq_pipeline's s1488-class verdict.
 */

#include <algorithm>

#include "fault/report.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "seq_probe.hh"
#include "stats.hh"
#include "workload.hh"

using namespace scal;

namespace perfbench
{

namespace
{

using trace::Span;

constexpr int kShards = 4;

class ShardResume : public Workload
{
  public:
    ShardResume(const RunConfig &cfg, const Golden &golden, Outcome &out)
        : cfg_(cfg), golden_(golden), out_(out),
          path_(cfg.root + "/circuits/" + kShardCircuit),
          // Same salt as seq_pipeline's s1488-class, so both workloads
          // campaign the same seed and share one golden entry.
          seed_(campaignSeed(cfg.seed, 100 + seqCircuits().size() - 1)),
          resumeSlice_(static_cast<int>(mix64(cfg.seed ^ 0x5eed) % kShards))
    {
    }

    void
    setUp() override
    {
        const auto hard =
            ingest::hardenNetlist(ingest::importCircuit(path_).net);
        // Warm-up: one short slice through the checkpointing runner.
        fault::CheckpointOptions ckpt;
        ckpt.every = -1;
        ckpt.sink = [](const std::vector<std::uint8_t> &, bool) {};
        fault::runSequentialCampaignShard(hard.net, hard.campaignSpec(),
                                          seqOptions(8, seed_, cfg_.threads),
                                          {0, kShards}, ckpt);
    }

    void
    pass(trace::Recorder *rec) override
    {
        out_.attempt();
        try {
            runPass(rec);
        } catch (const std::exception &e) {
            out_.fail(std::string("shard pass: ") + e.what());
        }
    }

    double workPerPass() const override { return work_; }
    int parallelism() const override { return cfg_.threads; }

    void
    probe(trace::Recorder &rec) override
    {
        const auto hard =
            ingest::hardenNetlist(ingest::importCircuit(path_).net);
        const auto opts = seqOptions(kSeqSymbols, seed_, cfg_.threads);
        for (int round = 0; round < kProbeRounds; ++round) {
            Span item(&rec, "probe:" + stem(path_), trace::kBench);
            probeSeqLayers(rec, hard, opts);
            Span s(&rec, "fault.seq_campaign", "fault");
            fault::runSequentialCampaign(hard.net, hard.campaignSpec(), opts);
        }
    }

    void
    finish(const std::vector<double> &, const trace::Recorder *rec,
           Report &r) override
    {
        r.endToEnd.push_back({"critical_path_s", median(critical_), "s"});
        if (!rec)
            return;
        const PassTotals t = rec->passTotals();
        const auto probes = rec->probeTotals();
        auto probe = [&](const char *name) {
            const auto it = probes.find(name);
            return it == probes.end() ? 0 : it->second / kProbeRounds;
        };
        const double sliceMax = medianTotal(t, "fault.shard.slice_max");
        const double sliceSum = medianTotal(t, "fault.shard.slice_sum");
        const double inline_ = probe("fault.seq_campaign");
        auto &L = r.layers;
        L.push_back({"ingest.parse_s", medianTotal(t, "ingest.parse"), "s"});
        L.push_back({"ingest.harden_s", medianTotal(t, "ingest.harden"), "s"});
        L.push_back({"sim.flat_compile_s", probe("sim.flat_compile"), "s"});
        L.push_back({"sim.seq_trace_s", probe("sim.seq_trace"), "s"});
        L.push_back({"fault.collapse_s", probe("fault.collapse"), "s"});
        L.push_back({"fault.engine_s", medianTotal(t, "fault.shard.engine"), "s"});
        L.push_back({"fault.fixed_s",
                     medianDiff(t, "fault.shard.calls", "fault.shard.engine"),
                     "s"});
        L.push_back({"fault.report.encode_s",
                     medianTotal(t, "fault.report.encode"), "s"});
        L.push_back({"fault.classes", medianTotal(t, "fault.shard.classes"),
                     "count"});
        L.push_back({"fault.shard.slice_max_s", sliceMax, "s"});
        L.push_back({"fault.shard.slice_sum_s", sliceSum, "s"});
        L.push_back({"fault.shard.balance",
                     sliceMax > 0 ? sliceSum / sliceMax : 0, "ratio"});
        L.push_back({"fault.shard.creep",
                     inline_ > 0 ? sliceSum / inline_ : 0, "ratio"});
        L.push_back({"fault.shard.merge_s", medianTotal(t, "fault.shard.merge"),
                     "s"});
        L.push_back({"fault.shard.resume_s",
                     medianTotal(t, "fault.shard.resume"), "s"});
        L.push_back({"fault.shard.resumed_units",
                     medianTotal(t, "fault.shard.resumed_units"), "count"});
        L.push_back({"engine.checkpoint.snapshots",
                     medianTotal(t, "engine.checkpoint.snapshots"), "count"});
        L.push_back({"engine.checkpoint.bytes",
                     medianTotal(t, "engine.checkpoint.bytes"), "count"});
    }

  private:
    static constexpr int kProbeRounds = 2;

    void
    runPass(trace::Recorder *rec)
    {
        ingest::ImportedCircuit circ;
        ingest::HardenedCircuit hard;
        {
            Span s(rec, "ingest.parse", "ingest");
            circ = ingest::importCircuit(path_);
        }
        {
            Span s(rec, "ingest.harden", "ingest");
            hard = ingest::hardenNetlist(circ.net);
        }
        const fault::SeqCampaignSpec spec = hard.campaignSpec();
        const auto opts = seqOptions(kSeqSymbols, seed_, cfg_.threads);

        std::vector<std::vector<std::uint8_t>> partials(kShards);
        std::vector<std::vector<std::uint8_t>> midSnapshots;
        double snapshots = 0, bytes = 0, engine = 0, classes = 0;
        double sliceMax = 0, sliceSum = 0;
        for (int k = 0; k < kShards; ++k) {
            std::vector<std::vector<std::uint8_t>> snaps;
            fault::CheckpointOptions ckpt;
            ckpt.every = -1;
            ckpt.sink = [&](const std::vector<std::uint8_t> &b, bool final) {
                snapshots += 1;
                bytes += static_cast<double>(b.size());
                if (!final && k == resumeSlice_)
                    snaps.push_back(b);
            };
            const auto t0 = trace::Clock::now();
            fault::ShardOutcome o;
            {
                Span s(rec, "fault.shard.slice", "fault");
                o = fault::runSequentialCampaignShard(hard.net, spec, opts,
                                                      {k, kShards}, ckpt);
            }
            const double secs = since(t0);
            sliceMax = std::max(sliceMax, secs);
            sliceSum += secs;
            engine += o.stats.elapsedSeconds;
            classes += o.shardClasses;
            partials[static_cast<std::size_t>(k)] = std::move(o.partial);
            if (k == resumeSlice_)
                midSnapshots = std::move(snaps);
        }
        if (midSnapshots.empty())
            throw std::runtime_error("resume slice emitted no checkpoint");

        fault::CheckpointOptions resume;
        resume.resume = &midSnapshots[midSnapshots.size() / 2];
        auto t0 = trace::Clock::now();
        fault::ShardOutcome resumed;
        {
            Span s(rec, "fault.shard.resume", "fault");
            resumed = fault::runSequentialCampaignShard(
                hard.net, spec, opts, {resumeSlice_, kShards}, resume);
        }
        const double resumeSecs = since(t0);
        engine += resumed.stats.elapsedSeconds;
        partials[static_cast<std::size_t>(resumeSlice_)] =
            std::move(resumed.partial);

        t0 = trace::Clock::now();
        fault::SeqCampaignResult merged;
        {
            Span s(rec, "fault.shard.merge", "fault");
            merged = fault::mergeSeqCampaignPartials(hard.net, partials);
        }
        const double mergeSecs = since(t0);
        std::string verdict;
        {
            Span s(rec, "fault.report.encode", "fault");
            verdict = fault::seqCampaignVerdictJson(hard.net, merged);
        }
        critical_.push_back(sliceMax + resumeSecs + mergeSecs);
        work_ = static_cast<double>(merged.faults.size()) * merged.lanes *
                static_cast<double>(merged.symbols);

        // The merged verdict is the inline verdict; the merged tail
        // counters sum the slices, so they are checked for exact
        // repetition within the run instead of against the golden.
        const std::string counters =
            seqCounters(merged) + ",snapshots=" +
            std::to_string(static_cast<long>(snapshots)) +
            ",resumed=" + std::to_string(resumed.resumedUnits);
        const std::string bad = golden_.check(
            seqKey(stem(path_), kSeqSymbols, seed_), verdictDigest(verdict),
            -1, "");
        if (!bad.empty())
            out_.fail(bad);
        else if (firstCounters_.empty())
            firstCounters_ = counters;
        else if (counters != firstCounters_)
            out_.fail("shard counters " + counters + " != first pass " +
                      firstCounters_);

        if (!rec)
            return;
        rec->add("fault.shard.slice_max", sliceMax);
        rec->add("fault.shard.slice_sum", sliceSum);
        rec->add("fault.shard.calls", sliceSum + resumeSecs);
        rec->add("fault.shard.engine", engine);
        rec->add("fault.shard.classes", classes);
        rec->add("fault.shard.resumed_units",
                 static_cast<double>(resumed.resumedUnits));
        rec->add("engine.checkpoint.snapshots", snapshots);
        rec->add("engine.checkpoint.bytes", bytes);
    }

    const RunConfig &cfg_;
    const Golden &golden_;
    Outcome &out_;
    std::string path_;
    std::uint64_t seed_;
    int resumeSlice_;
    std::vector<double> critical_;
    std::string firstCounters_;
    double work_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeShardResume(const RunConfig &cfg, const Golden &golden, Outcome &out)
{
    return std::make_unique<ShardResume>(cfg, golden, out);
}

} // namespace perfbench
