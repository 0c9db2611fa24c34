/**
 * @file
 * seq_pipeline: the hardened sequential circuits (s27, lfsr8.v, s298,
 * s344, s386, s1488-class), each read from its file, hardened,
 * campaigned with runSequentialCampaign (64 symbols, default lanes,
 * min(4, nproc) engine threads) and encoded. The kernel-heavy path:
 * good trace, lane-batched replay and verdict fold, with the thread
 * pool and the chunk merge under load.
 */

#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "seq_probe.hh"
#include "sim/wide.hh"
#include "workload.hh"

using namespace scal;

namespace perfbench
{

namespace
{

using trace::Span;

class SeqPipeline : public Workload
{
  public:
    SeqPipeline(const RunConfig &cfg, const Golden &golden, Outcome &out)
        : cfg_(cfg), golden_(golden), out_(out)
    {
        for (std::size_t i = 0; i < seqCircuits().size(); ++i) {
            paths_.push_back(cfg.root + "/circuits/" + seqCircuits()[i]);
            seeds_.push_back(campaignSeed(cfg.seed, 100 + i));
        }
    }

    void
    setUp() override
    {
        for (const std::string &p : paths_)
            readFile(p);
        runOne(0, nullptr, false); // warm-up: the smallest circuit
    }

    void
    pass(trace::Recorder *rec) override
    {
        work_ = 0;
        for (std::size_t i = 0; i < paths_.size(); ++i)
            runOne(i, rec, true);
    }

    double workPerPass() const override { return work_; }
    int parallelism() const override { return cfg_.threads; }

    void
    probe(trace::Recorder &rec) override
    {
        for (int round = 0; round < kProbeRounds; ++round)
            for (std::size_t i = 0; i < paths_.size(); ++i) {
                const auto hard = ingest::hardenNetlist(
                    ingest::importCircuit(paths_[i]).net);
                Span item(&rec, "probe:" + stem(paths_[i]), trace::kBench);
                probeSeqLayers(rec, hard, seqOptions(kSeqSymbols, seeds_[i],
                                                     cfg_.threads));
            }
    }

    void
    finish(const std::vector<double> &, const trace::Recorder *rec,
           Report &r) override
    {
        if (!rec)
            return;
        const PassTotals t = rec->passTotals();
        const auto probes = rec->probeTotals();
        auto probe = [&](const char *name) {
            const auto it = probes.find(name);
            return it == probes.end() ? 0 : it->second / kProbeRounds;
        };
        auto count = [&](const char *name) { return medianTotal(t, name); };
        const double engine = medianTotal(t, "fault.seq.engine");
        const double fixed =
            medianDiff(t, "fault.seq_campaign", "fault.seq.engine");
        const double batches = count("fault.seq.batches");
        auto &L = r.layers;
        L.push_back({"ingest.parse_s", medianTotal(t, "ingest.parse"), "s"});
        L.push_back({"ingest.harden_s", medianTotal(t, "ingest.harden"), "s"});
        L.push_back({"sim.flat_compile_s", probe("sim.flat_compile"), "s"});
        L.push_back({"sim.seq_trace_s", probe("sim.seq_trace"), "s"});
        L.push_back({"fault.collapse_s", probe("fault.collapse"), "s"});
        L.push_back({"fault.seq_campaign_s",
                     medianTotal(t, "fault.seq_campaign"), "s"});
        L.push_back({"fault.seq.engine_s", engine, "s"});
        L.push_back({"fault.seq.fixed_s", fixed, "s"});
        L.push_back({"fault.engine_s", engine, "s"});
        L.push_back({"fault.fixed_s", fixed, "s"});
        L.push_back({"fault.report.encode_s",
                     medianTotal(t, "fault.report.encode"), "s"});
        L.push_back({"fault.classes", count("fault.seq.classes"), "count"});
        for (const char *k : {"periods_simulated", "periods_skipped",
                              "retired_early", "batches", "batched_classes"}) {
            const std::string n = std::string("fault.seq.") + k;
            L.push_back({n, count(n.c_str()), "count"});
        }
        // Lane groups one batch pass carries: the widest kernel block
        // over the campaign's 64-lane group width.
        const double groups = sim::kMaxLaneWords;
        L.push_back({"fault.seq.occupancy",
                     batches > 0 ? count("fault.seq.batched_classes") /
                                       (batches * groups)
                                 : 0,
                     "ratio"});
        L.push_back({"fault.seq.lane_periods_per_s",
                     engine > 0 ? count("fault.seq.periods_simulated") * 64 *
                                      sim::kMaxLaneWords / engine
                                : 0,
                     "1/s"});
    }

  private:
    static constexpr int kProbeRounds = 2;

    void
    runOne(std::size_t i, trace::Recorder *rec, bool counted)
    {
        const std::string name = stem(paths_[i]);
        Span item(rec, "circuit:" + name, trace::kBench);
        ingest::ImportedCircuit circ;
        ingest::HardenedCircuit hard;
        fault::SeqCampaignResult res;
        std::string verdict, tail;
        try {
            {
                Span s(rec, "ingest.parse", "ingest");
                circ = ingest::importCircuit(paths_[i]);
            }
            {
                Span s(rec, "ingest.harden", "ingest");
                hard = ingest::hardenNetlist(circ.net);
            }
            {
                Span s(rec, "fault.seq_campaign", "fault");
                res = fault::runSequentialCampaign(
                    hard.net, hard.campaignSpec(),
                    seqOptions(kSeqSymbols, seeds_[i], cfg_.threads));
            }
            {
                Span s(rec, "fault.report.encode", "fault");
                verdict = fault::seqCampaignVerdictJson(hard.net, res);
                tail = fault::seqCampaignTailJson(res);
            }
        } catch (const std::exception &e) {
            if (counted) {
                out_.attempt();
                out_.fail(name + ": " + e.what());
            }
            return;
        }
        if (!counted)
            return;
        out_.attempt();
        const std::string bad =
            golden_.check(seqKey(name, kSeqSymbols, seeds_[i]),
                          verdictDigest(verdict), cfg_.threads,
                          seqCounters(res));
        if (!bad.empty())
            out_.fail(bad);
        work_ += static_cast<double>(res.faults.size()) * res.lanes *
                 static_cast<double>(res.symbols);
        if (!rec)
            return;
        rec->add("fault.seq.engine", res.stats.elapsedSeconds);
        rec->add("fault.seq.classes", res.classes);
        rec->add("fault.seq.periods_simulated",
                 static_cast<double>(res.periodsSimulated));
        rec->add("fault.seq.periods_skipped",
                 static_cast<double>(res.periodsSkipped));
        rec->add("fault.seq.retired_early",
                 static_cast<double>(res.retiredEarly));
        rec->add("fault.seq.batches", res.batches);
        rec->add("fault.seq.batched_classes", res.batchedClasses);
    }

    const RunConfig &cfg_;
    const Golden &golden_;
    Outcome &out_;
    std::vector<std::string> paths_;
    std::vector<std::uint64_t> seeds_;
    double work_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSeqPipeline(const RunConfig &cfg, const Golden &golden, Outcome &out)
{
    return std::make_unique<SeqPipeline>(cfg, golden, out);
}

} // namespace perfbench
