/**
 * @file
 * comb_pipeline: every bundled combinational circuit read from its
 * file, SCAL-hardened, campaigned on the default fault-parallel path
 * (4,096 patterns, one engine thread) and encoded to verdict + tail
 * JSON. The fixed-cost-heavy path: parse, harden, compile, collapse,
 * plan and encode are a large share of it.
 */

#include <cstdio>

#include "fault/collapse.hh"
#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "sim/batch_sim.hh"
#include "sim/flat.hh"
#include "stats.hh"
#include "workload.hh"

using namespace scal;

namespace perfbench
{

namespace
{

using trace::Span;

/**
 * Per item: for every span named prefix + item (e.g. "circuit:c1908"),
 * its children's seconds summed by child name, one entry per item span
 * instance — i.e. per pass, or per probe round.
 */
std::map<std::string, std::map<std::string, std::vector<double>>>
perItem(const std::vector<trace::SpanRecord> &spans, const std::string &prefix)
{
    std::map<int, std::map<std::string, double>> byParent;
    for (const trace::SpanRecord &s : spans)
        if (s.parent >= 0 && s.endNs >= 0 &&
            spans[static_cast<std::size_t>(s.parent)].name.rfind(prefix, 0) ==
                0)
            byParent[s.parent][s.name] += s.seconds();
    std::map<std::string, std::map<std::string, std::vector<double>>> out;
    for (const auto &[parent, sums] : byParent) {
        const std::string item =
            spans[static_cast<std::size_t>(parent)].name.substr(prefix.size());
        for (const auto &[name, secs] : sums)
            out[item][name].push_back(secs);
    }
    return out;
}

class CombPipeline : public Workload
{
  public:
    CombPipeline(const RunConfig &cfg, const Golden &golden, Outcome &out)
        : golden_(golden), out_(out)
    {
        for (std::size_t i = 0; i < combCircuits().size(); ++i) {
            paths_.push_back(cfg.root + "/circuits/" + combCircuits()[i]);
            seeds_.push_back(campaignSeed(cfg.seed, i));
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

    void
    probe(trace::Recorder &rec) override
    {
        std::vector<ingest::HardenedCircuit> hard;
        for (const std::string &p : paths_)
            hard.push_back(
                ingest::hardenNetlist(ingest::importCircuit(p).net));
        for (int round = 0; round < kProbeRounds; ++round)
            for (std::size_t i = 0; i < hard.size(); ++i) {
                const netlist::Netlist &net = hard[i].net;
                Span item(&rec, "probe:" + stem(paths_[i]), trace::kBench);
                std::unique_ptr<sim::FlatNetlist> flat;
                {
                    Span s(&rec, "sim.flat_compile", "sim");
                    flat = std::make_unique<sim::FlatNetlist>(net);
                }
                fault::CollapseOptions co;
                co.constRefine = co.dominance = true;
                fault::CollapseResult col;
                {
                    Span s(&rec, "fault.collapse", "fault");
                    col = fault::collapseFaults(net, co);
                }
                {
                    Span s(&rec, "sim.batch_plan", "sim");
                    const sim::FaultBatchPlan plan(
                        *flat, net.allFaults(), col.classOf,
                        col.representatives, col.pruned, true);
                }
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
        const double classes = count("fault.fp.classes");
        auto &L = r.layers;
        L.push_back({"ingest.parse_s", medianTotal(t, "ingest.parse"), "s"});
        L.push_back({"ingest.harden_s", medianTotal(t, "ingest.harden"), "s"});
        L.push_back({"sim.flat_compile_s", probe("sim.flat_compile"), "s"});
        L.push_back({"sim.batch_plan_s", probe("sim.batch_plan"), "s"});
        L.push_back({"fault.collapse_s", probe("fault.collapse"), "s"});
        L.push_back({"fault.collapse_ratio",
                     classes / count("fault.fp.total_faults"), "ratio"});
        L.push_back({"fault.campaign_s", medianTotal(t, "fault.campaign"), "s"});
        L.push_back({"fault.campaign.engine_s",
                     medianTotal(t, "fault.campaign.engine"), "s"});
        L.push_back({"fault.campaign.fixed_s",
                     medianDiff(t, "fault.campaign", "fault.campaign.engine"),
                     "s"});
        L.push_back({"fault.engine_s", medianTotal(t, "fault.campaign.engine"),
                     "s"});
        L.push_back({"fault.fixed_s",
                     medianDiff(t, "fault.campaign", "fault.campaign.engine"),
                     "s"});
        L.push_back({"fault.report.encode_s",
                     medianTotal(t, "fault.report.encode"), "s"});
        L.push_back({"fault.classes", classes, "count"});
        for (const char *k : {"flip", "cpt", "tap", "sim", "pruned"}) {
            const std::string n = std::string("fault.fp.") + k + "_classes";
            L.push_back({n, count(n.c_str()), "count"});
        }
        L.push_back({"fault.fp.batches", count("fault.fp.batches"), "count"});
        L.push_back({"fault.fp.replay_free_share",
                     (count("fault.fp.cpt_classes") +
                      count("fault.fp.tap_classes") +
                      count("fault.fp.pruned_classes")) /
                         classes,
                     "ratio"});
        breakdown(*rec, r);
    }

  private:
    static constexpr int kProbeRounds = 3;

    void
    runOne(std::size_t i, trace::Recorder *rec, bool counted)
    {
        const std::string name = stem(paths_[i]);
        Span item(rec, "circuit:" + name, trace::kBench);
        ingest::ImportedCircuit circ;
        ingest::HardenedCircuit hard;
        fault::CampaignResult res;
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
                Span s(rec, "fault.campaign", "fault");
                res = fault::runAlternatingCampaign(
                    hard.net, combOptions(kCombPatterns, seeds_[i], 1));
            }
            {
                Span s(rec, "fault.report.encode", "fault");
                verdict = fault::campaignVerdictJson(hard.net, res);
                tail = fault::campaignTailJson(res);
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
            golden_.check(combKey(name, kCombPatterns, seeds_[i]),
                          verdictDigest(verdict), 1, combCounters(res));
        if (!bad.empty())
            out_.fail(bad);
        work_ += static_cast<double>(res.faults.size()) *
                 static_cast<double>(res.patternsApplied);
        if (!rec)
            return;
        rec->add("fault.campaign.engine", res.stats.elapsedSeconds);
        rec->add(name + "/fault.campaign.engine", res.stats.elapsedSeconds);
        rec->add("fault.fp.total_faults", res.fp.totalFaults);
        rec->add("fault.fp.classes", res.fp.classes);
        rec->add("fault.fp.flip_classes", res.fp.flipClasses);
        rec->add("fault.fp.cpt_classes", res.fp.cptClasses);
        rec->add("fault.fp.tap_classes", res.fp.tapClasses);
        rec->add("fault.fp.sim_classes", res.fp.simClasses);
        rec->add("fault.fp.pruned_classes", res.fp.prunedClasses);
        rec->add("fault.fp.batches", static_cast<double>(res.fp.batches));
    }

    /** Per-circuit split of the pipeline: the c1908 row is the
     *  baseline observation of the out-of-engine time. */
    void
    breakdown(const trace::Recorder &rec, Report &r) const
    {
        const auto spans = rec.spans();
        const auto passes = perItem(spans, "circuit:");
        const auto probes = perItem(spans, "probe:");
        const PassTotals t = rec.passTotals();
        char line[320];
        r.notes.push_back(
            "per-circuit median ms: parse harden campaign(engine fixed: "
            "compile collapse plan other) encode");
        for (const std::string &file : combCircuits()) {
            const std::string c = stem(file);
            auto med = [&](const auto &m, const char *k) {
                const auto it = m.find(c);
                if (it == m.end())
                    return 0.0;
                const auto jt = it->second.find(k);
                return jt == it->second.end() ? 0.0 : median(jt->second) * 1e3;
            };
            const double engine = medianTotal(t, c + "/fault.campaign.engine") * 1e3;
            const double campaign = med(passes, "fault.campaign");
            const double compile = med(probes, "sim.flat_compile");
            const double collapse = med(probes, "fault.collapse");
            const double plan = med(probes, "sim.batch_plan");
            const double fixed = campaign - engine;
            std::snprintf(line, sizeof line,
                          "  %-6s parse %.3f harden %.3f campaign %.3f "
                          "(engine %.3f fixed %.3f: compile %.3f collapse "
                          "%.3f plan %.3f other %.3f) encode %.3f",
                          c.c_str(), med(passes, "ingest.parse"),
                          med(passes, "ingest.harden"), campaign, engine,
                          fixed, compile, collapse, plan,
                          fixed - compile - collapse - plan,
                          med(passes, "fault.report.encode"));
            r.notes.push_back(line);
        }
    }

    const Golden &golden_;
    Outcome &out_;
    std::vector<std::string> paths_;
    std::vector<std::uint64_t> seeds_;
    double work_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCombPipeline(const RunConfig &cfg, const Golden &golden, Outcome &out)
{
    return std::make_unique<CombPipeline>(cfg, golden, out);
}

} // namespace perfbench
