/**
 * @file
 * End-to-end ingestion pipeline benchmark: for every bundled circuit
 * under circuits/, time the three stages a user of the import flow
 * pays — parse (.bench text to netlist), SCAL-harden (structural
 * self-dualization + dual flip-flop mapping), and the fault campaign
 * on the hardened machine (alternating campaign for combinational
 * circuits, sequential campaign for machines with state). Before any
 * timing, each hardened circuit must pass the alternating-operation
 * verification — a pipeline that emits non-alternating netlists has
 * no throughput worth measuring. The campaign stage is timed twice:
 * once through the production pipeline and once through a reference
 * (`campaign_ref`), after asserting both give every fault the same
 * verdict; each row reports the resulting `speedup`. The reference is
 * the per-fault oracle (tests/oracle/: every fault simulated on its
 * own, one thread, at the run's lanes and SIMD), combinational or
 * sequential. Results are emitted as JSON
 * (stdout and --out file) with warmed-up best/median/stddev per
 * stage (bench_stats.hh) so CI can archive the numbers.
 *
 * Usage: bench_ingest_campaign [--circuits DIR] [--max-patterns N]
 *                              [--symbols N] [--jobs N] [--reps N]
 *                              [--out FILE]
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/structure.hh"
#include "oracle/per_fault_campaign.hh"

using namespace scal;

namespace
{

struct Row
{
    std::string name;
    std::string format;
    bool sequential = false;
    int gatesBefore = 0, gatesAfter = 0;
    int depthAfter = 0;
    std::size_t faults = 0;
    std::uint64_t work = 0; ///< patterns (comb) or symbols (seq)
    std::size_t detected = 0, unsafe = 0, untestable = 0;
    bench::TimingStats parse, harden, campaign, campaignRef;
    double speedup = 0; ///< reference best / fault-parallel best
};

const char *kCircuits[] = {"c17",  "c432", "c499", "c880", "c1908",
                           "s27", "s298", "s344", "s386"};

/** Whether @p a and @p b give every fault the same outcome. */
template <class Result>
bool
sameVerdicts(const Result &a, const Result &b)
{
    if (a.faults.size() != b.faults.size())
        return false;
    for (std::size_t k = 0; k < a.faults.size(); ++k)
        if (!(a.faults[k].fault == b.faults[k].fault) ||
            a.faults[k].outcome != b.faults[k].outcome)
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "circuits";
    std::uint64_t max_patterns = 1 << 16;
    long symbols = 256;
    int jobs = 1;
    int reps = 5;
    std::string out_path = "BENCH_ingest_campaign.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--circuits") && i + 1 < argc)
            dir = argv[++i];
        else if (!std::strcmp(argv[i], "--max-patterns") && i + 1 < argc)
            max_patterns = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--symbols") && i + 1 < argc)
            symbols = std::strtol(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }
    if (!std::ifstream(dir + "/c17.bench")) {
        // Convenience when run from a build tree next to the source.
        if (std::ifstream("../circuits/c17.bench"))
            dir = "../circuits";
    }

    std::vector<Row> rows;
    for (const char *name : kCircuits) {
        const std::string path = dir + "/" + name + ".bench";
        if (!std::ifstream(path)) {
            std::cerr << "skipping missing " << path << "\n";
            continue;
        }

        const ingest::ImportedCircuit circ =
            ingest::importCircuit(path);
        const ingest::HardenedCircuit hard =
            ingest::hardenNetlist(circ.net);
        if (!ingest::verifyAlternatingOperation(hard.net,
                                                hard.phiInput, 512)) {
            std::cerr << "FATAL: hardened " << name
                      << " is not alternating\n";
            return 1;
        }

        Row row;
        row.name = name;
        row.format = ingest::formatName(circ.format);
        row.sequential = !circ.net.isCombinational();
        row.gatesBefore = circ.net.cost().gates;
        row.gatesAfter = hard.net.cost().gates;
        row.depthAfter = hard.report.depthAfter;

        row.parse = bench::timeStats(
            [&] { ingest::importCircuit(path); }, reps);
        row.harden = bench::timeStats(
            [&] { ingest::hardenNetlist(circ.net); }, reps);

        if (row.sequential) {
            const fault::SeqCampaignSpec spec = hard.campaignSpec();
            fault::SeqCampaignOptions opts;
            opts.symbols = symbols;
            opts.jobs = jobs;
            const auto res =
                fault::runSequentialCampaign(hard.net, spec, opts);
            if (!sameVerdicts(res, oracle::runPerFaultSeqCampaign(
                                       hard.net, spec, opts))) {
                std::cerr << "FATAL: " << name
                          << " campaign verdicts diverge from the "
                             "per-fault reference\n";
                return 1;
            }
            row.faults = res.faults.size();
            row.work = static_cast<std::uint64_t>(res.symbols);
            row.detected = static_cast<std::size_t>(res.numDetected);
            row.unsafe = static_cast<std::size_t>(res.numUnsafe);
            row.untestable =
                static_cast<std::size_t>(res.numUntestable);
            row.campaign = bench::timeStats(
                [&] {
                    fault::runSequentialCampaign(hard.net, spec, opts);
                },
                reps);
            row.campaignRef = bench::timeStats(
                [&] {
                    oracle::runPerFaultSeqCampaign(hard.net, spec, opts);
                },
                reps);
        } else {
            fault::CampaignOptions opts;
            opts.maxPatterns = max_patterns;
            opts.jobs = jobs;
            const auto res =
                fault::runAlternatingCampaign(hard.net, opts);
            if (!sameVerdicts(res,
                              oracle::runPerFaultCampaign(hard.net, opts))) {
                std::cerr << "FATAL: " << name
                          << " fault-parallel verdicts diverge from "
                             "the per-fault reference\n";
                return 1;
            }
            row.faults = res.faults.size();
            row.work = res.patternsApplied;
            row.detected = static_cast<std::size_t>(res.numDetected);
            row.unsafe = static_cast<std::size_t>(res.numUnsafe);
            row.untestable =
                static_cast<std::size_t>(res.numUntestable);
            row.campaign = bench::timeStats(
                [&] { fault::runAlternatingCampaign(hard.net, opts); },
                reps);
            row.campaignRef = bench::timeStats(
                [&] { oracle::runPerFaultCampaign(hard.net, opts); },
                reps);
        }
        if (row.campaign.best > 0)
            row.speedup = row.campaignRef.best / row.campaign.best;
        std::cerr << name << ": " << row.gatesBefore << " -> "
                  << row.gatesAfter << " gates, " << row.faults
                  << " faults, " << row.unsafe << " unsafe, campaign "
                  << row.campaign.best << " s (reference "
                  << row.campaignRef.best << " s, " << row.speedup
                  << "x)\n";
        rows.push_back(std::move(row));
    }
    if (rows.empty()) {
        std::cerr << "no circuits found under " << dir << "\n";
        return 1;
    }

    std::ostringstream js;
    js << "{\n  \"bench\": \"ingest_campaign\",\n  \"jobs\": " << jobs
       << ",\n  \"max_patterns\": " << max_patterns
       << ",\n  \"symbols\": " << symbols << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        js << "    {\"name\": \"" << r.name << "\", \"format\": \""
           << r.format << "\", \"sequential\": "
           << (r.sequential ? "true" : "false")
           << ", \"gates_before\": " << r.gatesBefore
           << ", \"gates_after\": " << r.gatesAfter
           << ", \"depth_after\": " << r.depthAfter
           << ", \"faults\": " << r.faults << ", \"work\": " << r.work
           << ", \"detected\": " << r.detected
           << ", \"unsafe\": " << r.unsafe
           << ", \"untestable\": " << r.untestable << ", ";
        bench::emitStatsFields(js, "parse", r.parse);
        js << ", ";
        bench::emitStatsFields(js, "harden", r.harden);
        js << ", ";
        bench::emitStatsFields(js, "campaign", r.campaign);
        js << ", ";
        bench::emitStatsFields(js, "campaign_ref", r.campaignRef);
        js << ", \"speedup\": " << r.speedup;
        js << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";

    std::cout << js.str();
    std::ofstream out(out_path);
    if (out)
        out << js.str();
    return 0;
}
