/**
 * @file
 * Engine scaling: single-thread vs N-thread campaign throughput on
 * the Figure 7.x system circuits (the SCAL ALU datapaths) and the
 * Chapter 3 reference networks. Every jobs count runs the same
 * pipeline (collapse + plan + chunk + merge); jobs=1 runs its single
 * chunk on the calling thread, so the speedup column is the thread
 * scaling alone. Determinism of the results themselves is
 * asserted by tests/test_engine_determinism.cc; this binary measures
 * wall-clock only. Each timing is a warmed-up best/median/stddev over
 * --reps repetitions (bench_stats.hh); alongside the human-readable
 * table the measurements are emitted as JSON (stdout and a file) so
 * the CI bench-results artifact carries a machine-readable history.
 *
 * Usage: bench_engine_scaling [--reps N] [--out FILE]
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hh"
#include "fault/campaign.hh"
#include "netlist/circuits.hh"
#include "system/alu.hh"
#include "util/table.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

struct Target
{
    std::string name;
    std::string key; // JSON-safe identifier
    Netlist net;
    std::uint64_t maxPatterns;
};

struct JobsRow
{
    int jobs = 0;
    std::uint64_t faults = 0;
    std::uint64_t patterns = 0;
    bench::TimingStats stats;
};

struct TargetRows
{
    std::string key;
    std::vector<JobsRow> rows; // rows[0] is jobs=1
};

void
emitJson(std::ostream &os, const std::vector<TargetRows> &targets,
         int reps)
{
    os << "{\n  \"benchmark\": \"engine_scaling\",\n  \"unit\": "
          "\"seconds\",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"reps\": "
       << reps << ",\n  \"warmup\": 1,\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const TargetRows &t = targets[i];
        const double base = t.rows.front().stats.best;
        os << "    {\"name\": \"" << t.key << "\", \"faults\": "
           << t.rows.front().faults << ", \"patterns\": "
           << t.rows.front().patterns << ", \"jobs\": [";
        for (std::size_t k = 0; k < t.rows.size(); ++k) {
            const JobsRow &r = t.rows[k];
            os << (k ? ", " : "") << "\n       {\"jobs\": " << r.jobs
               << ", ";
            bench::emitStatsFields(os, "campaign", r.stats);
            os << ", \"speedup_vs_jobs1\": "
               << (r.stats.best > 0 ? base / r.stats.best : 0) << "}";
        }
        os << "]}" << (i + 1 < targets.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 3;
    std::string out_path = "BENCH_engine_scaling.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }

    util::banner(std::cout,
                 "Engine scaling — campaign wall-clock vs jobs "
                 "(collapse + shard + deterministic merge)");
    std::cout << "hardware_concurrency: "
              << std::thread::hardware_concurrency() << "\n\n";

    std::vector<Target> targets;
    targets.push_back({"section 3.6 repaired (Ch. 3)",
                       "section36_repaired",
                       circuits::section36NetworkRepaired(),
                       std::uint64_t{1} << 20});
    targets.push_back({"8-bit ripple adder (Fig 2.2)", "rca8",
                       circuits::rippleCarryAdder(8),
                       std::uint64_t{1} << 12});
    targets.push_back({"SCAL ALU XOR (Fig 7.x)", "alu_xor",
                       system::aluNetlist(system::AluOp::Xor),
                       std::uint64_t{1} << 12});
    targets.push_back({"SCAL ALU ADD (Fig 7.x)", "alu_add",
                       system::aluNetlist(system::AluOp::Add),
                       std::uint64_t{1} << 12});

    const int jobs_list[] = {1, 2, 4, 8};
    util::Table t({"circuit", "faults", "patterns", "jobs",
                   "seconds", "faults/s", "speedup vs jobs=1"});
    std::vector<TargetRows> results;
    for (const Target &target : targets) {
        TargetRows tr;
        tr.key = target.key;
        double base = 0;
        for (int jobs : jobs_list) {
            fault::CampaignOptions opts;
            opts.maxPatterns = target.maxPatterns;
            opts.jobs = jobs;
            opts.checkAlternating = false; // measure the campaign, not
                                           // the self-duality precheck
            JobsRow row;
            row.jobs = jobs;
            row.stats = bench::timeStats(
                [&] {
                    const auto res =
                        fault::runAlternatingCampaign(target.net, opts);
                    row.faults = res.faults.size();
                    row.patterns = res.patternsApplied;
                },
                reps);
            const double sec = row.stats.best;
            if (jobs == 1)
                base = sec;
            t.addRow({target.name,
                      util::Table::num((long long)row.faults),
                      util::Table::num((long long)row.patterns),
                      util::Table::num((long long)jobs),
                      util::Table::num(sec, 3),
                      util::Table::num(
                          sec > 0 ? (double)row.faults / sec : 0, 0),
                      util::Table::num(sec > 0 ? base / sec : 0, 2)});
            tr.rows.push_back(row);
        }
        t.addRule();
        results.push_back(std::move(tr));
    }
    t.print(std::cout);
    std::cout
        << "\nEvery jobs count runs the same collapsed fault-parallel "
           "pipeline; jobs=1 runs it on the calling thread, so the "
           "speedup is thread scaling alone. On a single-core host it "
           "stays near 1.\n\n";

    emitJson(std::cout, results, reps);
    std::ofstream f(out_path);
    emitJson(f, results, reps);
    return 0;
}
