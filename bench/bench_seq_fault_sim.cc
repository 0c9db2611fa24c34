/**
 * @file
 * Sequential fault-simulation kernel benchmark: the scalar reference
 * (one SeqSimulator per lane, symbol-major, exactly the loop the
 * sequential sweeps used to run) against the packed cone-restricted
 * campaign kernel, on the Figure 4.10 code-conversion detector and an
 * ALU-scale self-dual accumulator. Both sides fold their per-symbol
 * alarm/wrong masks through the shared SeqVerdictAccumulator, so the
 * per-fault verdicts — and their digests — must agree exactly before
 * any timing is reported. The packed kernel is additionally timed at
 * 64, 256 and 512 lanes per trace (native dispatch, jobs = 1); at
 * each width the verdict digest is cross-checked between portable and
 * native dispatch and across --jobs values. Every packed timing is a
 * warmed-up best/median/stddev over --reps repetitions
 * (bench_stats.hh). Emits machine-readable JSON (stdout and a file)
 * so CI can archive the numbers.
 *
 * The lane-multiplexed fault-batch path (sim/seq_batch_sim) is timed
 * against the per-fault oracle (tests/oracle/: every fault replayed on
 * its own, one thread, no collapsing) on every scenario,
 * digest-checked first; the bundled s1488/s5378-class netlists ride
 * through the real import-and-harden pipeline to anchor the batch
 * speedup at realistic scale (their scalar reference and width sweeps
 * are skipped — the per-fault oracle is the digest oracle there).
 *
 * Usage: bench_seq_fault_sim [--symbols N] [--lanes N] [--reps N]
 *                            [--circuits DIR] [--out FILE]
 */

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "fault/seq_campaign.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "oracle/per_fault_campaign.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "seq/registers.hh"
#include "sim/sequential.hh"
#include "sim/simd.hh"

using namespace scal;
using netlist::Fault;
using netlist::Netlist;

namespace
{

struct Scenario
{
    std::string name;
    Netlist net;
    fault::SeqCampaignSpec spec;
    /** Time + digest-check the scalar per-lane reference (too slow
     *  for the imported netlists; the per-fault oracle is the digest
     *  oracle there). */
    bool withOracle = true;
    /** Run the jobs and 64/256/512 lane-width sweeps. */
    bool withWidths = true;
    /** Cap on --symbols for this scenario (0 = no cap). The s5378
     *  class per-fault reference runs minutes at the default budget;
     *  a shorter stream keeps the ratio measurable in CI without
     *  dropping the row. */
    long symbolsCap = 0;
    /** Cap on timing reps (0 = no cap, full warmup). Capped rows
     *  skip the warmup run and take best-of-cap — the digest
     *  cross-check has already warmed the process, and the s-class
     *  rows run whole seconds per rep, stable inside the 25% gate
     *  tolerance at two reps. */
    int repsCap = 0;
};

struct ScalarVerdict
{
    fault::Outcome outcome = fault::Outcome::Untestable;
    long firstAlarm = -1;
    long firstEscape = -1;
    std::array<long, 64> laneAlarm{};
};

/**
 * The pre-change reference: every lane is its own scalar SeqSimulator
 * replayed over the whole stream for every fault, with the same
 * verdict and stop rules as the packed campaign.
 */
std::vector<ScalarVerdict>
runScalarOracle(const Netlist &net, const fault::SeqCampaignSpec &spec,
                const fault::SeqCampaignOptions &opts,
                const std::vector<std::vector<std::uint64_t>> &words)
{
    const int ni = net.numInputs();
    const int no = net.numOutputs();
    const int lanes = opts.lanes;
    const std::uint64_t lane_mask =
        lanes == 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << lanes) - 1;

    std::vector<int> data = spec.dataOutputs;
    std::vector<int> alt = spec.altOutputs;
    if (data.empty())
        for (int j = 0; j < no; ++j)
            data.push_back(j);
    if (alt.empty())
        for (int j = 0; j < no; ++j)
            alt.push_back(j);
    std::vector<char> hold(ni, 0);
    for (int i : spec.holdInputs)
        hold[i] = 1;

    const auto laneInputs = [&](long s, bool phase2, int lane) {
        std::vector<bool> in(ni, false);
        for (int i = 0; i < ni; ++i) {
            bool v = (words[s][i] >> lane) & 1;
            if (phase2 && i != spec.phiInput && !hold[i])
                v = !v;
            in[i] = v;
        }
        return in;
    };

    // Fault-free outputs, per lane per period.
    const long symbols = opts.symbols;
    std::vector<std::uint8_t> good(
        static_cast<std::size_t>(lanes) * 2 * symbols * no);
    const auto goodAt = [&](int lane, long t) {
        return good.data() +
               (static_cast<std::size_t>(lane) * 2 * symbols + t) * no;
    };
    std::vector<std::unique_ptr<sim::SeqSimulator>> sims;
    for (int l = 0; l < lanes; ++l)
        sims.push_back(
            std::make_unique<sim::SeqSimulator>(net, spec.phiInput));
    for (int l = 0; l < lanes; ++l) {
        for (long s = 0; s < symbols; ++s) {
            for (int ph = 0; ph < 2; ++ph) {
                const auto out =
                    sims[l]->stepPeriod(laneInputs(s, ph, l));
                for (int j = 0; j < no; ++j)
                    goodAt(l, 2 * s + ph)[j] = out[j];
            }
        }
    }

    std::vector<ScalarVerdict> verdicts;
    std::vector<std::vector<bool>> out0(lanes), out1(lanes);
    for (const Fault &fl : net.allFaults()) {
        for (int l = 0; l < lanes; ++l) {
            sims[l]->reset();
            sims[l]->setFault(fl);
            sims[l]->setFaultWindow(opts.faultStart, opts.faultEnd);
        }
        fault::SeqVerdictAccumulator acc(&lane_mask, 1, opts.dropDetected);
        for (long s = 0; s < symbols; ++s) {
            std::uint64_t alarm = 0, wrong = 0;
            for (int l = 0; l < lanes; ++l) {
                out0[l] = sims[l]->stepPeriod(laneInputs(s, 0, l));
                out1[l] = sims[l]->stepPeriod(laneInputs(s, 1, l));
                bool a = false;
                for (int j : alt)
                    a |= out0[l][j] == out1[l][j];
                for (std::size_t c = 0; c + 1 < spec.codePairs.size();
                     c += 2) {
                    a |= out0[l][spec.codePairs[c]] ==
                         out0[l][spec.codePairs[c + 1]];
                    a |= out1[l][spec.codePairs[c]] ==
                         out1[l][spec.codePairs[c + 1]];
                }
                bool w = false;
                for (int j : data)
                    w |= out0[l][j] !=
                         static_cast<bool>(goodAt(l, 2 * s)[j]);
                if (a)
                    alarm |= std::uint64_t{1} << l;
                if (w)
                    wrong |= std::uint64_t{1} << l;
            }
            if (!acc.addSymbol(s, &alarm, &wrong))
                break;
        }
        ScalarVerdict v;
        v.outcome = acc.outcome();
        v.firstAlarm = acc.firstAlarmPeriod();
        v.firstEscape = acc.firstEscapePeriod();
        for (int l = 0; l < 64; ++l)
            v.laneAlarm[l] = acc.laneFirstAlarm(l);
        verdicts.push_back(v);
    }
    return verdicts;
}

std::uint64_t
mix(std::uint64_t d, std::uint64_t v)
{
    d ^= (v + 1) * 0x9e3779b97f4a7c15ULL;
    return (d << 7) | (d >> 57);
}

std::uint64_t
digestScalar(const std::vector<ScalarVerdict> &vs, int lanes)
{
    std::uint64_t d = 0;
    std::array<std::uint64_t, fault::kLatencyBuckets> hist{};
    for (const auto &v : vs) {
        d = mix(d, static_cast<std::uint64_t>(v.outcome));
        d = mix(d, static_cast<std::uint64_t>(v.firstAlarm));
        d = mix(d, static_cast<std::uint64_t>(v.firstEscape));
        for (int l = 0; l < lanes; ++l)
            if (v.laneAlarm[l] >= 0)
                ++hist[fault::latencyBucket(v.laneAlarm[l])];
    }
    for (std::uint64_t h : hist)
        d = mix(d, h);
    return d;
}

std::uint64_t
digestPacked(const fault::SeqCampaignResult &res)
{
    std::uint64_t d = 0;
    for (const auto &v : res.faults) {
        d = mix(d, static_cast<std::uint64_t>(v.outcome));
        d = mix(d, static_cast<std::uint64_t>(v.firstAlarmPeriod));
        d = mix(d, static_cast<std::uint64_t>(v.firstEscapePeriod));
    }
    for (std::uint64_t h : res.latencyHistogram)
        d = mix(d, h);
    return d;
}

/** Packed-campaign timing at one lane width (native dispatch). */
struct WidthRow
{
    int lanes = 0;
    std::uint64_t periodsSimulated = 0;
    bench::TimingStats stats;
};

struct Row
{
    std::string name;
    std::size_t gates = 0;
    std::size_t faults = 0;
    long symbols = 0;
    int lanes = 0;
    bool hasScalar = false;
    bool hasWidths = false;
    bench::TimingStats scalar;
    bench::TimingStats packed;   // default path: fault batching on
    bench::TimingStats batchOff; // per-fault oracle, no batching
    double seqdomOffSeconds = 0; // batching on, seq dominance off
    std::vector<std::pair<int, double>> jobsSeconds;
    std::vector<WidthRow> widths; // ascending lanes; widths[0] is 64

    double speedup() const { return scalar.best / packed.best; }
    double speedupFp() const { return batchOff.best / packed.best; }

    /** Lane-periods simulated per second. A 512-lane campaign packs
     *  8x the sampled streams of a 64-lane one into each simulated
     *  period, and with dropDetected the stop point moves with width
     *  (every lane must alarm), so widths are compared on measured
     *  simulation work per second, not raw seconds. */
    double laneThroughput(const WidthRow &w) const
    {
        return static_cast<double>(w.lanes) *
               static_cast<double>(w.periodsSimulated) / w.stats.best;
    }
    double speedup512v64() const
    {
        return laneThroughput(widths.back()) /
               laneThroughput(widths.front());
    }
};

void
emitJson(std::ostream &os, const std::vector<Row> &rows,
         sim::SimdTarget native)
{
    double log_sum = 0, log_sum_wide = 0, log_sum_fp = 0;
    double log_sum_fp_s = 0;
    int n_scalar = 0, n_wide = 0, n_sclass = 0;
    os << "{\n  \"benchmark\": \"seq_fault_sim\",\n  \"unit\": "
          "\"seconds\",\n  \"simd\": \""
       << sim::simdTargetName(native) << "\",\n  \"reps\": "
       << rows.front().packed.reps << ",\n  \"warmup\": "
       << rows.front().packed.warmup << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        log_sum_fp += std::log(r.speedupFp());
        // The s-class rows (no scalar oracle) are the ISCAS-89-scale
        // machines the batch path targets; their geomean is the
        // headline number, reported separately so the toy scenarios
        // (kept as oracle-verified smoke rows) don't dilute it.
        if (!r.hasScalar) {
            log_sum_fp_s += std::log(r.speedupFp());
            ++n_sclass;
        }
        os << "    {\"name\": \"" << r.name << "\", \"gates\": "
           << r.gates << ", \"faults\": " << r.faults
           << ", \"symbols\": " << r.symbols
           << ", \"lanes\": " << r.lanes
           // Symbols x lanes: the gate in tools/bench_compare.py
           // skips rows below 512 lane-symbols of work.
           << ", \"work\": "
           << static_cast<std::uint64_t>(r.symbols) *
                  static_cast<std::uint64_t>(r.lanes)
           << ", ";
        if (r.hasScalar) {
            log_sum += std::log(r.speedup());
            ++n_scalar;
            bench::emitStatsFields(os, "scalar", r.scalar);
            os << ", ";
        }
        bench::emitStatsFields(os, "packed", r.packed);
        os << ", ";
        bench::emitStatsFields(os, "batch_off", r.batchOff);
        if (r.hasScalar)
            os << ", \"speedup\": " << r.speedup();
        os << ", \"speedup_fp\": " << r.speedupFp()
           << ", \"seqdom_off_seconds\": " << r.seqdomOffSeconds
           << ", \"jobs_seconds\": {";
        for (std::size_t k = 0; k < r.jobsSeconds.size(); ++k)
            os << (k ? ", " : "") << "\"" << r.jobsSeconds[k].first
               << "\": " << r.jobsSeconds[k].second;
        os << "}";
        if (r.hasWidths) {
            log_sum_wide += std::log(r.speedup512v64());
            ++n_wide;
            os << ",\n     \"widths\": [";
            for (std::size_t w = 0; w < r.widths.size(); ++w) {
                const WidthRow &wr = r.widths[w];
                os << (w ? ", " : "")
                   << "\n       {\"lanes\": " << wr.lanes
                   << ", \"periods_simulated\": " << wr.periodsSimulated
                   << ", ";
                bench::emitStatsFields(os, "packed", wr.stats);
                os << ", \"lane_throughput\": " << r.laneThroughput(wr)
                   << ", \"speedup_vs_64\": "
                   << r.laneThroughput(wr) /
                          r.laneThroughput(r.widths.front())
                   << "}";
            }
            os << "],\n     \"speedup_512v64\": " << r.speedup512v64();
        }
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"geomean_speedup\": "
       << (n_scalar ? std::exp(log_sum / n_scalar) : 0.0)
       << ",\n  \"geomean_speedup_fp\": "
       << std::exp(log_sum_fp / static_cast<double>(rows.size()))
       << ",\n  \"geomean_speedup_fp_sclass\": "
       << (n_sclass ? std::exp(log_sum_fp_s / n_sclass) : 0.0)
       << ",\n  \"geomean_speedup_512v64\": "
       << (n_wide ? std::exp(log_sum_wide / n_wide) : 0.0) << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    long symbols = 256;
    int lanes = 64;
    int reps = 5;
    std::string dir = "circuits";
    std::string out_path = "BENCH_seq_fault_sim.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--symbols") && i + 1 < argc)
            symbols = std::strtol(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--lanes") && i + 1 < argc)
            lanes = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--circuits") && i + 1 < argc)
            dir = argv[++i];
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }
    if (!std::ifstream(dir + "/s27.bench")) {
        // Convenience when run from a build tree next to the source.
        if (std::ifstream("../circuits/s27.bench"))
            dir = "../circuits";
    }
    const sim::SimdTarget native =
        sim::resolveSimdTarget(sim::SimdTarget::Auto);

    std::vector<Scenario> scenarios;
    {
        auto sm = seq::translatorDetector();
        auto spec = seq::campaignSpec(sm);
        scenarios.push_back(
            {"fig4_10_translator", std::move(sm.net), spec});
    }
    {
        auto sm = seq::selfDualAccumulator(16);
        auto spec = seq::campaignSpec(sm);
        scenarios.push_back({"accumulator16", std::move(sm.net), spec});
    }
    // The bundled s-class netlists through the real import-and-harden
    // pipeline: the machines the fault-batch path was built for. The
    // scalar reference and the width/jobs sweeps are skipped there
    // (minutes per repetition); the per-fault oracle is the
    // digest oracle.
    for (const char *name : {"s1488-class", "s5378-class"}) {
        const std::string path = dir + "/" + name + ".bench";
        if (!std::ifstream(path)) {
            std::cerr << "skipping missing " << path << "\n";
            continue;
        }
        const ingest::ImportedCircuit circ = ingest::importCircuit(path);
        ingest::HardenedCircuit hc = ingest::hardenNetlist(circ.net);
        fault::SeqCampaignSpec spec = hc.campaignSpec();
        const bool big = !std::strcmp(name, "s5378-class");
        scenarios.push_back({std::string(name) + "_hardened",
                             std::move(hc.net), std::move(spec),
                             /*withOracle=*/false,
                             /*withWidths=*/false,
                             /*symbolsCap=*/big ? 12 : 0,
                             /*repsCap=*/2});
    }

    std::vector<Row> rows;
    for (const Scenario &sc : scenarios) {
        const fault::SeqCampaignSpec &spec = sc.spec;
        const long ssym = sc.symbolsCap && sc.symbolsCap < symbols
                              ? sc.symbolsCap
                              : symbols;
        const int sreps =
            sc.repsCap && sc.repsCap < reps ? sc.repsCap : reps;
        const int swarm = sc.repsCap ? 0 : 1;
        fault::SeqCampaignOptions opts;
        opts.symbols = ssym;
        opts.lanes = lanes;
        opts.seed = 7;
        opts.jobs = 1;

        // Verdicts must agree before timing means anything: the
        // per-fault oracle against the batch path on every scenario,
        // and both against the scalar per-lane oracle where it runs.
        const auto packed =
            fault::runSequentialCampaign(sc.net, spec, opts);
        const auto perFault =
            oracle::runPerFaultSeqCampaign(sc.net, spec, opts);
        if (digestPacked(perFault) != digestPacked(packed)) {
            std::cerr << "FATAL: batch/per-fault digest mismatch on "
                      << sc.name << "\n";
            return 1;
        }
        std::vector<std::vector<std::uint64_t>> words;
        if (sc.withOracle) {
            words = fault::buildSymbolWords(
                sc.net.numInputs(), spec.phiInput, ssym, opts.seed);
            const auto scalar =
                runScalarOracle(sc.net, spec, opts, words);
            if (digestScalar(scalar, lanes) != digestPacked(packed)) {
                std::cerr << "FATAL: verdict digest mismatch on "
                          << sc.name << "\n";
                return 1;
            }
        }

        Row row;
        row.name = sc.name;
        row.gates = static_cast<std::size_t>(sc.net.numGates());
        row.faults = packed.faults.size();
        row.symbols = ssym;
        row.lanes = lanes;
        row.hasScalar = sc.withOracle;
        row.hasWidths = sc.withWidths;
        // The scalar oracle is orders of magnitude slower than every
        // packed configuration; one untimed-warmup-free pass keeps the
        // benchmark runnable while the packed timings get the full
        // warmup + reps treatment.
        if (sc.withOracle)
            row.scalar = bench::timeStats(
                [&] { runScalarOracle(sc.net, spec, opts, words); },
                /*reps=*/1, /*warmup=*/0);
        row.packed = bench::timeStats(
            [&] { fault::runSequentialCampaign(sc.net, spec, opts); },
            sreps, swarm);
        row.batchOff = bench::timeStats(
            [&] { oracle::runPerFaultSeqCampaign(sc.net, spec, opts); },
            sreps, swarm);
        {
            fault::SeqCampaignOptions dopts = opts;
            dopts.seqDominance = false;
            row.seqdomOffSeconds =
                bench::timeStats(
                    [&] {
                        fault::runSequentialCampaign(sc.net, spec,
                                                     dopts);
                    },
                    sreps, swarm)
                    .best;
        }
        if (sc.withWidths) {
            for (int j : {2, 4, 8}) {
                fault::SeqCampaignOptions jopts = opts;
                jopts.jobs = j;
                row.jobsSeconds.emplace_back(
                    j, bench::timeStats(
                           [&] {
                               fault::runSequentialCampaign(sc.net, spec,
                                                            jopts);
                           },
                           sreps, swarm)
                           .best);
            }

            // Wide traces: same symbol budget, 4x / 8x the sampled
            // lanes per pass. At each width the verdict digest must
            // agree between portable and native dispatch and across
            // jobs.
            for (int wlanes : {64, 256, 512}) {
                fault::SeqCampaignOptions wopts = opts;
                wopts.lanes = wlanes;
                wopts.jobs = 1;
                wopts.simd = sim::SimdTarget::Auto;
                const auto nat =
                    fault::runSequentialCampaign(sc.net, spec, wopts);
                fault::SeqCampaignOptions popts = wopts;
                popts.simd = sim::SimdTarget::Portable;
                fault::SeqCampaignOptions jopts = wopts;
                jopts.jobs = 8;
                if (digestPacked(fault::runSequentialCampaign(
                        sc.net, spec, popts)) != digestPacked(nat) ||
                    digestPacked(fault::runSequentialCampaign(
                        sc.net, spec, jopts)) != digestPacked(nat)) {
                    std::cerr
                        << "FATAL: dispatch/jobs digest mismatch on "
                        << sc.name << " at " << wlanes << " lanes\n";
                    return 1;
                }
                WidthRow wr;
                wr.lanes = wlanes;
                wr.periodsSimulated =
                    static_cast<std::uint64_t>(nat.periodsSimulated);
                wr.stats = bench::timeStats(
                    [&] {
                        fault::runSequentialCampaign(sc.net, spec,
                                                     wopts);
                    },
                    sreps, swarm);
                row.widths.push_back(wr);
            }
        }
        rows.push_back(row);
        std::cerr << sc.name << ": packed " << row.packed.best
                  << "s, per-fault " << row.batchOff.best
                  << "s, speedup_fp " << row.speedupFp() << "x";
        if (row.hasScalar)
            std::cerr << ", scalar " << row.scalar.best << "s ("
                      << row.speedup() << "x)";
        if (row.hasWidths)
            std::cerr << ", 512v64 " << row.speedup512v64() << "x";
        std::cerr << "\n";
    }

    emitJson(std::cout, rows, native);
    std::ofstream f(out_path);
    emitJson(f, rows, native);
    return 0;
}
