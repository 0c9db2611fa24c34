/**
 * @file
 * The benchmark program:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--out-dir DIR]
 *   perfbench --write-golden FILE [--root DIR]
 *
 * One run sets the workload up three times (setup_s is the median),
 * then runs passes over the workload's fixed request list until S
 * seconds have passed. Untraced runs (--trace 0) report the
 * end-to-end metrics; traced runs (--trace 1) alternate untraced and
 * traced passes, run the per-layer probes, report the per-layer
 * metrics and write a Chrome trace-event file. Every metric is
 * printed as "name value unit"; the last line of standard output is
 * the JSON result. The exit status is nonzero when any operation
 * failed, a verdict digest or work counter differed from the golden
 * file, or the calibration kernel computed a wrong result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "calib.hh"
#include "stats.hh"
#include "workload.hh"

using namespace perfbench;

namespace
{

/** Metrics a traced run reports on every workload (BENCHMARK.json's
 *  per_layer list); each workload reports more on stdout. */
const char *const kLayerMetrics[] = {
    "ingest.parse_s",   "ingest.harden_s",       "sim.flat_compile_s",
    "fault.collapse_s", "fault.engine_s",        "fault.fixed_s",
    "fault.report.encode_s", "fault.classes", "sim.calib_gate_words_per_s",
    "trace.coverage",   "trace.overhead_pct",
};

/** Digest of one unit of calibration work, on every host. */
constexpr std::uint64_t kCalibrationDigest = 0x19721726c45e09a8;

constexpr int kSetups = 3;
constexpr int kUnitsPerPass = 2;
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 5000;

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--out-dir DIR]\n"
                 "       perfbench --write-golden FILE [--root DIR]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 64;
}

void
print(const Metric &m)
{
    std::cout << m.name << " " << jsonNumber(m.value) << " " << m.unit << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    cfg.root = ".";
    cfg.outDir = ".bench_build/perfbench-out";
    std::string workload, goldenOut;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 0);
        else if (a == "--seconds")
            cfg.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            cfg.trace = v != "0";
        else if (a == "--root")
            cfg.root = v;
        else if (a == "--out-dir")
            cfg.outDir = v;
        else if (a == "--write-golden")
            goldenOut = v;
        else
            return usage();
    }
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    cfg.threads = static_cast<int>(std::min(4u, hw));

    try {
        if (!goldenOut.empty()) {
            const Golden g = buildGolden(cfg);
            g.write(goldenOut);
            std::cerr << "wrote " << g.size() << " golden entries to "
                      << goldenOut << "\n";
            return 0;
        }
        const Golden golden =
            Golden::load(cfg.root + "/perfbench/golden/verdicts.tsv");
        Outcome outcome;
        const std::unique_ptr<Workload> wl =
            makeWorkload(workload, cfg, golden, outcome);
        if (!wl)
            return usage();

        // Set-up, several times: the calibration kernel, then the
        // workload's own set-up (load files, start services, warm up).
        // The set-up calibration is single-threaded on every workload:
        // a multi-threaded unit swings with the load on the machine,
        // which would swamp the program's own set-up cost.
        std::vector<double> setups, calibRates;
        bool calibOk = true;
        for (int k = 0; k < kSetups; ++k) {
            if (k)
                wl->tearDown();
            const auto t0 = trace::Clock::now();
            const Calibration c = calibrate(3, 1);
            wl->setUp();
            setups.push_back(since(t0));
            calibRates.push_back(c.gateWordsPerSecond);
            if (c.digest != kCalibrationDigest)
                calibOk = false;
        }

        // Passes until the time is up; traced runs alternate.
        trace::Recorder rec;
        std::vector<double> plain, traced, units;
        const auto deadline =
            trace::Clock::now() + std::chrono::duration_cast<trace::Clock::duration>(
                                      std::chrono::duration<double>(cfg.seconds));
        double workPerPass = 0;
        for (int i = 0; i < kMaxPasses; ++i) {
            const bool enough =
                static_cast<int>(plain.size()) >= kMinPasses &&
                (!cfg.trace || static_cast<int>(traced.size()) >= kMinPasses);
            if (enough && trace::Clock::now() >= deadline)
                break;
            const bool tracedPass = cfg.trace && i % 2 == 1;
            // Calibration units before each pass: norm_cost divides
            // the median pass by the median unit of the same stretch.
            for (int u = 0; u < kUnitsPerPass; ++u)
                units.push_back(calibrate(1, wl->parallelism()).seconds);
            wl->beforePass(i);
            const auto t0 = trace::Clock::now();
            if (tracedPass) {
                rec.beginPass();
                wl->pass(&rec);
                rec.endPass();
            } else {
                wl->pass(nullptr);
            }
            (tracedPass ? traced : plain).push_back(since(t0));
            wl->afterPass(i);
            if (!tracedPass)
                workPerPass = wl->workPerPass();
        }
        if (cfg.trace) {
            rec.setProbe(true);
            wl->probe(rec);
            rec.setProbe(false);
        }
        wl->tearDown();

        Report report;
        wl->finish(plain, cfg.trace ? &rec : nullptr, report);
        const double wall = median(plain);

        // BENCHMARK.json's end_to_end list: the metrics every workload
        // reports and that stay steady on a shared machine.
        const std::vector<Metric> e2e = {
            {"norm_cost", wall / median(units), "ratio"},
            {"setup_s", median(setups), "s"},
        };
        // Printed, not in the result line: raw pass time and peak RSS
        // drift with the machine and with thread-arena timing.
        std::vector<Metric> extra = {
            {"wall_s", wall, "s"},
            {"calib_s", median(units), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        extra.insert(extra.end(), report.endToEnd.begin(),
                     report.endToEnd.end());
        if (workPerPass > 0)
            extra.push_back(
                {"fault_patterns_per_s", workPerPass / wall, "1/s"});
        extra.push_back({"failed_frac",
                         outcome.attempted()
                             ? static_cast<double>(outcome.failed()) /
                                   static_cast<double>(outcome.attempted())
                             : 1.0,
                         "ratio"});

        std::vector<Metric> layers = report.layers;
        if (cfg.trace) {
            std::vector<double> cov;
            const auto spans = rec.spans();
            for (const int p : rec.passSpans())
                cov.push_back(trace::coverage(spans, p));
            layers.push_back({"sim.calib_gate_words_per_s", median(calibRates),
                              "1/s"});
            layers.push_back({"trace.coverage", median(cov), "ratio"});
            layers.push_back({"trace.overhead_pct",
                              100.0 * (median(traced) - wall) / wall, "%"});
            std::filesystem::create_directories(cfg.outDir);
            const std::string path = cfg.outDir + "/trace-" + workload +
                                     "-seed" + std::to_string(cfg.seed) +
                                     ".json";
            std::ofstream(path) << rec.chromeJson();
            std::cout << "trace file " << path << "\n";
        }

        std::cout << "workload " << workload << " seed " << cfg.seed
                  << " passes " << plain.size() << " untraced, "
                  << traced.size() << " traced, threads " << cfg.threads
                  << "\n";
        for (const Metric &m : e2e)
            print(m);
        for (const Metric &m : extra)
            print(m);
        for (const Metric &m : layers)
            print(m);
        const Quartiles pq = quartiles(plain);
        const Quartiles uq = quartiles(units);
        std::printf("untraced pass seconds q1 %.4f median %.4f q3 %.4f\n"
                    "calibration unit seconds q1 %.4f median %.4f q3 %.4f\n",
                    pq.q1, pq.q2, pq.q3, uq.q1, uq.q2, uq.q3);
        for (const std::string &n : report.notes)
            std::cout << n << "\n";

        const std::vector<std::string> reasons = outcome.reasons();
        for (const std::string &why : reasons)
            std::cerr << "FAILED: " << why << "\n";
        if (!calibOk)
            std::cerr << "FAILED: calibration kernel digest mismatch\n";
        const bool correct =
            outcome.failed() == 0 && outcome.attempted() > 0 && calibOk;

        // The result line: every end-to-end metric untraced, every
        // per_layer metric traced.
        std::string metrics;
        auto emit = [&](const Metric &m) {
            metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
                       m.name + "\": {\"value\": " + jsonNumber(m.value) +
                       ", \"unit\": \"" + m.unit + "\"}";
        };
        if (cfg.trace) {
            for (const char *name : kLayerMetrics) {
                const auto it =
                    std::find_if(layers.begin(), layers.end(),
                                 [&](const Metric &m) { return m.name == name; });
                if (it == layers.end()) {
                    std::cerr << "FAILED: layer metric " << name
                              << " not measured\n";
                    return 1;
                }
                emit(*it);
            }
        } else {
            for (const Metric &m : e2e)
                emit(m);
        }
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << outcome.attempted()
                  << ", \"failed\": " << outcome.failed()
                  << ", \"metrics\": {" << metrics << "}}" << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
