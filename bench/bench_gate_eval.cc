/**
 * @file
 * Raw gate-evaluation throughput microbenchmark: the evalLines wide
 * kernel (fault-free topological sweep, the innermost loop every
 * campaign and trace build runs) timed for each lane width (64 / 256
 * / 512 lanes per line) on every dispatch target the host supports
 * (portable, AVX2, AVX-512). Reports gate-words per second — one
 * gate-word is one 64-lane word of one gate's output — so a perfect
 * width scaling shows as flat seconds and Wx gate-word throughput.
 * Line values are digest-checked before timing: word 0 across every
 * (width, target) pair, and every word across targets at each width.
 * Emits machine-readable JSON (stdout and a file) for the CI
 * bench-results artifact.
 *
 * Usage: bench_gate_eval [--blocks N] [--reps N] [--out FILE]
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "netlist/circuits.hh"
#include "sim/flat.hh"
#include "sim/simd.hh"
#include "sim/wide.hh"
#include "util/rng.hh"

using namespace scal;
using netlist::Netlist;

namespace
{

struct Scenario
{
    std::string name;
    Netlist net;
};

/** One deterministic random input block per (scenario, width): word w
 *  of a wide block equals the narrow block of stream w, so line
 *  digests are comparable across widths. */
std::vector<std::uint64_t>
buildInputs(int ni, int lane_words, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::uint64_t> in(
        static_cast<std::size_t>(ni) * sim::kMaxLaneWords);
    for (int w = 0; w < sim::kMaxLaneWords; ++w)
        for (int i = 0; i < ni; ++i)
            in[static_cast<std::size_t>(i) * sim::kMaxLaneWords + w] =
                rng.next();
    std::vector<std::uint64_t> packed(
        static_cast<std::size_t>(ni) * lane_words);
    for (int i = 0; i < ni; ++i)
        for (int w = 0; w < lane_words; ++w)
            packed[static_cast<std::size_t>(i) * lane_words + w] =
                in[static_cast<std::size_t>(i) * sim::kMaxLaneWords + w];
    return packed;
}

/** Fold words [0, @p words) of each of the @p n lines (@p lane_words
 *  words apart). */
std::uint64_t
digestLines(const sim::WordVec &lines, int n, int lane_words, int words)
{
    std::uint64_t d = 0;
    for (int g = 0; g < n; ++g)
        for (int w = 0; w < words; ++w) {
            d ^= lines[static_cast<std::size_t>(g) * lane_words + w] *
                 0x9e3779b97f4a7c15ULL;
            d = (d << 7) | (d >> 57);
        }
    return d;
}

struct Cell
{
    sim::SimdTarget target = sim::SimdTarget::Portable;
    int lanes = 0;
    bench::TimingStats stats;
    double gateWordsPerSec = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    long blocks = 2048;
    int reps = 5;
    std::string out_path = "BENCH_gate_eval.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--blocks") && i + 1 < argc)
            blocks = std::strtol(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }
    const sim::SimdTarget native =
        sim::resolveSimdTarget(sim::SimdTarget::Auto);

    std::vector<Scenario> scenarios;
    scenarios.push_back(
        {"rca32", netlist::circuits::rippleCarryAdder(32)});
    scenarios.push_back(
        {"section36", netlist::circuits::section36Network()});

    const sim::SimdTarget targets[] = {sim::SimdTarget::Portable,
                                       sim::SimdTarget::Avx2,
                                       sim::SimdTarget::Avx512};
    const int width_list[] = {1, 4, 8};

    std::ostringstream body;
    bool first_scenario = true;
    body << "{\n  \"benchmark\": \"gate_eval\",\n  \"unit\": "
            "\"gate_words/s\",\n  \"simd_native\": \""
         << sim::simdTargetName(native) << "\",\n  \"blocks\": "
         << blocks << ",\n  \"reps\": " << reps
         << ",\n  \"warmup\": 1,\n  \"scenarios\": [\n";
    for (const Scenario &sc : scenarios) {
        const sim::FlatNetlist flat(sc.net);
        const int n = flat.numGates();
        const int ni = flat.numInputs();

        // Every (width, target) pair must produce identical lines
        // before timing: word 0 (present at every width) across
        // widths, since word w of a wide block is narrow stream w, and
        // every word across targets at each width.
        std::uint64_t want = 0;
        for (int lw : width_list) {
            const auto in = buildInputs(ni, lw, 0x5eed);
            sim::WordVec lines(static_cast<std::size_t>(n) * lw);
            std::uint64_t wantFull = 0;
            for (const sim::SimdTarget t : targets) {
                const auto &k = sim::wideKernels(lw, t);
                k.evalLines(flat, in.data(), nullptr, -1, 0,
                            lines.data());
                const std::uint64_t d = digestLines(lines, n, lw, 1);
                const std::uint64_t full = digestLines(lines, n, lw, lw);
                if (t == targets[0]) {
                    wantFull = full;
                    if (lw == width_list[0])
                        want = d;
                }
                if (d != want || full != wantFull) {
                    std::cerr << "FATAL: line digest mismatch on "
                              << sc.name << " at " << 64 * lw
                              << " lanes, "
                              << sim::simdTargetName(k.target)
                              << " kernels ("
                              << (d != want ? "word 0" : "full line")
                              << ")\n";
                    return 1;
                }
            }
        }

        std::vector<Cell> cells;
        for (const sim::SimdTarget t : targets) {
            for (int lw : width_list) {
                const auto &k = sim::wideKernels(lw, t);
                if (k.target != t)
                    continue; // build compiled out / not native
                const auto in = buildInputs(ni, lw, 0x5eed);
                sim::WordVec lines(static_cast<std::size_t>(n) * lw);
                Cell c;
                c.target = t;
                c.lanes = 64 * lw;
                volatile std::uint64_t sink = 0;
                c.stats = bench::timeStats(
                    [&] {
                        for (long b = 0; b < blocks; ++b)
                            k.evalLines(flat, in.data(), nullptr, -1, 0,
                                        lines.data());
                        sink = lines[0];
                    },
                    reps);
                (void)sink;
                c.gateWordsPerSec = static_cast<double>(n) * lw *
                                    static_cast<double>(blocks) /
                                    c.stats.best;
                cells.push_back(c);
            }
        }

        body << (first_scenario ? "" : ",\n") << "    {\"name\": \""
             << sc.name << "\", \"gates\": " << n << ", \"rows\": [";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            body << (i ? ", " : "") << "\n       {\"simd\": \""
                 << sim::simdTargetName(c.target)
                 << "\", \"lanes\": " << c.lanes << ", ";
            bench::emitStatsFields(body, "eval", c.stats);
            body << ", \"gate_words_per_s\": " << c.gateWordsPerSec
                 << "}";
        }
        body << "]}";
        first_scenario = false;

        std::cerr << sc.name << ": " << cells.size()
                  << " (simd, lanes) cells timed\n";
    }
    body << "\n  ]\n}\n";

    std::cout << body.str();
    std::ofstream f(out_path);
    f << body.str();
    return 0;
}
