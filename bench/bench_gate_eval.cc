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
 *
 * A second, ungated row times the replayEvents kernel the fault
 * simulators run: every line is seeded and every primary input forced
 * to its complement, so each gate is recomputed once per call and most
 * of them diverge. It reports ns per recomputed gate, a kernel-level
 * number steadier than end-to-end campaign timings; the faulty lines
 * are digest-checked across targets at each width first.
 *
 * Emits machine-readable JSON (stdout and a file) for the CI
 * bench-results artifact.
 *
 * Usage: bench_gate_eval [--blocks N] [--reps N] [--out FILE]
 */

#include <algorithm>
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

/** One fault-replay call over a compiled scenario: every line seeded,
 *  every primary input forced to the complement of its good line. */
struct Replay
{
    const sim::FlatNetlist &flat;
    const sim::detail::WideKernels &k;
    std::size_t W;
    sim::WordVec good, faulty;
    std::vector<std::uint32_t> stamp, forced;
    std::vector<std::uint64_t> events;
    std::vector<const std::uint64_t *> ptrs;
    std::vector<netlist::GateId> seeds, inputGates;
    std::uint32_t epoch = 0;

    Replay(const sim::FlatNetlist &f, const sim::detail::WideKernels &kern,
           const std::vector<std::uint64_t> &inputs)
        : flat(f), k(kern), W(static_cast<std::size_t>(kern.laneWords))
    {
        const std::size_t n = static_cast<std::size_t>(flat.numGates());
        good.resize(n * W);
        faulty.resize(n * W);
        stamp.assign(n, 0);
        forced.assign(n, 0);
        events.assign(sim::detail::eventWords(flat), 0);
        ptrs.resize(static_cast<std::size_t>(std::max(1, flat.maxArity())));
        seeds = flat.topoOrder();
        for (const netlist::GateId g : seeds)
            if (flat.kind(g) == netlist::GateKind::Input)
                inputGates.push_back(g);
        k.evalLines(flat, inputs.data(), nullptr, -1, 0, good.data());
    }

    /** Replay once; returns the number of gates recomputed. */
    std::size_t
    run()
    {
        ++epoch;
        for (const netlist::GateId g : inputGates) {
            const std::size_t at = static_cast<std::size_t>(g) * W;
            for (std::size_t w = 0; w < W; ++w)
                faulty[at + w] = ~good[at + w];
            forced[g] = stamp[g] = epoch;
        }
        return k.replayEvents(flat, good.data(), faulty.data(),
                              stamp.data(), forced.data(), epoch, nullptr,
                              seeds.data(), seeds.size(), nullptr, 0,
                              nullptr, 0, events.data(), ptrs.data());
    }

    /** Digest of every word of every line as the replay left it. */
    std::uint64_t
    digest() const
    {
        std::uint64_t d = 0;
        for (std::size_t g = 0; g < stamp.size(); ++g)
            for (std::size_t w = 0; w < W; ++w) {
                d ^= (stamp[g] == epoch ? faulty : good)[g * W + w] *
                     0x9e3779b97f4a7c15ULL;
                d = (d << 7) | (d >> 57);
            }
        return d;
    }
};

struct ReplayCell
{
    sim::SimdTarget target = sim::SimdTarget::Portable;
    int lanes = 0;
    bench::TimingStats stats;
    std::size_t recomputed = 0;
    double nsPerGate = 0;
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

        // Replay: the faulty lines must agree across targets at each
        // width before the kernel is timed.
        std::vector<ReplayCell> replays;
        for (int lw : width_list) {
            const auto in = buildInputs(ni, lw, 0x5eed);
            std::uint64_t want = 0;
            std::size_t wantCount = 0;
            for (const sim::SimdTarget t : targets) {
                Replay r(flat, sim::wideKernels(lw, t), in);
                const std::size_t count = r.run();
                const std::uint64_t d = r.digest();
                if (t == targets[0]) {
                    want = d;
                    wantCount = count;
                }
                if (d != want || count != wantCount) {
                    std::cerr << "FATAL: replay digest mismatch on "
                              << sc.name << " at " << 64 * lw
                              << " lanes, "
                              << sim::simdTargetName(r.k.target)
                              << " kernels\n";
                    return 1;
                }
            }
        }
        for (const sim::SimdTarget t : targets) {
            for (int lw : width_list) {
                const auto &k = sim::wideKernels(lw, t);
                if (k.target != t)
                    continue; // build compiled out / not native
                Replay r(flat, k, buildInputs(ni, lw, 0x5eed));
                ReplayCell c;
                c.target = t;
                c.lanes = 64 * lw;
                c.stats = bench::timeStats(
                    [&] {
                        for (long b = 0; b < blocks; ++b)
                            c.recomputed = r.run();
                    },
                    reps);
                c.nsPerGate = 1e9 * c.stats.best /
                              (static_cast<double>(blocks) *
                               static_cast<double>(c.recomputed));
                replays.push_back(c);
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
        body << "],\n     \"replay_rows\": [";
        for (std::size_t i = 0; i < replays.size(); ++i) {
            const ReplayCell &c = replays[i];
            body << (i ? ", " : "") << "\n       {\"simd\": \""
                 << sim::simdTargetName(c.target)
                 << "\", \"lanes\": " << c.lanes << ", ";
            bench::emitStatsFields(body, "replay", c.stats);
            body << ", \"recomputed\": " << c.recomputed
                 << ", \"ns_per_gate\": " << c.nsPerGate << "}";
        }
        body << "]}";
        first_scenario = false;

        std::cerr << sc.name << ": " << cells.size() << " eval and "
                  << replays.size() << " replay (simd, lanes) cells timed\n";
    }
    body << "\n  ]\n}\n";

    std::cout << body.str();
    std::ofstream f(out_path);
    f << body.str();
    return 0;
}
