/**
 * @file
 * Fault-simulation kernel benchmark, three generations of the
 * campaign inner loop on identical pattern blocks:
 *
 *  - `ref`: the pre-change reference (PackedEvaluator full
 *    resimulation per fault per 64-lane block),
 *  - `cone`: the cone-restricted FaultSimulator, one replay per
 *    collapsed fault, at 64/256/512 lanes,
 *  - `fp`: the fault-parallel path (FaultBatchPlan + BatchClassifier:
 *    dominance pruning, disjoint-cone batching, flip passes and
 *    critical-path tracing) at the same widths.
 *
 * Scenarios cover the paper's built-in circuits plus the bundled
 * `-class` netlists (c432/c880/c1908) run through the real
 * import-and-harden pipeline. Digests of the per-fault outcomes
 * (tested, unsafe) are cross-checked between all kernels, lane widths
 * and dispatch targets before any timing; the full resimulation
 * reference is skipped on the hardened circuits where it would take
 * minutes per repetition (`cone` is the oracle there — itself
 * digest-checked against `ref` on every scenario that affords it).
 * Results are emitted as machine-readable
 * JSON (stdout and a file) so CI can archive the numbers. Every
 * timing is a warmed-up best/median/stddev over --reps repetitions
 * (bench_stats.hh).
 *
 * Usage: bench_fault_sim [--circuits DIR] [--max-patterns N]
 *                        [--reps N] [--out FILE]
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "fault/collapse.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/circuits.hh"
#include "oracle/packed_evaluator.hh"
#include "sim/batch_sim.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "sim/simd.hh"
#include "system/alu.hh"
#include "util/rng.hh"

using namespace scal;
using netlist::Fault;
using netlist::Netlist;

namespace
{

struct Scenario
{
    std::string name;
    Netlist net;
    /** Full-resimulation reference is affordable (small circuits
     *  only; on the hardened bundled netlists it would take minutes
     *  per repetition). */
    bool withRef = true;
};

/** One packed input block of 64 * laneWords lanes (campaign layout:
 *  input i at words [i*W, i*W+W), lane l at bit l%64 of word l/64). */
struct WideBlock
{
    std::vector<std::uint64_t> in;
    int lanes = 0;

    std::uint64_t
    laneMask(int word) const
    {
        const int rem = lanes - 64 * word;
        if (rem <= 0)
            return 0;
        if (rem >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << rem) - 1;
    }
};

/** Packed input blocks, exhaustive or seeded-sampled. The pattern
 *  stream is identical at every width (ascending order, one Rng draw
 *  per sampled pattern), so verdict digests are width-invariant. */
std::vector<WideBlock>
buildBlocks(int ni, std::uint64_t max_patterns, int lane_words,
            std::uint64_t &applied)
{
    const bool exhaustive =
        ni < 63 && (std::uint64_t{1} << ni) <= max_patterns;
    applied = exhaustive ? (std::uint64_t{1} << ni) : max_patterns;
    const std::uint64_t block_lanes =
        static_cast<std::uint64_t>(64) * lane_words;
    util::Rng rng(1);
    std::vector<WideBlock> blocks;
    for (std::uint64_t base = 0; base < applied; base += block_lanes) {
        WideBlock blk;
        blk.lanes = static_cast<int>(
            std::min<std::uint64_t>(block_lanes, applied - base));
        blk.in.assign(static_cast<std::size_t>(ni) * lane_words, 0);
        for (int l = 0; l < blk.lanes; ++l) {
            const std::uint64_t pat = exhaustive ? base + l : rng.next();
            const std::size_t word = static_cast<std::size_t>(l) / 64;
            const std::uint64_t bit = std::uint64_t{1} << (l % 64);
            for (int i = 0; i < ni; ++i)
                if ((pat >> i) & 1)
                    blk.in[static_cast<std::size_t>(i) * lane_words +
                           word] |= bit;
        }
        blocks.push_back(std::move(blk));
    }
    return blocks;
}

/**
 * Per-fault outcomes as the campaign derives them from each block's
 * masks (accumulateVerdict in fault/campaign.cc): tested once an
 * active lane of some block errs, unsafe once an active lane of some
 * block alternates incorrectly. The fault-parallel arm drops classes a
 * block cannot change, which leaves their masks partial by contract,
 * so the arms are compared on outcomes, not masks.
 */
struct Outcomes
{
    explicit Outcomes(std::size_t n) : tested(n, 0), unsafe(n, 0) {}

    /** Fold one block's masks of @p k, over the active lanes only. */
    void
    add(std::size_t k, const sim::WideMasks &m, const WideBlock &blk,
        int lane_words)
    {
        for (int w = 0; w < lane_words; ++w) {
            const std::uint64_t lm = blk.laneMask(w);
            tested[k] |= (m.anyErr[static_cast<std::size_t>(w)] & lm) != 0;
            unsafe[k] |= (m.unsafeWord(w) & lm) != 0;
        }
    }

    /** Digest of the outcomes of the faults, each fault reading the
     *  entry @p index_of maps it to (identity when empty). */
    std::uint64_t
    digest(std::size_t faults, const std::vector<int> &index_of = {}) const
    {
        std::uint64_t d = 0;
        for (std::size_t i = 0; i < faults; ++i) {
            const std::size_t k =
                index_of.empty() ? i : static_cast<std::size_t>(index_of[i]);
            d ^= (tested[k] + 2u * unsafe[k] + 1u) * 0x9e3779b97f4a7c15ULL;
            d = (d << 7) | (d >> 57);
        }
        return d;
    }

    std::vector<std::uint8_t> tested, unsafe;
};

/** The campaign inner loop as it was before the cone kernel: full
 *  packed resimulation of the whole netlist, twice per fault per
 *  64-lane block. Returns a digest of the per-fault outcomes. */
std::uint64_t
runReferenceKernel(const Netlist &net, const std::vector<Fault> &faults,
                   const std::vector<WideBlock> &blocks)
{
    const oracle::PackedEvaluator pe(net);
    Outcomes out(faults.size());
    for (const WideBlock &blk : blocks) {
        const auto &in = blk.in; // one word per input at lane_words == 1
        std::vector<std::uint64_t> inbar(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
            inbar[i] = ~in[i];
        const auto good = pe.evalOutputs(in);
        for (std::size_t k = 0; k < faults.size(); ++k) {
            const auto f1 = pe.evalOutputs(in, &faults[k]);
            const auto f2 = pe.evalOutputs(inbar, &faults[k]);
            sim::WideMasks m;
            for (std::size_t j = 0; j < f1.size(); ++j) {
                const std::uint64_t err1 = f1[j] ^ good[j];
                const std::uint64_t err2 = f2[j] ^ ~good[j];
                m.anyErr[0] |= err1 | err2;
                m.nonAlt[0] |= ~(f1[j] ^ f2[j]);
                m.incorrect[0] |= err1 & err2;
            }
            out.add(k, m, blk, 1);
        }
    }
    return out.digest(faults.size());
}

/** The cone-restricted kernel, one replay per fault, at any lane
 *  width and dispatch target. Outcomes are folded over the active
 *  lanes only, so the digest is identical at every (width, target)
 *  pair. */
std::uint64_t
runWideKernel(const sim::FlatNetlist &flat,
              const std::vector<Fault> &faults,
              const std::vector<WideBlock> &blocks, int lane_words,
              sim::SimdTarget target)
{
    sim::FaultSimulator fs(flat, lane_words, target);
    Outcomes out(faults.size());
    for (const WideBlock &blk : blocks) {
        fs.setAlternatingBlock(blk.in);
        for (std::size_t k = 0; k < faults.size(); ++k)
            out.add(k, fs.classifyAlternatingWide(faults[k]), blk,
                    lane_words);
    }
    return out.digest(faults.size());
}

/**
 * The campaign's classify loop (classifyGroupChunk in
 * fault/campaign.cc) over one range of every group: dominance pruning
 * + disjoint-cone batching + flip passes + CPT over the collapsed
 * classes, with the Detected classes passed back as tested flags so
 * the classifier drops what a block cannot change. Class outcomes are
 * expanded to faults through classOf, so the digest is directly
 * comparable with the per-fault kernels'.
 */
std::uint64_t
runFaultParallelKernel(const sim::FlatNetlist &flat,
                       const std::vector<Fault> &faults,
                       const fault::CollapseResult &col,
                       const sim::FaultBatchPlan &plan,
                       const std::vector<WideBlock> &blocks,
                       int lane_words, sim::SimdTarget target)
{
    sim::FaultSimulator fs(flat, lane_words, target);
    sim::BatchClassifier bc(fs, plan);
    bc.setRange(0, plan.numGroups());
    Outcomes cls(col.representatives.size());
    std::vector<std::uint8_t> tested(plan.classOffset(plan.numGroups()), 0);
    for (const WideBlock &blk : blocks) {
        fs.setAlternatingBlock(blk.in);
        bc.classifyBlock(
            [&](std::size_t pos, const sim::WideMasks &m) {
                const auto c =
                    static_cast<std::size_t>(plan.classList()[pos]);
                cls.add(c, m, blk, lane_words);
                tested[pos] = cls.tested[c];
            },
            tested);
    }
    return cls.digest(faults.size(), col.classOf);
}

/** Timing for one kernel at one lane width (native dispatch). */
struct WidthRow
{
    int lanes = 0;
    bench::TimingStats stats;
    bench::TimingStats fp; ///< fault-parallel kernel, same width
};

struct Row
{
    std::string name;
    std::size_t gates = 0;
    std::size_t faults = 0;
    std::uint64_t patterns = 0;
    bool hasRef = true;
    bench::TimingStats ref;
    std::vector<WidthRow> widths; // ascending lanes; widths[0] is 64

    double throughput(double seconds) const
    {
        return static_cast<double>(faults) *
               static_cast<double>(patterns) / seconds;
    }
    /** ref vs the 64-lane cone kernel (the historical headline). */
    double speedup() const
    {
        return ref.best / widths.front().stats.best;
    }
    /** 512-lane vs 64-lane cone kernel, both native dispatch. */
    double speedup512v64() const
    {
        return widths.front().stats.best / widths.back().stats.best;
    }
    /** Fault-parallel vs per-fault cone kernel at the widest lanes:
     *  the campaign-default configuration, the headline this PR
     *  targets. */
    double speedupFp() const
    {
        return widths.back().stats.best / widths.back().fp.best;
    }
};

void
emitJson(std::ostream &os, const std::vector<Row> &rows,
         sim::SimdTarget native)
{
    // The wide geomean only counts scenarios whose pattern budget
    // fills at least one 512-lane block; a circuit whose exhaustive
    // space is a handful of patterns (section36: 8) has nothing for
    // the extra lanes to do and would just measure block overhead.
    double log_sum = 0, log_sum_wide = 0, log_sum_fp = 0;
    int ref_n = 0, wide_n = 0;
    os << "{\n  \"benchmark\": \"fault_sim\",\n  \"unit\": "
          "\"faults*patterns/s\",\n  \"simd\": \""
       << sim::simdTargetName(native) << "\",\n  \"reps\": "
       << rows.front().ref.reps << ",\n  \"warmup\": "
       << rows.front().ref.warmup << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        if (r.hasRef) {
            log_sum += std::log(r.speedup());
            ++ref_n;
        }
        log_sum_fp += std::log(r.speedupFp());
        if (r.patterns >= 512) {
            log_sum_wide += std::log(r.speedup512v64());
            ++wide_n;
        }
        os << "    {\"name\": \"" << r.name << "\", \"gates\": "
           << r.gates << ", \"faults\": " << r.faults
           << ", \"patterns\": " << r.patterns << ", ";
        if (r.hasRef) {
            bench::emitStatsFields(os, "ref", r.ref);
            os << ", ";
        }
        bench::emitStatsFields(os, "cone", r.widths.front().stats);
        if (r.hasRef)
            os << ", \"ref_throughput\": " << r.throughput(r.ref.best);
        os << ", \"cone_throughput\": "
           << r.throughput(r.widths.front().stats.best);
        if (r.hasRef)
            os << ", \"speedup\": " << r.speedup();
        os << ",\n     \"widths\": [";
        for (std::size_t w = 0; w < r.widths.size(); ++w) {
            const WidthRow &wr = r.widths[w];
            os << (w ? ", " : "") << "\n       {\"lanes\": " << wr.lanes
               << ", ";
            bench::emitStatsFields(os, "cone", wr.stats);
            os << ", ";
            bench::emitStatsFields(os, "fp", wr.fp);
            os << ", \"throughput\": " << r.throughput(wr.stats.best)
               << ", \"fp_throughput\": " << r.throughput(wr.fp.best)
               << ", \"speedup_vs_64\": "
               << r.widths.front().stats.best / wr.stats.best
               << ", \"fp_speedup_vs_cone\": "
               << wr.stats.best / wr.fp.best << "}";
        }
        os << "],\n     \"speedup_512v64\": " << r.speedup512v64()
           << ",\n     \"speedup_fp\": " << r.speedupFp() << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    const double n = static_cast<double>(rows.size());
    os << "  ],\n  \"geomean_speedup\": "
       << (ref_n ? std::exp(log_sum / ref_n) : 1.0)
       << ",\n  \"geomean_speedup_512v64\": "
       << (wide_n ? std::exp(log_sum_wide / wide_n) : 1.0)
       << ",\n  \"geomean_512v64_scenarios\": " << wide_n
       << ",\n  \"geomean_speedup_fp\": " << std::exp(log_sum_fp / n)
       << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "circuits";
    std::uint64_t max_patterns = std::uint64_t{1} << 14;
    int reps = 5;
    std::string out_path = "BENCH_fault_sim.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--circuits") && i + 1 < argc)
            dir = argv[++i];
        else if (!std::strcmp(argv[i], "--max-patterns") && i + 1 < argc)
            max_patterns = std::strtoull(argv[++i], nullptr, 0);
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
    const sim::SimdTarget native =
        sim::resolveSimdTarget(sim::SimdTarget::Auto);
    const int width_list[] = {1, 4, 8};

    std::vector<Scenario> scenarios;
    scenarios.push_back(
        {"section36", netlist::circuits::section36Network()});
    scenarios.push_back(
        {"rca16", netlist::circuits::rippleCarryAdder(16)});
    scenarios.push_back(
        {"alu_add8", system::aluNetlist(system::AluOp::Add, 8)});
    // The bundled `-class` circuits through the real pipeline: the
    // hardened machines the fault-parallel path was built for. Full
    // resimulation is skipped there (minutes per repetition); the
    // cone kernel doubles as the digest oracle.
    for (const char *name : {"c432", "c880", "c1908"}) {
        const std::string path = dir + "/" + name + ".bench";
        if (!std::ifstream(path)) {
            std::cerr << "skipping missing " << path << "\n";
            continue;
        }
        const ingest::ImportedCircuit circ = ingest::importCircuit(path);
        scenarios.push_back({std::string(name) + "_hardened",
                             ingest::hardenNetlist(circ.net).net,
                             /*withRef=*/false});
    }

    std::vector<Row> rows;
    for (const Scenario &sc : scenarios) {
        const std::vector<Fault> faults = sc.net.allFaults();
        const int ni = sc.net.numInputs();
        const sim::FlatNetlist flat(sc.net);
        // The collapse/plan the default campaign path builds (the
        // plan is configuration-independent, so one per scenario).
        const fault::CollapseResult col = fault::collapseFaults(
            sc.net, {.constRefine = true, .dominance = true});
        const sim::FaultBatchPlan plan(flat, faults, col.classOf,
                                       col.representatives, col.pruned,
                                       /*enable_cpt=*/true);

        // Verdicts must agree — between the reference, cone, and
        // fault-parallel kernels, across every lane width, and
        // between portable and native dispatch — before timing means
        // anything. On scenarios without an affordable full
        // resimulation the cone kernel anchors the digest.
        std::uint64_t applied = 0;
        const auto narrow = buildBlocks(ni, max_patterns, 1, applied);
        const std::uint64_t want =
            sc.withRef ? runReferenceKernel(sc.net, faults, narrow)
                       : runWideKernel(flat, faults, narrow, 1, native);
        for (int lw : width_list) {
            const auto blocks = buildBlocks(ni, max_patterns, lw, applied);
            if (runWideKernel(flat, faults, blocks, lw, native) != want ||
                runWideKernel(flat, faults, blocks, lw,
                              sim::SimdTarget::Portable) != want) {
                std::cerr << "FATAL: kernel digest mismatch on "
                          << sc.name << " at " << 64 * lw << " lanes\n";
                return 1;
            }
            if (runFaultParallelKernel(flat, faults, col, plan, blocks,
                                       lw, native) != want ||
                runFaultParallelKernel(flat, faults, col, plan, blocks,
                                       lw, sim::SimdTarget::Portable) !=
                    want) {
                std::cerr << "FATAL: fault-parallel digest mismatch on "
                          << sc.name << " at " << 64 * lw << " lanes\n";
                return 1;
            }
        }

        Row row;
        row.name = sc.name;
        row.gates = static_cast<std::size_t>(sc.net.numGates());
        row.faults = faults.size();
        row.patterns = applied;
        row.hasRef = sc.withRef;
        if (sc.withRef)
            row.ref = bench::timeStats(
                [&] { runReferenceKernel(sc.net, faults, narrow); },
                reps);
        for (int lw : width_list) {
            const auto blocks = buildBlocks(ni, max_patterns, lw, applied);
            WidthRow wr;
            wr.lanes = 64 * lw;
            wr.stats = bench::timeStats(
                [&] { runWideKernel(flat, faults, blocks, lw, native); },
                reps);
            wr.fp = bench::timeStats(
                [&] {
                    runFaultParallelKernel(flat, faults, col, plan,
                                           blocks, lw, native);
                },
                reps);
            row.widths.push_back(wr);
        }
        rows.push_back(row);
        std::cerr << sc.name << ": "
                  << (row.hasRef
                          ? "ref " + std::to_string(row.ref.best) + "s, "
                          : std::string())
                  << "cone64 " << row.widths.front().stats.best
                  << "s, cone512 " << row.widths.back().stats.best
                  << "s, fp512 " << row.widths.back().fp.best
                  << "s, 512v64 " << row.speedup512v64() << "x, fp "
                  << row.speedupFp() << "x\n";
    }

    emitJson(std::cout, rows, native);
    std::ofstream f(out_path);
    emitJson(f, rows, native);
    return 0;
}
