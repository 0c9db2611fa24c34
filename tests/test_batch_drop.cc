/**
 * @file
 * What a pattern block cannot change (sim/batch_sim.hh, "Dropping"):
 *
 *  - sim::observabilityBound is sound: for every line that is not
 *    narrow, the lanes in which complementing it alone changes some
 *    output (FaultSimulator::replayFlips) lie inside its bound, in
 *    both phases, on every bundled combinational circuit and on
 *    random netlists, raw and hardened, at every lane width;
 *  - BatchClassifier::classifyBlock keeps its dropping contract when
 *    driven the way the campaign drives it (group-range chunks, tested
 *    flags from live lanes): a class it does not emit on a block has a
 *    zero `incorrect` mask there, and zero `anyErr` and `nonAlt` masks
 *    unless it was passed as tested; every mask it does emit equals
 *    FaultSimulator::classifyAlternatingWide's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/collapse.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/circuits.hh"
#include "sim/alternating.hh"
#include "sim/batch_sim.hh"
#include "sim/fault_sim.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using namespace netlist;

const char *const kBundledComb[] = {
    "c17.bench",  "add4.v",     "c432.bench",
    "c499.bench", "c880.bench", "c1908.bench",
};

/** A random combinational netlist whose fan-ins may also be
 *  constants and buffers, which are narrow lines too. */
Netlist
randomNetlistWithConstants(util::Rng &rng)
{
    Netlist net;
    std::vector<GateId> pool;
    const int ni = 2 + static_cast<int>(rng.below(5));
    for (int i = 0; i < ni; ++i)
        pool.push_back(net.addInput("x" + std::to_string(i)));
    pool.push_back(net.addConst(false));
    pool.push_back(net.addConst(true));
    const GateKind kinds[] = {GateKind::And, GateKind::Or,  GateKind::Nand,
                              GateKind::Nor, GateKind::Not, GateKind::Buf,
                              GateKind::Xor, GateKind::Maj};
    const int ng = 6 + static_cast<int>(rng.below(20));
    for (int g = 0; g < ng; ++g) {
        const GateKind kind = kinds[rng.below(8)];
        const int arity =
            kind == GateKind::Not || kind == GateKind::Buf ? 1
            : kind == GateKind::Maj                        ? 3
                                : 2 + static_cast<int>(rng.below(2));
        std::vector<GateId> fanin;
        for (int k = 0; k < arity; ++k)
            fanin.push_back(pool[rng.below(pool.size())]);
        pool.push_back(net.addGate(kind, std::move(fanin)));
    }
    const int no = 1 + static_cast<int>(rng.below(3));
    for (int j = 0; j < no; ++j)
        net.addOutput(pool[pool.size() - 1 - rng.below(4)],
                      "f" + std::to_string(j));
    return net;
}

/** Checked cases of the bound test: (line, phase, block) triples, and
 *  those whose bound left out some lane. */
struct BoundCounts
{
    long cases = 0;
    long narrowed = 0;
};

/**
 * Replay the flip of every line of @p net that is not narrow, alone,
 * on @p blocks random blocks at each lane width, and check its output
 * lanes against the bound.
 */
void
checkBound(const Netlist &net, const std::string &label, int blocks,
           util::Rng &rng, BoundCounts &counts)
{
    const sim::FlatNetlist flat(net);
    const std::vector<std::uint8_t> narrow = sim::narrowLines(flat);
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    for (const int W : {1, 4, 8}) {
        const std::size_t w = static_cast<std::size_t>(W);
        sim::FaultSimulator fs(flat, W);
        std::vector<std::uint64_t> in(
            static_cast<std::size_t>(flat.numInputs()) * w);
        std::vector<std::uint64_t> bound(n * w);
        for (int b = 0; b < blocks; ++b) {
            for (std::uint64_t &x : in)
                x = rng.next();
            fs.setAlternatingBlock(in);
            for (int p = 0; p < 2; ++p) {
                const std::uint64_t *good = fs.goodLines(p).data();
                sim::observabilityBound(flat, narrow, good, W, bound.data());
                for (GateId g = 0; g < flat.numGates(); ++g) {
                    if (narrow[g])
                        continue;
                    const std::uint64_t *u = bound.data() + g * w;
                    fs.replayFlips(&g, 1, p);
                    ++counts.cases;
                    for (std::size_t k = 0; k < w; ++k)
                        if (u[k] != ~std::uint64_t{0}) {
                            ++counts.narrowed;
                            break;
                        }
                    for (int j = 0; j < flat.numOutputs(); ++j) {
                        const GateId o = flat.output(j);
                        const std::uint64_t *fv = fs.lineValue(o, p);
                        const std::uint64_t *gv = good + o * w;
                        for (std::size_t k = 0; k < w; ++k)
                            ASSERT_EQ((fv[k] ^ gv[k]) & ~u[k], 0u)
                                << label << " W=" << W << " block " << b
                                << " phase " << p << " line " << g
                                << " output " << j << " word " << k;
                    }
                }
            }
        }
    }
}

TEST(BatchDrop, FlipLanesLieInsideTheBound)
{
    util::Rng rng(0xb0u);
    BoundCounts counts;
    for (const char *file : kBundledComb) {
        const Netlist raw =
            ingest::importCircuit(testing::bundledCircuitPath(file)).net;
        checkBound(raw, std::string(file) + " raw", 2, rng, counts);
        checkBound(ingest::hardenNetlist(raw).net,
                   std::string(file) + " hardened", 2, rng, counts);
    }
    for (int it = 0; it < 300; ++it) {
        const Netlist raw =
            it % 2 ? randomNetlistWithConstants(rng)
                   : testing::randomNetlist(
                         2 + static_cast<int>(rng.below(5)),
                         6 + static_cast<int>(rng.below(24)), rng);
        const std::string label = "random " + std::to_string(it);
        checkBound(raw, label + " raw", 2, rng, counts);
        checkBound(ingest::hardenNetlist(raw).net, label + " hardened", 2,
                   rng, counts);
    }
    // Not vacuous: many lines checked, and most bounds leave lanes out.
    EXPECT_GT(counts.cases, 100000);
    EXPECT_GT(counts.narrowed, counts.cases / 2);
}

/** Totals of one contract run, to show it is not vacuous. */
struct DropCounts
{
    std::uint64_t rootReplays = 0;
    std::uint64_t everyRoot = 0; ///< flip groups x blocks
    long dropped = 0;            ///< Flip/Cpt (class, block) not emitted
};

/**
 * Drive BatchClassifiers over @p net's campaign plan in three group
 * chunks, keeping the tested flags as the campaign does, and check
 * every class of every block against the per-class kernel.
 */
void
checkDropContract(const Netlist &net, const std::string &label, int W,
                  std::uint64_t num_patterns, std::uint64_t seed,
                  DropCounts &counts)
{
    const sim::FlatNetlist flat(net);
    const std::vector<Fault> faults = net.allFaults();
    const fault::CollapseResult col = fault::collapseFaults(
        net, {.constRefine = true, .dominance = true});
    const sim::FaultBatchPlan plan(flat, faults, col.classOf,
                                   col.representatives, col.pruned, true);
    const int ng = plan.numGroups();
    const int cuts[] = {0, ng / 3, 2 * ng / 3, ng};

    const std::size_t w = static_cast<std::size_t>(W);
    const std::uint64_t block_lanes = 64 * w;
    sim::FaultSimulator oracle(flat, W);
    for (int part = 0; part < 3; ++part) {
        const int g0 = cuts[part], g1 = cuts[part + 1];
        sim::FaultSimulator fs(flat, W);
        sim::BatchClassifier bc(fs, plan);
        bc.setRange(g0, g1);
        const std::size_t base = plan.classOffset(g0);
        const std::size_t size = plan.classOffset(g1) - base;
        std::vector<std::uint8_t> tested(size, 0);
        sim::PatternStream stream(flat.numInputs(), false, seed);
        std::vector<std::uint64_t> in(
            static_cast<std::size_t>(flat.numInputs()) * w);
        for (std::uint64_t first = 0; first < num_patterns;
             first += block_lanes) {
            const int lanes = static_cast<int>(
                std::min(block_lanes, num_patterns - first));
            stream.next(lanes, W, in.data());
            fs.setAlternatingBlock(in);
            oracle.setAlternatingBlock(in);
            std::vector<sim::WideMasks> got(size);
            std::vector<std::uint8_t> emitted(size, 0);
            bc.classifyBlock(
                [&](std::size_t pos, const sim::WideMasks &m) {
                    ASSERT_FALSE(emitted[pos - base]) << label;
                    emitted[pos - base] = 1;
                    got[pos - base] = m;
                },
                tested);
            for (std::size_t i = 0; i < size; ++i) {
                const int c = plan.classList()[base + i];
                const sim::WideMasks want = oracle.classifyAlternatingWide(
                    col.representatives[static_cast<std::size_t>(c)]);
                const std::string where =
                    label + " W=" + std::to_string(W) + " block " +
                    std::to_string(first / block_lanes) + " class " +
                    std::to_string(c);
                if (emitted[i]) {
                    EXPECT_EQ(got[i].anyErr, want.anyErr) << where;
                    EXPECT_EQ(got[i].nonAlt, want.nonAlt) << where;
                    EXPECT_EQ(got[i].incorrect, want.incorrect) << where;
                } else {
                    const sim::ClassRoute r = plan.routeOf(c);
                    if (r == sim::ClassRoute::Flip ||
                        r == sim::ClassRoute::Cpt)
                        ++counts.dropped;
                    for (std::size_t k = 0; k < w; ++k) {
                        EXPECT_EQ(want.incorrect[k], 0u) << where;
                        if (!tested[i]) {
                            EXPECT_EQ(want.anyErr[k], 0u) << where;
                            EXPECT_EQ(want.nonAlt[k], 0u) << where;
                        }
                    }
                }
                // Detected from live lanes only, as the campaign's
                // verdicts are.
                for (std::size_t k = 0; k < w; ++k) {
                    const int rem = lanes - 64 * static_cast<int>(k);
                    const std::uint64_t live =
                        rem <= 0    ? 0
                        : rem >= 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << rem) - 1;
                    if (emitted[i] && (got[i].anyErr[k] & live))
                        tested[i] = 1;
                }
            }
        }
        counts.rootReplays += bc.rootReplays();
    }
    const std::uint64_t blocks =
        (num_patterns + block_lanes - 1) / block_lanes;
    for (int g = 0; g < ng; ++g)
        if (!plan.rootCone(g).empty())
            counts.everyRoot += blocks;
}

TEST(BatchDrop, UnemittedClassesHaveNoMaskTheyCouldChange)
{
    const Netlist c880 = ingest::hardenNetlist(
        ingest::importCircuit(testing::bundledCircuitPath("c880.bench")).net)
        .net;
    const Netlist five =
        testing::disjointCopies(circuits::section36Network(), 5);
    util::Rng rng(0xd209u);
    std::vector<Netlist> randoms;
    for (int it = 0; it < 6; ++it)
        randoms.push_back(
            ingest::hardenNetlist(
                testing::randomNetlist(4 + static_cast<int>(rng.below(4)),
                                       16 + static_cast<int>(rng.below(24)),
                                       rng))
                .net);
    for (const int W : {1, 4, 8}) {
        // 1,000 patterns: the last block is partial at every width.
        DropCounts c;
        checkDropContract(c880, "hardened c880", W, 1000, 7, c);
        EXPECT_LT(c.rootReplays, c.everyRoot) << "W=" << W;
        EXPECT_GT(c.dropped, 0) << "W=" << W;

        DropCounts r;
        for (std::size_t i = 0; i < randoms.size(); ++i)
            checkDropContract(randoms[i],
                              "hardened random " + std::to_string(i), W,
                              1000, 11 + i, r);
        EXPECT_LT(r.rootReplays, r.everyRoot) << "W=" << W;
        EXPECT_GT(r.dropped, 0) << "W=" << W;

        // A self-dual network that is not hardened: its Unsafe classes
        // are Detected on the first block and stay wrong in both
        // periods of some lanes on every later one.
        DropCounts u;
        checkDropContract(five, "five section 3.6 copies", W, 1000, 3, u);
        EXPECT_GT(u.dropped, 0) << "W=" << W;
    }
}

} // namespace
} // namespace scal
