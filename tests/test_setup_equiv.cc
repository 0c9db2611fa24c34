/**
 * @file
 * Equivalence tests for the campaign set-up stages against their
 * plain references in tests/oracle/setup_reference.hh:
 *
 *  - fault::collapseFaults (dense fault index) returns exactly the
 *    map-indexed collapse's CollapseResult on every bundled circuit,
 *    raw and hardened, under every option setting, and on random
 *    netlists with constants and flip-flops;
 *  - sim::fanoutCones / sim::fanoutConeSizes (one tiled bitset pass)
 *    give the depth-first cones, and so do the FaultBatchPlan cone
 *    and reachable-output sets built on them;
 *  - sim::planSeqBatches (sorted precomputed keys) packs the sites in
 *    the order of a stable sort by injection root;
 *  - sim::isAlternatingNetwork (the wide good-value kernel) agrees
 *    with the scalar loop, exhaustive and budgeted, on self-dual and
 *    non-self-dual networks, and sim::PatternStream packs the stream
 *    the scalar loop reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "fault/collapse.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/circuits.hh"
#include "oracle/setup_reference.hh"
#include "sim/alternating.hh"
#include "sim/batch_sim.hh"
#include "sim/seq_batch_sim.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using namespace netlist;

const char *const kBundled[] = {
    "c17.bench",  "add4.v",      "c432.bench", "c499.bench",
    "c880.bench", "c1908.bench", "s27.bench",  "lfsr8.v",
    "s298.bench", "s344.bench",  "s386.bench", "s1488-class.bench",
    "s5378-class.bench",
};

struct Case
{
    std::string label;
    Netlist net;
};

/** Every bundled circuit, raw and hardened. */
const std::vector<Case> &
bundledCases()
{
    static const std::vector<Case> cases = [] {
        std::vector<Case> out;
        for (const char *file : kBundled) {
            Netlist raw =
                ingest::importCircuit(testing::bundledCircuitPath(file)).net;
            Netlist hard = ingest::hardenNetlist(raw).net;
            out.push_back({std::string(file) + " raw", std::move(raw)});
            out.push_back({std::string(file) + " hardened", std::move(hard)});
        }
        return out;
    }();
    return cases;
}

const fault::CollapseOptions kSettings[] = {
    {.constRefine = false, .dominance = false},
    {.constRefine = true, .dominance = false},
    {.constRefine = false, .dominance = true},
    {.constRefine = true, .dominance = true},
    {.constRefine = true, .dominance = true, .seq = true},
    {.constRefine = true, .dominance = true, .seq = true,
     .seqTimeFrame = true},
};

void
expectSameCollapse(const Netlist &net, const std::string &label)
{
    for (const fault::CollapseOptions &o : kSettings) {
        const std::string where =
            label + " cr=" + std::to_string(o.constRefine) +
            " dom=" + std::to_string(o.dominance) +
            " seq=" + std::to_string(o.seq) +
            " tf=" + std::to_string(o.seqTimeFrame);
        const fault::CollapseResult got = fault::collapseFaults(net, o);
        const fault::CollapseResult want = oracle::mapCollapseFaults(net, o);
        EXPECT_EQ(got.totalFaults, want.totalFaults) << where;
        EXPECT_EQ(got.classOf, want.classOf) << where;
        EXPECT_TRUE(got.representatives == want.representatives) << where;
        EXPECT_EQ(got.pruned, want.pruned) << where;
        EXPECT_EQ(got.prunedClasses, want.prunedClasses) << where;
        EXPECT_EQ(got.prunedFaults, want.prunedFaults) << where;
    }
}

TEST(SetupEquiv, CollapseMatchesMapIndexOnBundledCircuits)
{
    for (const Case &c : bundledCases())
        expectSameCollapse(c.net, c.label);
}

TEST(SetupEquiv, CollapseMatchesMapIndexOnRandomNetlists)
{
    // The draws of test_collapse.cc's structure and ratio sweeps.
    for (const std::uint64_t seed : {0xc01lu, 0xabcdlu}) {
        util::Rng rng(seed);
        for (int it = 0; it < 25; ++it) {
            const int ni = 4 + static_cast<int>(rng.below(4));
            const int ng = 8 + static_cast<int>(
                                   rng.below(seed == 0xc01lu ? 24 : 40));
            expectSameCollapse(testing::randomNetlist(ni, ng, rng),
                               "random");
        }
    }
    util::Rng rng(0x5e9lu);
    for (int it = 0; it < 40; ++it) {
        const Netlist net = testing::randomSeqNetlist(rng);
        expectSameCollapse(net, "random seq " + std::to_string(it));
        if (net.numInputs() > 0)
            expectSameCollapse(ingest::hardenNetlist(net).net,
                               "random seq hardened " + std::to_string(it));
    }
}

std::vector<GateId>
sorted(std::span<const GateId> s)
{
    std::vector<GateId> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
}

/** Output ids tapped from the gates of @p cone, ascending. */
std::vector<std::int32_t>
tapsOf(const sim::FlatNetlist &flat, const std::vector<GateId> &cone)
{
    std::vector<std::int32_t> taps;
    for (const GateId g : cone)
        taps.insert(taps.end(), flat.taps(g), flat.taps(g) + flat.numTaps(g));
    std::sort(taps.begin(), taps.end());
    return taps;
}

TEST(SetupEquiv, FanoutConesMatchDepthFirstSearch)
{
    for (const Case &c : bundledCases()) {
        const sim::FlatNetlist flat(c.net);
        // Every gate on the small circuits, a stride of ~1,000 on the
        // large ones (hardened s5378-class spans several column tiles).
        const int n = flat.numGates();
        const int stride = std::max(1, n / 1000);
        std::vector<GateId> seeds;
        for (GateId g = n - 1; g >= 0; g -= stride)
            seeds.push_back(g);
        const sim::FanoutCones cones = sim::fanoutCones(flat, seeds);
        const std::vector<std::int32_t> sizes = sim::fanoutConeSizes(flat);
        ASSERT_EQ(cones.off.size(), seeds.size() + 1) << c.label;
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            const std::span<const GateId> cone = cones.cone(i);
            // Ascending topological position, as documented.
            for (std::size_t k = 1; k < cone.size(); ++k)
                ASSERT_LT(flat.topoPos(cone[k - 1]), flat.topoPos(cone[k]))
                    << c.label;
            const std::vector<GateId> want =
                oracle::dfsFanoutCone(flat, seeds[i]);
            ASSERT_EQ(sorted(cone), want) << c.label << " seed " << seeds[i];
            ASSERT_EQ(sizes[static_cast<std::size_t>(seeds[i])],
                      static_cast<std::int32_t>(want.size()))
                << c.label << " seed " << seeds[i];
        }
    }
}

TEST(SetupEquiv, BatchPlanConesMatchDepthFirstSearch)
{
    for (const Case &c : bundledCases()) {
        if (!c.net.isCombinational())
            continue;
        const sim::FlatNetlist flat(c.net);
        const std::vector<Fault> faults = c.net.allFaults();
        const fault::CollapseResult col = fault::collapseFaults(
            c.net, {.constRefine = true, .dominance = true});
        // Without CPT every interior class is a Sim class.
        for (const bool cpt : {true, false}) {
            const sim::FaultBatchPlan plan(flat, faults, col.classOf,
                                           col.representatives, col.pruned,
                                           cpt);
            for (int cls = 0; cls < plan.numClasses(); ++cls) {
                if (plan.routeOf(cls) != sim::ClassRoute::Sim) {
                    EXPECT_TRUE(plan.simCone(cls).empty()) << c.label;
                    EXPECT_TRUE(plan.simOutputs(cls).empty()) << c.label;
                    continue;
                }
                const FaultSite &s =
                    col.representatives[static_cast<std::size_t>(cls)].site;
                const std::vector<GateId> want = oracle::dfsFanoutCone(
                    flat, s.isStem() ? s.driver : s.consumer);
                EXPECT_EQ(sorted(plan.simCone(cls)), want) << c.label;
                std::vector<std::int32_t> outs(plan.simOutputs(cls).begin(),
                                               plan.simOutputs(cls).end());
                std::sort(outs.begin(), outs.end());
                EXPECT_EQ(outs, tapsOf(flat, want)) << c.label;
            }
            for (int g = 0; g < plan.numGroups(); ++g) {
                bool flip = false, analytic = false;
                for (std::size_t pos = plan.classOffset(g);
                     pos < plan.classOffset(g + 1); ++pos) {
                    const sim::ClassRoute r =
                        plan.routeOf(plan.classList()[pos]);
                    flip |= r == sim::ClassRoute::Flip;
                    analytic |= r == sim::ClassRoute::Flip ||
                                r == sim::ClassRoute::Cpt;
                }
                const std::vector<GateId> want =
                    oracle::dfsFanoutCone(flat, plan.groupRoot(g));
                EXPECT_EQ(sorted(plan.rootCone(g)),
                          flip ? want : std::vector<GateId>{})
                    << c.label << " group " << g;
                std::vector<std::int32_t> outs(plan.rootOutputs(g).begin(),
                                               plan.rootOutputs(g).end());
                std::sort(outs.begin(), outs.end());
                EXPECT_EQ(outs, analytic ? tapsOf(flat, want)
                                         : std::vector<std::int32_t>{})
                    << c.label << " group " << g;
            }
        }
    }
}

TEST(SetupEquiv, SeqBatchPlanMatchesStableSortReference)
{
    // planSeqBatches sorts precomputed (root position, site index)
    // keys; the reference stable-sorts site indices by a comparator
    // that finds each site's injection root on every call, so ties
    // must keep the site order.
    for (const Case &c : bundledCases()) {
        const sim::FlatNetlist flat(c.net);
        std::vector<sim::SeqFaultSite> sites;
        for (const Fault &f : c.net.allFaults())
            sites.push_back(sim::decodeSeqFaultSite(flat, f));
        const auto keyOf = [&](int i) {
            const sim::SeqFaultSite &s = sites[static_cast<std::size_t>(i)];
            switch (s.kind) {
              case sim::SeqFaultSite::Kind::Stem:
                return flat.topoPos(s.driver);
              case sim::SeqFaultSite::Kind::Branch:
                return flat.topoPos(s.consumer);
              case sim::SeqFaultSite::Kind::DffBranch:
                return flat.topoPos(flat.ffGate(s.ff));
              case sim::SeqFaultSite::Kind::Tap:
                return flat.topoPos(flat.output(s.tap));
              case sim::SeqFaultSite::Kind::Inert:
                break;
            }
            return flat.numGates();
        };
        std::vector<int> order(sites.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<int>(i);
        std::stable_sort(order.begin(), order.end(),
                         [&](int a, int b) { return keyOf(a) < keyOf(b); });
        for (const int groupWords : {1, 4, 8}) {
            const std::size_t F = static_cast<std::size_t>(8 / groupWords);
            const sim::SeqBatchPlan plan =
                sim::planSeqBatches(flat, sites, groupWords, 8);
            ASSERT_EQ(plan.batches.size(), (order.size() + F - 1) / F)
                << c.label;
            for (std::size_t k = 0; k < order.size(); ++k)
                ASSERT_EQ(plan.batches[k / F][k % F], order[k])
                    << c.label << " group words " << groupWords
                    << " position " << k;
        }
    }
}

TEST(SetupEquiv, PatternStreamPacksTheScalarStream)
{
    for (const bool exhaustive : {true, false}) {
        for (const int ni : {0, 1, 5, 62, 64, 65, 130}) {
            if (exhaustive && ni > 62)
                continue;
            for (const int W : {1, 4, 8}) {
                sim::PatternStream stream(ni, exhaustive, 7);
                util::Rng rng(7);
                std::uint64_t next = 0;
                const std::size_t nw =
                    (static_cast<std::size_t>(ni) + 63) / 64;
                for (const int lanes : {64 * W, 1, 63, 64 * W - 1, 65}) {
                    if (lanes > 64 * W)
                        continue;
                    std::vector<std::uint64_t> in(
                        static_cast<std::size_t>(ni) * W, ~std::uint64_t{0});
                    std::vector<std::uint64_t> first(
                        static_cast<std::size_t>(lanes));
                    stream.next(lanes, W, in.data(), first.data());
                    std::vector<std::uint64_t> want(in.size(), 0);
                    for (int lane = 0; lane < lanes; ++lane) {
                        std::vector<std::uint64_t> words(nw, 0);
                        for (std::size_t j = 0; j < nw; ++j)
                            words[j] = exhaustive ? (j == 0 ? next : 0)
                                                  : rng.next();
                        EXPECT_EQ(first[static_cast<std::size_t>(lane)],
                                  exhaustive ? next : nw ? words[0] : 0);
                        ++next;
                        for (int i = 0; i < ni; ++i)
                            if ((words[static_cast<std::size_t>(i / 64)] >>
                                 (i % 64)) & 1)
                                want[static_cast<std::size_t>(i) * W +
                                     static_cast<std::size_t>(lane / 64)] |=
                                    std::uint64_t{1} << (lane % 64);
                    }
                    ASSERT_EQ(in, want) << "exhaustive=" << exhaustive
                                        << " ni=" << ni << " W=" << W
                                        << " lanes=" << lanes;
                }
            }
        }
    }
}

/** y = x0 XOR AND(taps): self-dual except where every tap agrees
 *  (all 1 or all 0), a 2 / 2^taps share of the patterns. */
Netlist
rarelyNonSelfDual(int inputs, const std::vector<int> &taps)
{
    Netlist net;
    std::vector<GateId> in;
    for (int i = 0; i < inputs; ++i)
        in.push_back(net.addInput("a" + std::to_string(i)));
    std::vector<GateId> and_in;
    for (const int t : taps)
        and_in.push_back(in[static_cast<std::size_t>(t)]);
    net.addOutput(net.addXor({in[0], net.addAnd(and_in)}), "y");
    net.addOutput(net.addNot(in[1]), "z");
    return net;
}

/** y = a0 XOR AND(a6, a7, a8, NOT(a9)) over 10 inputs: not self-dual
 *  only where a6, a7, a8 and NOT(a9) agree. In the half of the input
 *  space the wide check runs (a9 = 0), those patterns sit in lanes
 *  448-511 of the one 512-lane block. */
Netlist
nonSelfDualInLateLanes()
{
    Netlist net;
    std::vector<GateId> in;
    for (int i = 0; i < 10; ++i)
        in.push_back(net.addInput("a" + std::to_string(i)));
    const GateId gate =
        net.addAnd({in[6], in[7], in[8], net.addNot(in[9])});
    net.addOutput(net.addXor({in[0], gate}), "y");
    return net;
}

void
expectSameCheck(const Netlist &net, std::uint64_t budget,
                std::uint64_t seed, const std::string &label)
{
    EXPECT_EQ(sim::isAlternatingNetwork(net, budget, seed),
              oracle::scalarIsAlternatingNetwork(net, budget, seed))
        << label << " budget " << budget << " seed " << seed;
}

TEST(SetupEquiv, WideAlternatingCheckMatchesScalarLoop)
{
    const std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();
    const Case paper[] = {
        {"full adder", circuits::selfDualFullAdder()},
        {"rca4", circuits::rippleCarryAdder(4)},
        {"section 3.6", circuits::section36Network()},
        {"section 3.6 repaired", circuits::section36NetworkRepaired()},
        {"xor tree", circuits::xorTree(9)},
        {"rare, 12 inputs", rarelyNonSelfDual(12, {2, 5, 9, 11})},
        {"late lanes, 10 inputs", nonSelfDualInLateLanes()},
    };
    for (const Case &c : paper)
        for (const std::uint64_t budget : {kAll, std::uint64_t{100}})
            expectSameCheck(c.net, budget, 1, c.label);
    EXPECT_FALSE(sim::isAlternatingNetwork(nonSelfDualInLateLanes()));

    // Raw random netlists are rarely self-dual, hardened ones always.
    util::Rng rng(0xa17lu);
    int selfDual = 0, not_selfDual = 0;
    for (int it = 0; it < 20; ++it) {
        const Netlist raw = testing::randomNetlist(
            3 + static_cast<int>(rng.below(8)),
            6 + static_cast<int>(rng.below(30)), rng);
        const Netlist hard = ingest::hardenNetlist(raw).net;
        for (const Netlist *net : {&raw, &hard}) {
            const bool want =
                oracle::scalarIsAlternatingNetwork(*net, kAll, 1);
            EXPECT_EQ(sim::isAlternatingNetwork(*net), want) << it;
            ++(want ? selfDual : not_selfDual);
            expectSameCheck(*net, 300, it, "random");
        }
    }
    EXPECT_GT(selfDual, 0);
    EXPECT_GT(not_selfDual, 0);

    // Budgeted on wide inputs: the failing patterns are 1 in 128, so
    // a 64-pattern sample finds one for some seeds and not others, and
    // the two checks must read the same stream to agree on each.
    const Netlist rare =
        rarelyNonSelfDual(131, {0, 63, 64, 65, 100, 127, 128, 130});
    int found = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        expectSameCheck(rare, 64, seed, "rare, 131 inputs");
        found += sim::isAlternatingNetwork(rare, 64, seed) ? 0 : 1;
    }
    EXPECT_GT(found, 0);
    EXPECT_LT(found, 24);

    for (const char *file : {"c17.bench", "add4.v", "c432.bench"}) {
        const Netlist hard =
            ingest::hardenNetlist(
                ingest::importCircuit(testing::bundledCircuitPath(file)).net)
                .net;
        expectSameCheck(hard, 4096, 3, file);
    }
}

TEST(SetupEquiv, WideAlternatingCheckRejectsSequentialNetlist)
{
    Netlist net;
    const GateId x = net.addInput("x");
    net.addOutput(net.addDff(x), "q");
    EXPECT_THROW(sim::isAlternatingNetwork(net), std::invalid_argument);
}

} // namespace
} // namespace scal
