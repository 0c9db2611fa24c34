/**
 * @file
 * Netlist analysis subsystem tests: PathFinder any-/all-paths with
 * per-hop pins and parity annotations, CycleDetector on crafted
 * combinational loops (naming the exact cycle) and on every bundled
 * circuit (zero loops), the shared stats encoder, the hardening-diff
 * report, and DOT export escaping/highlighting.
 */

#include <gtest/gtest.h>
#include <sstream>

#include "analysis/cycle_detector.hh"
#include "analysis/harden_diff.hh"
#include "analysis/path_finder.hh"
#include "analysis/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/dot.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "server/jsonl.hh"
#include "test_helpers.hh"

namespace scal
{
namespace
{

using namespace netlist;

/** c17 with named gates: the standard 6-NAND benchmark. */
Netlist
c17()
{
    Netlist net;
    const GateId g1 = net.addInput("G1");
    const GateId g2 = net.addInput("G2");
    const GateId g3 = net.addInput("G3");
    const GateId g6 = net.addInput("G6");
    const GateId g7 = net.addInput("G7");
    const GateId n10 = net.addNand({g1, g3}, "G10");
    const GateId n11 = net.addNand({g3, g6}, "G11");
    const GateId n16 = net.addNand({g2, n11}, "G16");
    const GateId n19 = net.addNand({n11, g7}, "G19");
    const GateId n22 = net.addNand({n10, n16}, "G22");
    const GateId n23 = net.addNand({n16, n19}, "G23");
    net.addOutput(n22, "G22");
    net.addOutput(n23, "G23");
    return net;
}

TEST(PathFinder, AnyPathIsShortestWithPinsAndParity)
{
    const Netlist net = c17();
    const analysis::PathFinder finder(net);
    const GateId g3 = analysis::findNet(net, "G3");
    const GateId g22 = analysis::findNet(net, "G22");
    ASSERT_NE(g3, kNoGate);
    ASSERT_NE(g22, kNoGate);

    analysis::NetPath path;
    ASSERT_TRUE(finder.anyPath(g3, g22, &path));
    EXPECT_EQ(path.from, g3);
    EXPECT_EQ(path.length(), 2); // G3 -> G10 -> G22 (shortest)
    EXPECT_EQ(net.gate(path.hops[0].gate).name, "G10");
    EXPECT_EQ(path.hops[0].pin, 1); // G10 = NAND(G1, >G3<)
    EXPECT_EQ(net.gate(path.hops[1].gate).name, "G22");
    // Two NAND hops: inversion parity is even.
    EXPECT_EQ(path.paritySet(), 0b01u);

    const std::string s = analysis::pathToString(net, path);
    EXPECT_NE(s.find("G10"), std::string::npos);
    EXPECT_NE(s.find("parity:even"), std::string::npos);
}

TEST(PathFinder, AllPathsEnumeratesAndTruncates)
{
    const Netlist net = c17();
    const analysis::PathFinder finder(net);
    const GateId g3 = analysis::findNet(net, "G3");
    const GateId g23 = analysis::findNet(net, "G23");

    // G3 reaches G23 via G11->G16 and G11->G19 (two simple paths).
    bool truncated = true;
    auto paths = finder.allPaths(g3, g23, 256, &truncated);
    EXPECT_EQ(paths.size(), 2u);
    EXPECT_FALSE(truncated);
    for (const auto &p : paths)
        EXPECT_EQ(p.hops.back().gate, g23);

    // A cap of 1 truncates and says so.
    paths = finder.allPaths(g3, g23, 1, &truncated);
    EXPECT_EQ(paths.size(), 1u);
    EXPECT_TRUE(truncated);

    // Unreachable pairs yield nothing.
    const GateId g22 = analysis::findNet(net, "G22");
    analysis::NetPath path;
    EXPECT_FALSE(finder.anyPath(g22, g3, &path));
    EXPECT_TRUE(finder.allPaths(g22, g3).empty());
}

TEST(PathFinder, ParityFollowsGateKinds)
{
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId inv = net.addNot(a, "inv");
    const GateId x = net.addXor({inv, a}, "x");
    net.addOutput(x, "f");

    const analysis::PathFinder finder(net);
    analysis::NetPath viaInv;
    ASSERT_TRUE(finder.anyPath(a, x, &viaInv));
    // Any path ending in an XOR hop carries both parities.
    EXPECT_EQ(viaInv.paritySet(), 0b11u);
    analysis::NetPath toInv;
    ASSERT_TRUE(finder.anyPath(a, inv, &toInv));
    EXPECT_EQ(toInv.paritySet(), 0b10u); // single inverting hop
}

TEST(PathFinder, PathsDoNotCrossFlipFlops)
{
    // a -> AND t -> DFF q -> BUF f: combinationally a reaches t (and
    // the DFF's D pin) but nothing beyond the flop.
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId q = net.addDeferredDff("q");
    const GateId t = net.addGate(GateKind::And, {a, q}, "t");
    net.replaceFanin(q, 0, t);
    const GateId f = net.addBuf(q, "f");
    net.addOutput(f, "f");
    net.validate();

    const analysis::PathFinder finder(net);
    analysis::NetPath path;
    EXPECT_TRUE(finder.anyPath(a, t, &path));
    EXPECT_TRUE(finder.anyPath(a, q, &path)); // may END at the flop
    EXPECT_FALSE(finder.anyPath(a, f, &path));
    EXPECT_TRUE(finder.allPaths(a, f).empty());
}

TEST(CycleDetector, NamesTheExactCraftedCycle)
{
    // Craft u -> v -> u with replaceFanin (validate() would reject
    // it; the detector must not rely on the topo caches).
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId u = net.addGate(GateKind::Nand, {a, a}, "u");
    const GateId v = net.addGate(GateKind::Nand, {u, a}, "v");
    const GateId f = net.addGate(GateKind::And, {v, a}, "f");
    net.addOutput(f, "f");
    net.replaceFanin(u, 1, v); // closes the loop

    const auto loops = analysis::findCombLoops(net);
    ASSERT_EQ(loops.size(), 1u);
    ASSERT_EQ(loops[0].gates.size(), 2u);
    EXPECT_EQ(loops[0].gates[0], u); // smallest id first
    EXPECT_EQ(loops[0].gates[1], v);

    const std::string s = analysis::cycleToString(net, loops[0]);
    EXPECT_EQ(s, "NAND u -> NAND v -> NAND u");

    // The stats layer reports the loop instead of throwing.
    const analysis::NetlistStats stats = analysis::computeStats(net);
    EXPECT_EQ(stats.combLoops, 1);
    EXPECT_EQ(stats.logicDepth, 0); // depth is meaningless here
}

TEST(CycleDetector, DffBreaksTheLoop)
{
    // The same feedback through a flip-flop is sequential, not a
    // combinational loop.
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId q = net.addDeferredDff("q");
    const GateId t = net.addGate(GateKind::Xor, {a, q}, "t");
    net.replaceFanin(q, 0, t);
    net.addOutput(t, "f");
    net.validate();

    EXPECT_TRUE(analysis::findCombLoops(net).empty());

    // Self-loop without a flop IS reported.
    Netlist bad;
    const GateId b = bad.addInput("b");
    const GateId w = bad.addGate(GateKind::Or, {b, b}, "w");
    bad.addOutput(w, "f");
    bad.replaceFanin(w, 1, w);
    const auto loops = analysis::findCombLoops(bad);
    ASSERT_EQ(loops.size(), 1u);
    ASSERT_EQ(loops[0].gates.size(), 1u);
    EXPECT_EQ(loops[0].gates[0], w);
}

TEST(CycleDetector, ZeroLoopsOnEveryBundledCircuit)
{
    for (const char *file :
         {"c17.bench", "c432.bench", "c499.bench", "c880.bench",
          "c1908.bench", "s27.bench", "s298.bench", "s344.bench",
          "s386.bench", "add4.v", "lfsr8.v"}) {
        const std::string path = testing::bundledCircuitPath(file);
        const auto circ = ingest::importCircuit(path);
        EXPECT_TRUE(analysis::findCombLoops(circ.net).empty())
            << file;
    }
}

TEST(Report, StatsMatchStructureQueries)
{
    const Netlist net = c17();
    const analysis::NetlistStats stats = analysis::computeStats(net);
    EXPECT_EQ(stats.inputs, 5);
    EXPECT_EQ(stats.outputs, 2);
    EXPECT_EQ(stats.flipFlops, 0);
    EXPECT_EQ(stats.gates, net.cost().gates);
    EXPECT_EQ(stats.gateInputs, net.cost().gateInputs);
    EXPECT_EQ(stats.logicDepth, logicDepth(net));
    EXPECT_EQ(stats.contentHash, contentHash(net));
    EXPECT_EQ(stats.faultSites,
              static_cast<int>(net.faultSites().size()));
    EXPECT_EQ(stats.combLoops, 0);
    EXPECT_EQ(
        stats.kindCounts[static_cast<std::size_t>(GateKind::Nand)], 6);
    EXPECT_EQ(
        stats.kindCounts[static_cast<std::size_t>(GateKind::Input)],
        5);
    // G11 and G16 fan out to 2; everything else to 0/1 consumers.
    EXPECT_EQ(stats.maxFanout, 2);
    ASSERT_EQ(stats.outputDepths.size(), 2u);
    EXPECT_EQ(stats.outputDepths[0], 3); // G22 via G16
    EXPECT_EQ(stats.outputDepths[1], 3);
}

TEST(Report, JsonEncoderCarriesTheSharedSchema)
{
    const Netlist net = c17();
    const std::string json = analysis::statsJson(
        analysis::computeStats(net), "c17", "bench");
    for (const char *field :
         {"\"name\": \"c17\"", "\"format\": \"bench\"",
          "\"content_hash\"", "\"inputs\": 5", "\"outputs\": 2",
          "\"flip_flops\": 0", "\"gates\": 6", "\"logic_depth\": 3",
          "\"gate_counts\"", "\"NAND\": 6", "\"fault_sites\"",
          "\"comb_loops\": 0", "\"fanout_histogram\"",
          "\"output_depths\": [3, 3]"})
        EXPECT_NE(json.find(field), std::string::npos) << field;

    // Names with quotes/backslashes must be escaped.
    const std::string weird = analysis::statsJson(
        analysis::computeStats(net), "a\"b\\c", "scal");
    EXPECT_NE(weird.find("a\\\"b\\\\c"), std::string::npos);

    // So must control bytes, which JSON forbids raw in a string.
    const std::string ctrl = analysis::statsJson(
        analysis::computeStats(net), "a\001b\tc", "scal");
    EXPECT_NE(ctrl.find("a\\u0001b\\tc"), std::string::npos);
    EXPECT_EQ(server::jsonl::parse(ctrl).find("name")->asString(),
              "a\001b\tc");
}

TEST(Report, FindNetResolvesGatesInputsAndOutputs)
{
    const Netlist net = c17();
    EXPECT_EQ(net.gate(analysis::findNet(net, "G1")).name, "G1");
    EXPECT_EQ(net.gate(analysis::findNet(net, "G16")).name, "G16");
    EXPECT_EQ(net.gate(analysis::findNet(net, "G23")).name, "G23");
    EXPECT_EQ(analysis::findNet(net, "nope"), kNoGate);

    std::ostringstream os;
    analysis::printReport(os, net, analysis::computeStats(net));
    EXPECT_NE(os.str().find("G22"), std::string::npos);
    EXPECT_NE(os.str().find("NAND=6"), std::string::npos);
}

TEST(HardenDiff, MeasuresMuxesAndDualCone)
{
    const Netlist net = c17();
    const ingest::HardenedCircuit hard = ingest::hardenNetlist(net);
    const analysis::HardenDiff diff =
        analysis::diffHardened(net, hard.net, hard.phiInput);

    EXPECT_EQ(diff.muxCount, 2); // one Yamamoto mux per output
    EXPECT_GT(diff.dualOnlyGates, 0);
    EXPECT_GT(diff.dualConeShare, 0.0);
    EXPECT_LE(diff.dualConeShare, 1.0);
    EXPECT_EQ(diff.gatesBefore, 6);
    EXPECT_EQ(diff.gatesAfter, hard.net.cost().gates);
    EXPECT_GE(diff.depthAfter, diff.depthBefore);
    ASSERT_EQ(diff.outputDepths.size(), 2u);
    for (const auto &od : diff.outputDepths)
        EXPECT_GT(od.after, od.before); // the mux adds levels

    const std::string json = diff.toJson();
    EXPECT_NE(json.find("\"mux_count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"dual_cone_share\""), std::string::npos);

    // Output names come from files: one holding a quote still gives
    // JSON that parses back to that name.
    Netlist quoted;
    const GateId qa = quoted.addInput("a");
    const GateId qb = quoted.addInput("b");
    quoted.addOutput(quoted.addAnd({qa, qb}, "g"), "q\"x");
    const ingest::HardenedCircuit qhard = ingest::hardenNetlist(quoted);
    const server::jsonl::Value parsed = server::jsonl::parse(
        analysis::diffHardened(quoted, qhard.net, qhard.phiInput)
            .toJson());
    const server::jsonl::Array &depths =
        parsed.find("output_depths")->asArray();
    ASSERT_EQ(depths.size(), 1u);
    EXPECT_EQ(depths[0].find("name")->asString(), "q\"x");

    // An unhardened net has no muxes and no dual cone.
    const analysis::HardenDiff none =
        analysis::diffHardened(net, net, 0);
    EXPECT_EQ(none.muxCount, 0);
    EXPECT_EQ(none.dualOnlyGates, 0);
}

TEST(Dot, EscapesSpecialCharactersInNamesAndGraphName)
{
    Netlist net;
    const GateId a = net.addInput("u1.q");
    const GateId b = net.addInput("a\"b\\c");
    const GateId g = net.addAnd({a, b}, "and.out");
    net.addOutput(g, "f[0]");

    std::ostringstream os;
    DotOptions opts;
    opts.graphName = "my graph";
    writeDot(os, net, opts);
    const std::string dot = os.str();

    EXPECT_NE(dot.find("digraph \"my graph\" {"), std::string::npos);
    EXPECT_NE(dot.find("u1.q"), std::string::npos);
    EXPECT_NE(dot.find("a\\\"b\\\\c"), std::string::npos);
    EXPECT_NE(dot.find("f[0]"), std::string::npos);
    // Every label stays inside its quotes: no raw '"' after escaping.
    EXPECT_EQ(dot.find("label=\"a\""), std::string::npos);

    // A safe graph name stays unquoted.
    std::ostringstream os2;
    writeDot(os2, net, "netlist");
    EXPECT_NE(os2.str().find("digraph netlist {"), std::string::npos);
}

TEST(Dot, HighlightsPathGatesAndOverlaysFaultSites)
{
    const Netlist net = c17();
    const analysis::PathFinder finder(net);
    const GateId g3 = analysis::findNet(net, "G3");
    const GateId g22 = analysis::findNet(net, "G22");

    DotOptions opts;
    opts.highlight = finder.gatesOnPaths(g3, g22);
    opts.faultSites = true;
    std::ostringstream os;
    writeDot(os, net, opts);
    const std::string dot = os.str();

    EXPECT_NE(dot.find("fillcolor=lightyellow"), std::string::npos);
    EXPECT_NE(dot.find("color=orange"), std::string::npos);
    // G11 fans out to 2 consumers: stem + 2 branches = 3 sites.
    EXPECT_NE(dot.find("G11\\n3 sites"), std::string::npos);
}

} // namespace
} // namespace scal
