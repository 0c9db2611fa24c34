/**
 * @file
 * Cross-module property sweeps: the invariants that tie the theory
 * (core), the simulators (sim/fault) and the constructions
 * (seq/checker/minority) together, exercised over randomized
 * instances. These are the repository's strongest correctness
 * evidence: two independent implementations of the same semantics
 * must agree everywhere.
 */

#include <gtest/gtest.h>

#include "core/algorithm31.hh"
#include "core/design.hh"
#include "core/repair.hh"
#include "fault/campaign.hh"
#include "fault/collapse.hh"
#include "logic/function_gen.hh"
#include "minority/convert.hh"
#include "netlist/circuits.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "seq/code_conversion.hh"
#include "seq/dual_flipflop.hh"
#include "sim/alternating.hh"
#include "sim/line_functions.hh"
#include "test_helpers.hh"

namespace scal
{
namespace
{

using namespace netlist;
using logic::TruthTable;

class Sweep : public ::testing::TestWithParam<int>
{
  protected:
    util::Rng rng{9000 + static_cast<std::uint64_t>(GetParam())};
};

TEST_P(Sweep, AnalyzerVerdictEqualsCampaignVerdictOnDesigns)
{
    // The symbolic Theorem 3.1 analysis and the packed simulation
    // campaign are independent codepaths; they must agree fault by
    // fault on arbitrary constructed SCAL designs.
    std::vector<TruthTable> funcs;
    const int n = 3;
    const int outs = 1 + static_cast<int>(rng.below(2));
    for (int j = 0; j < outs; ++j)
        funcs.push_back(logic::randomFunction(n, rng));
    std::vector<std::string> out_names, in_names{"a", "b", "c"};
    for (int j = 0; j < outs; ++j)
        out_names.push_back("f" + std::to_string(j));
    const auto design =
        core::designScalNetwork(funcs, out_names, in_names);

    core::ScalAnalyzer an(design.net);
    const auto campaign = fault::runAlternatingCampaign(design.net);
    for (const auto &fr : campaign.faults) {
        const auto fa = an.analyzeFault(fr.fault);
        fault::Outcome expected = fault::Outcome::Untestable;
        if (!fa.unsafe.isZero())
            expected = fault::Outcome::Unsafe;
        else if (fa.testable)
            expected = fault::Outcome::Detected;
        ASSERT_EQ(fr.outcome, expected)
            << faultToString(design.net, fr.fault);
    }
}

TEST_P(Sweep, NorConversionMatchesDeMorganDualOfNand)
{
    // Build a random NOR+NOT network by De-Morganing a random
    // NAND+NOT network's gate kinds; Theorem 6.3's conversion must
    // preserve its function across both periods.
    const Netlist nand_net = testing::randomNandNetwork(4, 7, rng);
    Netlist nor_net;
    for (GateId g = 0; g < nand_net.numGates(); ++g) {
        const Gate &gate = nand_net.gate(g);
        switch (gate.kind) {
          case GateKind::Input:
            nor_net.addInput(gate.name);
            break;
          case GateKind::Not:
            nor_net.addNot(gate.fanin[0]);
            break;
          case GateKind::Nand:
            nor_net.addNor(gate.fanin);
            break;
          default:
            FAIL();
        }
    }
    nor_net.addOutput(nand_net.outputs()[0], "f");

    const auto conv = minority::convertNorNetwork(nor_net);
    conv.net.validate();
    sim::Evaluator ref(nor_net);
    sim::Evaluator got(conv.net);
    for (std::uint64_t m = 0; m < 16; ++m) {
        auto x = testing::patternOf(m, 4);
        const bool want = ref.evalOutputs(x)[0];
        auto in = x;
        in.push_back(false);
        ASSERT_EQ(got.evalOutputs(in)[0], want);
        for (int i = 0; i < 4; ++i)
            in[i] = !in[i];
        in[4] = true;
        ASSERT_EQ(got.evalOutputs(in)[0], !want);
    }
}

TEST_P(Sweep, IoRoundTripOnLibraryAndRandomCircuits)
{
    std::vector<Netlist> nets;
    nets.push_back(testing::randomNetlist(4, 12, rng));
    nets.push_back(circuits::selfDualFullAdder());
    nets.push_back(circuits::section36NetworkRepaired());
    for (const Netlist &net : nets) {
        const Netlist back =
            readNetlistFromString(writeNetlistToString(net));
        sim::Evaluator e1(net), e2(back);
        for (std::uint64_t m = 0;
             m < (std::uint64_t{1} << net.numInputs()); ++m) {
            const auto x = testing::patternOf(m, net.numInputs());
            ASSERT_EQ(e1.evalOutputs(x), e2.evalOutputs(x));
        }
    }
}

TEST_P(Sweep, CollapsedCampaignAgreesWithFullCampaign)
{
    // Running the exhaustive campaign only on collapse
    // representatives must reach the same network verdict.
    std::vector<TruthTable> funcs{logic::randomSelfDual(4, rng)};
    const Netlist net = circuits::twoLevelNetwork(
        funcs, {"f"}, {"a", "b", "c", "d"});
    const auto full = fault::runAlternatingCampaign(net);
    const auto collapsed = fault::collapseFaults(net);

    core::ScalAnalyzer an(net);
    bool any_unsafe = false, any_untestable = false;
    for (const Fault &rep : collapsed.representatives) {
        const auto fa = an.analyzeFault(rep);
        any_unsafe |= !fa.unsafe.isZero();
        any_untestable |= !fa.testable;
    }
    EXPECT_EQ(any_unsafe, !full.faultSecure());
    EXPECT_EQ(any_untestable, full.numUntestable > 0);
}

TEST_P(Sweep, DualFlipFlopAndCodeConversionAgreeUnderFaultFreeRun)
{
    const auto table = testing::randomStateTable(
        2 + static_cast<int>(rng.below(5)), 1, 1, rng);
    const auto dff = seq::synthesizeDualFlipFlop(table);
    const auto cc = seq::synthesizeCodeConversion(table);
    std::vector<int> bits;
    for (int i = 0; i < 250; ++i)
        bits.push_back(static_cast<int>(rng.below(2)));
    const auto golden = table.run(bits);
    const auto r1 = seq::runAlternating(dff, bits);
    const auto r2 = seq::runAlternating(cc, bits);
    ASSERT_EQ(r1.outputs, golden);
    ASSERT_EQ(r2.outputs, golden);
    ASSERT_TRUE(r1.allAlternated);
    ASSERT_TRUE(r2.allAlternated);
}

TEST_P(Sweep, PackedCampaignSamplingConsistency)
{
    // Exhaustive and generously-sampled campaigns agree on verdicts
    // for small input spaces (sampling covers the space w.h.p.).
    const Netlist net = circuits::section36Network();
    fault::CampaignOptions exhaustive;
    fault::CampaignOptions sampled;
    // maxPatterns below 2^n selects the sampling path.
    sampled.maxPatterns = 6;
    sampled.seed = 42 + GetParam();
    const auto full = fault::runAlternatingCampaign(net, exhaustive);
    const auto sub = fault::runAlternatingCampaign(net, sampled);
    // Sampling can only under-approximate detection/unsafety.
    EXPECT_LE(sub.numUnsafe, full.numUnsafe);
    EXPECT_GE(sub.numUntestable, full.numUntestable);
}

TEST_P(Sweep, RepairNeverChangesTheFunction)
{
    // Whatever the repair does structurally, the outputs' functions
    // are untouched.
    const Netlist net = circuits::section36Network();
    const auto lines = circuits::section36Lines(net);
    const GateId victims[] = {lines.u, lines.v, lines.t9};
    const GateId victim = victims[rng.below(3)];
    const int depth = 1 + static_cast<int>(rng.below(4));
    const Netlist repaired =
        core::repairByFanoutSplit(net, victim, depth);

    const auto f1 = sim::computeLineFunctions(net).output;
    const auto f2 = sim::computeLineFunctions(repaired).output;
    ASSERT_EQ(f1.size(), f2.size());
    for (std::size_t j = 0; j < f1.size(); ++j)
        ASSERT_EQ(f1[j], f2[j]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sweep, ::testing::Range(0, 10));

} // namespace
} // namespace scal
