/**
 * @file
 * The cone-restricted FaultSimulator's contract: bit-identical to the
 * full-resimulation PackedEvaluator oracle for every fault, every
 * phase, and every packed lane — on the paper's circuits, on random
 * self-dual networks, on sequential nets with flip-flop state, and
 * for simultaneous multiple faults. The campaign built on top of it
 * must in turn stay bit-identical across jobs counts.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/multi.hh"
#include "logic/function_gen.hh"
#include "netlist/circuits.hh"
#include "netlist/structure.hh"
#include "oracle/packed_evaluator.hh"
#include "sim/evaluator.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "system/alu.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using namespace netlist;

/** Pack per-lane pattern words into per-input 64-bit words. */
std::vector<std::uint64_t>
packPatterns(int ni, const std::vector<std::uint64_t> &patterns)
{
    std::vector<std::uint64_t> in(ni, 0);
    for (std::size_t lane = 0; lane < patterns.size(); ++lane)
        for (int i = 0; i < ni; ++i)
            if ((patterns[lane] >> i) & 1)
                in[i] |= std::uint64_t{1} << lane;
    return in;
}

/** Exhaustive blocks when 2^ni is small, else seeded-sampled ones. */
std::vector<std::vector<std::uint64_t>>
patternBlocks(int ni, std::uint64_t max_patterns = 1024,
              std::uint64_t seed = 7)
{
    std::vector<std::vector<std::uint64_t>> blocks;
    const bool exhaustive =
        ni < 63 && (std::uint64_t{1} << ni) <= max_patterns;
    const std::uint64_t total =
        exhaustive ? (std::uint64_t{1} << ni) : max_patterns;
    util::Rng rng(seed);
    for (std::uint64_t base = 0; base < total; base += 64) {
        const std::uint64_t lanes = std::min<std::uint64_t>(
            64, total - base);
        std::vector<std::uint64_t> pats(lanes);
        for (std::uint64_t l = 0; l < lanes; ++l)
            pats[l] = exhaustive ? base + l : rng.next();
        blocks.push_back(packPatterns(ni, pats));
    }
    return blocks;
}

/**
 * Core oracle check: over every block, every fault, and both
 * alternating phases, FaultSimulator must reproduce PackedEvaluator's
 * output words exactly, and its classification masks must equal the
 * masks recomputed from the oracle's words.
 */
void
expectOracleEquivalence(const Netlist &net,
                        const std::vector<std::vector<std::uint64_t>>
                            &blocks,
                        const char *label)
{
    const sim::FlatNetlist flat(net);
    sim::FaultSimulator fs(flat);
    const oracle::PackedEvaluator pe(net);
    const std::vector<Fault> faults = net.allFaults();
    ASSERT_FALSE(faults.empty()) << label;

    for (const auto &in : blocks) {
        std::vector<std::uint64_t> inbar(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
            inbar[i] = ~in[i];

        fs.setAlternatingBlock(in);
        const auto good1 = pe.evalOutputs(in);
        const auto good2 = pe.evalOutputs(inbar);
        EXPECT_EQ(fs.goodOutputs(0), good1) << label;
        EXPECT_EQ(fs.goodOutputs(1), good2) << label;

        for (const Fault &f : faults) {
            const auto ref1 = pe.evalOutputs(in, &f);
            const auto ref2 = pe.evalOutputs(inbar, &f);
            ASSERT_EQ(fs.faultOutputs(f, 0), ref1)
                << label << " " << faultToString(net, f) << " phase 0";
            ASSERT_EQ(fs.faultOutputs(f, 1), ref2)
                << label << " " << faultToString(net, f) << " phase 1";

            // Rebuild the alternating masks from the oracle's words.
            sim::WideMasks want;
            for (std::size_t j = 0; j < ref1.size(); ++j) {
                const std::uint64_t err1 = ref1[j] ^ good1[j];
                const std::uint64_t err2 = ref2[j] ^ ~good1[j];
                want.anyErr[0] |= err1 | err2;
                want.nonAlt[0] |= ~(ref1[j] ^ ref2[j]);
                want.incorrect[0] |= err1 & err2;
            }
            const sim::WideMasks got = fs.classifyAlternatingWide(f);
            EXPECT_EQ(got.anyErr[0], want.anyErr[0]) << label;
            EXPECT_EQ(got.nonAlt[0], want.nonAlt[0]) << label;
            EXPECT_EQ(got.incorrect[0], want.incorrect[0]) << label;
        }
    }
}

TEST(FaultSimEquiv, Chapter3NetworkExhaustive)
{
    const Netlist net = circuits::section36Network();
    expectOracleEquivalence(net, patternBlocks(net.numInputs()),
                            "section 3.6");
}

TEST(FaultSimEquiv, Chapter3RepairedExhaustive)
{
    const Netlist net = circuits::section36NetworkRepaired();
    expectOracleEquivalence(net, patternBlocks(net.numInputs()),
                            "section 3.6 repaired");
}

TEST(FaultSimEquiv, SelfDualFullAdderExhaustive)
{
    const Netlist net = circuits::selfDualFullAdder();
    expectOracleEquivalence(net, patternBlocks(net.numInputs()),
                            "full adder");
}

TEST(FaultSimEquiv, RippleCarryAdderExhaustive)
{
    const Netlist net = circuits::rippleCarryAdder(4);
    expectOracleEquivalence(net, patternBlocks(net.numInputs()),
                            "rca4");
}

TEST(FaultSimEquiv, AluDatapathExhaustive)
{
    // The Chapter 7 system datapath at width 4: 9 inputs, exhaustive.
    const Netlist net = system::aluNetlist(system::AluOp::Add, 4);
    expectOracleEquivalence(net, patternBlocks(net.numInputs()),
                            "alu add w4");
}

TEST(FaultSimEquiv, RandomSelfDualNetworkExhaustive)
{
    util::Rng rng(42);
    std::vector<logic::TruthTable> funcs;
    for (int k = 0; k < 3; ++k)
        funcs.push_back(logic::randomSelfDual(5, rng));
    const Netlist net = circuits::twoLevelNetwork(
        funcs, {"f0", "f1", "f2"}, {"a", "b", "c", "d", "e"});
    expectOracleEquivalence(net, patternBlocks(net.numInputs()),
                            "random self-dual");
}

TEST(FaultSimEquiv, WideAdderSeededSampled)
{
    // 17 inputs: exhaustive is infeasible here, so sampled lanes.
    const Netlist net = circuits::rippleCarryAdder(8);
    expectOracleEquivalence(
        net, patternBlocks(net.numInputs(), /*max_patterns=*/256),
        "rca8 sampled");
}

TEST(FaultSimEquiv, SequentialDffState)
{
    // Dffs on both sides of the logic: q1 is a combinational source,
    // and t also feeds q2's D pin (whose branch faults must have no
    // combinational effect — matching the oracle's semantics).
    Netlist net;
    const GateId x = net.addInput("x");
    const GateId y = net.addInput("y");
    const GateId q1 = net.addDff(x, "q1");
    const GateId t = net.addGate(GateKind::Xor, {q1, y}, "t");
    const GateId u = net.addGate(GateKind::Nand, {t, x, q1}, "u");
    net.addDff(t, "q2");
    net.addOutput(t, "t");
    net.addOutput(u, "u");

    const sim::FlatNetlist flat(net);
    sim::FaultSimulator fs(flat);
    const oracle::PackedEvaluator pe(net);
    const std::vector<Fault> faults = net.allFaults();

    util::Rng rng(3);
    for (int round = 0; round < 4; ++round) {
        const std::vector<std::uint64_t> in = {rng.next(), rng.next()};
        const std::vector<std::uint64_t> state = {rng.next(),
                                                  rng.next()};
        fs.setBaseline(in, &state);
        EXPECT_EQ(fs.goodOutputs(), pe.evalOutputs(in, nullptr, &state));
        for (const Fault &f : faults) {
            ASSERT_EQ(fs.faultOutputs(f), pe.evalOutputs(in, &f, &state))
                << faultToString(net, f);
        }
    }
}

TEST(FaultSimEquiv, MultiFaultMatchesScalarOracle)
{
    const Netlist net = circuits::section36Network();
    const sim::FlatNetlist flat(net);
    sim::FaultSimulator fs(flat);
    const sim::Evaluator ev(net);
    const int ni = net.numInputs();

    // One exhaustive block (2^3 lanes) against the scalar multi-fault
    // evaluator, lane by lane, both phases.
    std::vector<std::uint64_t> pats(std::size_t{1} << ni);
    for (std::size_t m = 0; m < pats.size(); ++m)
        pats[m] = m;
    const auto in = packPatterns(ni, pats);
    fs.setAlternatingBlock(in);

    util::Rng rng(11);
    for (int trial = 0; trial < 16; ++trial) {
        const fault::MultiFault mf = fault::randomMultiFault(
            net, 2 + trial % 2, trial % 3 == 0, rng);
        for (int phase = 0; phase < 2; ++phase) {
            const auto &out =
                fs.faultOutputs(mf.data(), mf.size(), phase);
            for (std::size_t lane = 0; lane < pats.size(); ++lane) {
                std::vector<bool> x(ni);
                for (int i = 0; i < ni; ++i)
                    x[i] = (((pats[lane] >> i) & 1) != 0) !=
                           (phase == 1);
                const auto ref = ev.evalOutputsMulti(x, mf);
                for (std::size_t j = 0; j < ref.size(); ++j) {
                    ASSERT_EQ((out[j] >> lane) & 1,
                              static_cast<std::uint64_t>(ref[j]))
                        << "trial " << trial << " phase " << phase
                        << " lane " << lane << " output " << j;
                }
            }
        }
    }
}

void
expectBitIdentical(const fault::CampaignResult &a,
                   const fault::CampaignResult &b, const Netlist &net,
                   const char *label)
{
    EXPECT_EQ(a.patternsApplied, b.patternsApplied) << label;
    EXPECT_EQ(a.numUntestable, b.numUntestable) << label;
    EXPECT_EQ(a.numDetected, b.numDetected) << label;
    EXPECT_EQ(a.numUnsafe, b.numUnsafe) << label;
    ASSERT_EQ(a.faults.size(), b.faults.size()) << label;
    for (std::size_t k = 0; k < a.faults.size(); ++k) {
        ASSERT_TRUE(a.faults[k].fault == b.faults[k].fault) << label;
        EXPECT_EQ(a.faults[k].outcome, b.faults[k].outcome)
            << label << " " << faultToString(net, a.faults[k].fault);
        EXPECT_EQ(a.faults[k].unsafePatterns,
                  b.faults[k].unsafePatterns)
            << label << " " << faultToString(net, a.faults[k].fault);
    }
}

TEST(FaultSimEquiv, CampaignBitIdenticalAcrossJobs)
{
    for (const auto &[net, label] :
         {std::pair<Netlist, const char *>{circuits::section36Network(),
                                           "section 3.6"},
          std::pair<Netlist, const char *>{circuits::rippleCarryAdder(4),
                                           "rca4"}}) {
        fault::CampaignOptions opts;
        opts.jobs = 1;
        const auto serial = fault::runAlternatingCampaign(net, opts);
        for (int jobs : {2, 8}) {
            opts.jobs = jobs;
            const auto parallel =
                fault::runAlternatingCampaign(net, opts);
            expectBitIdentical(serial, parallel, net, label);
        }
    }
}

TEST(FaultSimEquiv, SampledAluCampaignBitIdenticalAcrossJobs)
{
    // 17 inputs: sampled-pattern mode, so this also pins the Rng
    // stream contract of the block builder across jobs counts.
    const Netlist net = system::aluNetlist(system::AluOp::Add);
    fault::CampaignOptions opts;
    opts.maxPatterns = 512;
    opts.checkAlternating = false;
    opts.jobs = 1;
    const auto serial = fault::runAlternatingCampaign(net, opts);
    for (int jobs : {2, 8}) {
        opts.jobs = jobs;
        const auto parallel = fault::runAlternatingCampaign(net, opts);
        expectBitIdentical(serial, parallel, net, "alu sampled");
    }
}

} // namespace
} // namespace scal
