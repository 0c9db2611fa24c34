/**
 * @file
 * Oracle equality for the fault-parallel campaign pipeline: batching +
 * dominance pruning + CPT must reproduce the per-fault reference
 * verdicts (tests/oracle/) bit-identically at EVERY point of the
 * jobs x lanes x SIMD grid. This is the soundness contract the
 * campaign server's verdict cache rests on — a cached verdict must not depend on which engine
 * configuration produced it.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "ingest/harden.hh"
#include "netlist/circuits.hh"
#include "netlist/structure.hh"
#include "oracle/per_fault_campaign.hh"
#include "system/alu.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using namespace netlist;

void
expectSameVerdicts(const fault::CampaignResult &a,
                   const fault::CampaignResult &b, const Netlist &net,
                   const std::string &label)
{
    EXPECT_EQ(a.patternsApplied, b.patternsApplied) << label;
    EXPECT_EQ(a.numDetected, b.numDetected) << label;
    EXPECT_EQ(a.numUnsafe, b.numUnsafe) << label;
    EXPECT_EQ(a.numUntestable, b.numUntestable) << label;
    ASSERT_EQ(a.faults.size(), b.faults.size()) << label;
    for (std::size_t k = 0; k < a.faults.size(); ++k) {
        ASSERT_TRUE(a.faults[k].fault == b.faults[k].fault) << label;
        EXPECT_EQ(a.faults[k].outcome, b.faults[k].outcome)
            << label << " "
            << faultToString(net, a.faults[k].fault);
        EXPECT_EQ(a.faults[k].unsafePatterns,
                  b.faults[k].unsafePatterns)
            << label << " "
            << faultToString(net, a.faults[k].fault);
    }
}

void
checkGrid(const Netlist &net, const char *label,
          std::uint64_t max_patterns, bool check_alternating = true,
          int keep_unsafe_examples = 4)
{
    // Per-fault oracle at the narrowest portable width.
    fault::CampaignOptions ref;
    ref.maxPatterns = max_patterns;
    ref.keepUnsafeExamples = keep_unsafe_examples;
    ref.lanes = 64;
    ref.simd = sim::SimdTarget::Portable;
    ref.checkAlternating = check_alternating;
    const auto reference = oracle::runPerFaultCampaign(net, ref);

    for (const int jobs : {1, 8})
        for (const int lanes : {64, 512})
            for (const sim::SimdTarget simd :
                 {sim::SimdTarget::Portable, sim::SimdTarget::Auto}) {
                fault::CampaignOptions opts;
                opts.maxPatterns = max_patterns;
                opts.keepUnsafeExamples = keep_unsafe_examples;
                opts.jobs = jobs;
                opts.lanes = lanes;
                opts.simd = simd;
                opts.checkAlternating = check_alternating;
                const auto res =
                    fault::runAlternatingCampaign(net, opts);
                const std::string pt =
                    std::string(label) + " jobs=" +
                    std::to_string(jobs) +
                    " lanes=" + std::to_string(lanes) + " simd=" +
                    sim::simdTargetName(sim::resolveSimdTarget(simd));
                EXPECT_EQ(res.fp.classes, res.fp.prunedClasses +
                                              res.fp.flipClasses +
                                              res.fp.cptClasses +
                                              res.fp.tapClasses +
                                              res.fp.simClasses)
                    << pt;
                expectSameVerdicts(reference, res, net, pt);
            }

    // The oracle itself must sit at a lanes/SIMD-invariant point too:
    // re-run it at the widest native corner.
    fault::CampaignOptions wide = ref;
    wide.lanes = 512;
    wide.simd = sim::SimdTarget::Auto;
    expectSameVerdicts(reference, oracle::runPerFaultCampaign(net, wide),
                       net, std::string(label) + " reference@512");
}

TEST(FaultParallelEquiv, PaperCircuits)
{
    checkGrid(circuits::section36Network(), "section 3.6",
              std::uint64_t{1} << 16);
    checkGrid(circuits::section36NetworkRepaired(),
              "section 3.6 repaired", std::uint64_t{1} << 16);
    checkGrid(circuits::rippleCarryAdder(4), "rca4",
              std::uint64_t{1} << 16);
}

TEST(FaultParallelEquiv, UnsafeClassesAcrossManyBlocks)
{
    // The section 3.6 network has 3 inputs, so its campaigns above run
    // one block. Five copies have 15 inputs and twenty Unsafe faults,
    // and 1,000 sampled patterns make 16 blocks at 64 lanes, the last
    // one partial. Keeping every unsafe example makes each block's
    // unsafe lanes part of the verdict, so a Detected class that a
    // block could still make Unsafe must not be dropped.
    const Netlist five =
        testing::disjointCopies(circuits::section36Network(), 5);
    ASSERT_EQ(five.numInputs(), 15);
    fault::CampaignOptions opts;
    opts.maxPatterns = 1000;
    EXPECT_EQ(fault::runAlternatingCampaign(five, opts).numUnsafe, 20);
    checkGrid(five, "five section 3.6 copies", 1000,
              /*check_alternating=*/true, /*keep_unsafe_examples=*/1000);
}

TEST(FaultParallelEquiv, AluSlice)
{
    checkGrid(system::aluNetlist(system::AluOp::Add, 4), "alu add4",
              std::uint64_t{1} << 16);
}

TEST(FaultParallelEquiv, HardenedRandomNetlists)
{
    // Hardened networks take the self-dual fast path on every block;
    // these are the production shape for the verdict cache.
    util::Rng rng(0xfadelu);
    for (int it = 0; it < 4; ++it) {
        const Netlist raw = testing::randomNetlist(
            5 + static_cast<int>(rng.below(2)),
            12 + static_cast<int>(rng.below(20)), rng);
        const ingest::HardenedCircuit hard = ingest::hardenNetlist(raw);
        checkGrid(hard.net, "hardened random",
                  std::uint64_t{1} << 12);
    }
}

TEST(FaultParallelEquiv, RawRandomNetlistsFallback)
{
    // Raw random netlists are rarely self-dual, so most blocks take
    // the per-class fallback: the gate itself must stay exact.
    util::Rng rng(0xbeeflu);
    for (int it = 0; it < 4; ++it) {
        const Netlist raw = testing::randomNetlist(
            5 + static_cast<int>(rng.below(2)),
            10 + static_cast<int>(rng.below(16)), rng);
        checkGrid(raw, "raw random", std::uint64_t{1} << 12,
                  /*check_alternating=*/false);
    }
}

/** y = AND(a0, NOT(a<k>)) over @p inputs inputs, hardened. */
Netlist
andNotOver(int inputs, int k)
{
    Netlist raw;
    std::vector<GateId> in;
    for (int i = 0; i < inputs; ++i)
        in.push_back(raw.addInput("a" + std::to_string(i)));
    const GateId not_k = raw.addNot(in[static_cast<std::size_t>(k)]);
    raw.addOutput(raw.addAnd({in[0], not_k}), "y");
    return ingest::hardenNetlist(raw).net;
}

TEST(FaultParallelEquiv, InputsPast64DrawTheirOwnWords)
{
    // A sampled pattern draws one Rng word per 64 inputs, so input 64
    // is as independent of input 0 as input 63 is: both circuits are
    // the same AND of two free inputs and get the same verdict counts.
    // (Reading every input from one word aliased input 64 to input 0,
    // which pins y to 0 and left 21 of the 170 faults detected
    // against 32.)
    const Netlist on63 = andNotOver(70, 63);
    const Netlist on64 = andNotOver(70, 64);
    fault::CampaignOptions opts;
    opts.maxPatterns = 4096;
    const fault::CampaignResult r63 =
        fault::runAlternatingCampaign(on63, opts);
    const fault::CampaignResult r64 =
        fault::runAlternatingCampaign(on64, opts);
    ASSERT_EQ(r64.faults.size(), 170u);
    EXPECT_EQ(r64.numDetected, 32);
    EXPECT_EQ(r64.numDetected, r63.numDetected);
    EXPECT_EQ(r64.numUnsafe, r63.numUnsafe);
    EXPECT_EQ(r64.numUntestable, r63.numUntestable);
    checkGrid(on64, "a0 & ~a64 over 70 inputs", 4096);
}

} // namespace
} // namespace scal
