/**
 * @file
 * The engine's headline guarantee: the same (netlist, seed,
 * maxPatterns) triple yields a bit-identical CampaignResult at any
 * jobs count. Every jobs count runs the collapse + plan + chunk +
 * merge pipeline (jobs == 1 as one chunk on the calling thread), and
 * the per-fault oracle (tests/oracle/) simulates every fault on its
 * own — so these tests also prove the equivalence classes are
 * behaviorally exact on the paper's circuits.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/multi.hh"
#include "netlist/circuits.hh"
#include "netlist/structure.hh"
#include "oracle/per_fault_campaign.hh"
#include "system/alu.hh"
#include "system/campaign.hh"

namespace scal
{
namespace
{

using namespace netlist;

void
expectBitIdentical(const fault::CampaignResult &a,
                   const fault::CampaignResult &b,
                   const Netlist &net, const char *label)
{
    EXPECT_EQ(a.patternsApplied, b.patternsApplied) << label;
    EXPECT_EQ(a.numUntestable, b.numUntestable) << label;
    EXPECT_EQ(a.numDetected, b.numDetected) << label;
    EXPECT_EQ(a.numUnsafe, b.numUnsafe) << label;
    ASSERT_EQ(a.faults.size(), b.faults.size()) << label;
    for (std::size_t k = 0; k < a.faults.size(); ++k) {
        const auto &fa = a.faults[k];
        const auto &fb = b.faults[k];
        ASSERT_TRUE(fa.fault == fb.fault)
            << label << " fault order differs at " << k;
        EXPECT_EQ(fa.outcome, fb.outcome)
            << label << " " << faultToString(net, fa.fault);
        EXPECT_EQ(fa.unsafePatterns, fb.unsafePatterns)
            << label << " " << faultToString(net, fa.fault);
    }
}

void
checkAcrossJobs(const Netlist &net, const char *label,
                std::uint64_t max_patterns = std::uint64_t{1} << 20)
{
    // Oracle: every fault simulated individually, one thread.
    fault::CampaignOptions opts;
    opts.maxPatterns = max_patterns;
    const auto reference = oracle::runPerFaultCampaign(net, opts);
    EXPECT_EQ(reference.stats.simulatedFaults, reference.faults.size());

    // The pipeline (batching + CPT + pruning) on one worker, which
    // simulates collapsed classes only.
    opts.jobs = 1;
    const auto serial = fault::runAlternatingCampaign(net, opts);
    expectBitIdentical(reference, serial, net, label);
    EXPECT_GT(serial.fp.classes, 0);
    EXPECT_EQ(serial.stats.jobs, 1);
    EXPECT_LE(serial.stats.simulatedFaults, serial.faults.size());
    EXPECT_GT(serial.stats.simulatedFaults, 0u);

    for (int jobs : {2, 8}) {
        opts.jobs = jobs;
        const auto parallel = fault::runAlternatingCampaign(net, opts);
        expectBitIdentical(serial, parallel, net, label);
        EXPECT_EQ(parallel.stats.jobs, jobs);
        // The route counts are properties of the plan, not of the
        // chunks (fp.batches follows the chunk plan and is left out).
        EXPECT_EQ(parallel.fp.classes, serial.fp.classes) << label;
        EXPECT_EQ(parallel.fp.prunedClasses, serial.fp.prunedClasses)
            << label;
        EXPECT_EQ(parallel.fp.flipClasses, serial.fp.flipClasses) << label;
        EXPECT_EQ(parallel.fp.cptClasses, serial.fp.cptClasses) << label;
        EXPECT_EQ(parallel.fp.tapClasses, serial.fp.tapClasses) << label;
        EXPECT_EQ(parallel.fp.simClasses, serial.fp.simClasses) << label;
        // Every jobs count simulates collapsed classes only.
        EXPECT_LE(parallel.stats.simulatedFaults,
                  parallel.stats.totalFaults);
        EXPECT_GT(parallel.stats.simulatedFaults, 0u);
    }
}

TEST(EngineDeterminism, Chapter3Section36)
{
    checkAcrossJobs(circuits::section36Network(), "section 3.6");
}

TEST(EngineDeterminism, Chapter3Section36Repaired)
{
    checkAcrossJobs(circuits::section36NetworkRepaired(),
                    "section 3.6 repaired");
}

TEST(EngineDeterminism, Chapter3RippleAdder)
{
    checkAcrossJobs(circuits::rippleCarryAdder(4),
                    "4-bit ripple adder");
}

TEST(EngineDeterminism, Figure7AluAdd)
{
    // The Chapter 7 system datapath (4-bit slice, exhaustive).
    checkAcrossJobs(system::aluNetlist(system::AluOp::Add, 4),
                    "SCAL ALU ADD");
}

TEST(EngineDeterminism, Figure7AluXor)
{
    checkAcrossJobs(system::aluNetlist(system::AluOp::Xor, 4),
                    "SCAL ALU XOR");
}

TEST(EngineDeterminism, Figure7AluAddSampledPatterns)
{
    // The full-width datapath has 17 inputs, so the campaign samples
    // random patterns — the sampled stream must also be identical at
    // every jobs count.
    fault::CampaignOptions opts;
    opts.maxPatterns = std::uint64_t{1} << 9;
    opts.checkAlternating = false; // verified exhaustively elsewhere
    const Netlist net = system::aluNetlist(system::AluOp::Add);
    opts.jobs = 1;
    const auto serial = fault::runAlternatingCampaign(net, opts);
    EXPECT_EQ(serial.patternsApplied, std::uint64_t{1} << 9);
    for (int jobs : {2, 8}) {
        opts.jobs = jobs;
        const auto parallel = fault::runAlternatingCampaign(net, opts);
        expectBitIdentical(serial, parallel, net, "ALU ADD sampled");
    }
}

TEST(EngineDeterminism, MultiFaultCountsMatchAcrossJobs)
{
    const Netlist net = circuits::selfDualFullAdder();
    const auto serial =
        fault::runMultiFaultCampaign(net, 2, false, 40, 9, 1);
    for (int jobs : {2, 8}) {
        const auto parallel =
            fault::runMultiFaultCampaign(net, 2, false, 40, 9, jobs);
        EXPECT_EQ(parallel.trials, serial.trials);
        EXPECT_EQ(parallel.masked, serial.masked);
        EXPECT_EQ(parallel.detected, serial.detected);
        EXPECT_EQ(parallel.unsafe, serial.unsafe);
    }
}

TEST(EngineDeterminism, SystemCampaignMatchesAcrossJobs)
{
    // Shortest standard workload (mul5) against its own datapath.
    const system::Workload wl = system::findWorkload("mul5");

    system::SystemCampaignOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial = runSystemCampaign(wl, system::AluOp::Shl,
                                          /*checked=*/true, serial_opts);
    system::SystemCampaignOptions par_opts;
    par_opts.jobs = 4;
    const auto parallel = runSystemCampaign(wl, system::AluOp::Shl,
                                            /*checked=*/true, par_opts);

    EXPECT_EQ(parallel.total, serial.total);
    EXPECT_EQ(parallel.masked, serial.masked);
    EXPECT_EQ(parallel.detected, serial.detected);
    EXPECT_EQ(parallel.silent, serial.silent);
    EXPECT_DOUBLE_EQ(parallel.meanDetectStep, serial.meanDetectStep);
    EXPECT_EQ(parallel.silentFaults, serial.silentFaults);
}

} // namespace
} // namespace scal
