#include <gtest/gtest.h>

#include "system/campaign.hh"
#include "system/scal_cpu.hh"

namespace scal
{
namespace
{

using namespace system;

TEST(ScalCpu, MatchesGoldenOnAllWorkloadsFaultFree)
{
    for (const Workload &wl : standardWorkloads()) {
        ScalCpu cpu(wl.prog);
        for (auto [addr, value] : wl.data)
            cpu.poke(addr, value);
        const ScalRunResult r = cpu.run(wl.maxSteps);
        EXPECT_TRUE(r.halted) << wl.name;
        EXPECT_FALSE(r.errorDetected) << wl.name << " "
                                      << r.detectReason;
        EXPECT_EQ(r.output, goldenOutput(wl)) << wl.name;
    }
}

TEST(ScalCpu, DetectsInjectedAluFault)
{
    const Workload wl = standardWorkloads()[1]; // fib12
    const netlist::Netlist alu = aluNetlist(AluOp::Add);
    // A stem fault on the first sum output line.
    const netlist::Fault fault{
        {alu.outputs()[0], netlist::FaultSite::kStem, -1}, true};

    ScalCpu cpu(wl.prog);
    for (auto [addr, value] : wl.data)
        cpu.poke(addr, value);
    cpu.injectAluFault(AluOp::Add, fault);
    const ScalRunResult r = cpu.run(wl.maxSteps);
    EXPECT_TRUE(r.errorDetected);
    EXPECT_GE(r.detectStep, 1);
    EXPECT_NE(r.detectReason.find("non-alternating"),
              std::string::npos);
}

TEST(ScalCpu, DetectsMemoryFault)
{
    const Workload wl = standardWorkloads()[0]; // sum8 reads mem
    ScalCpu cpu(wl.prog);
    for (auto [addr, value] : wl.data)
        cpu.poke(addr, value);
    // Stuck bit in a cell the program reads, opposite to its value.
    const std::uint8_t addr = wl.data[2].first;
    const bool bit0 = wl.data[2].second & 1;
    cpu.injectMemFault({addr, 0, !bit0, false});
    const ScalRunResult r = cpu.run(wl.maxSteps);
    EXPECT_TRUE(r.errorDetected);
    EXPECT_NE(r.detectReason.find("parity"), std::string::npos);
    EXPECT_TRUE(r.output.empty()); // stopped before any output
}

TEST(ScalCpu, CampaignHasNoSilentCorruption)
{
    // The headline Chapter 7 property: across every single stuck-at
    // fault in the ADD datapath, the SCAL CPU never emits a wrong
    // output without first flagging an error.
    const Workload wl = standardWorkloads()[1]; // fib12
    const SystemCampaignResult res =
        runSystemCampaign(wl, AluOp::Add, /*checked=*/true);
    EXPECT_EQ(res.silent, 0)
        << (res.silentFaults.empty() ? std::string()
                                     : res.silentFaults[0]);
    EXPECT_GT(res.detected, 0);
    EXPECT_GT(res.total, 400);
}

TEST(ScalCpu, CampaignCoversEveryWorkloadOnOneOp)
{
    for (const Workload &wl : standardWorkloads()) {
        const SystemCampaignResult res =
            runSystemCampaign(wl, AluOp::PassB, /*checked=*/true);
        EXPECT_EQ(res.silent, 0) << wl.name;
    }
}

TEST(ScalCpu, UncheckedBaselineSuffersSilentCorruption)
{
    const Workload wl = standardWorkloads()[1];
    const SystemCampaignResult res =
        runSystemCampaign(wl, AluOp::Add, /*checked=*/false);
    EXPECT_EQ(res.detected, 0); // it has no checker at all
    EXPECT_GT(res.silent, 0);
    EXPECT_GT(res.silent, res.masked);
}

TEST(ScalCpu, DetectionIsPrompt)
{
    // Errors are caught within the very instruction that first
    // touches the faulty hardware: mean detect step is small.
    const Workload wl = standardWorkloads()[1];
    const SystemCampaignResult res =
        runSystemCampaign(wl, AluOp::Add, /*checked=*/true);
    EXPECT_GT(res.meanDetectStep, 0);
    EXPECT_LT(res.meanDetectStep, 200);
}

TEST(ScalCpu, PointerWorkloadCampaignSilentFree)
{
    const Workload wl = standardWorkloads().back(); // arraysum
    ASSERT_EQ(wl.name, "arraysum");
    const SystemCampaignResult res =
        runSystemCampaign(wl, AluOp::Add, /*checked=*/true);
    EXPECT_EQ(res.silent, 0);
    EXPECT_GT(res.detected, 0);
}

TEST(ScalCpu, PointerCellMemoryFaultDetected)
{
    const Workload wl = standardWorkloads().back();
    ScalCpu cpu(wl.prog);
    for (auto [a, v] : wl.data)
        cpu.poke(a, v);
    // Stuck bit in the pointer cell itself (cell 15): the pointer
    // read's parity check fires before a wrong dereference.
    cpu.injectMemFault({15, 4, true, false});
    const auto r = cpu.run(wl.maxSteps);
    EXPECT_TRUE(r.errorDetected);
    EXPECT_NE(r.detectReason.find("pointer"), std::string::npos);
    EXPECT_TRUE(r.output.empty());
}

TEST(SystemOutcome, Names)
{
    EXPECT_STREQ(systemOutcomeName(SystemOutcome::Masked), "masked");
    EXPECT_STREQ(systemOutcomeName(SystemOutcome::Detected),
                 "detected");
    EXPECT_STREQ(systemOutcomeName(SystemOutcome::SilentCorruption),
                 "SILENT");
}

} // namespace
} // namespace scal
