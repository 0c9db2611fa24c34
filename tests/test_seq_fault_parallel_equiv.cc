/**
 * @file
 * The sequential campaign pipeline against the per-fault oracle
 * (tests/oracle/): bit-identity of verdicts, first-alarm/escape
 * periods, latency histograms and lane counters at lane widths that
 * pack 8, 2 and 1 faults per lane batch, across jobs counts, SIMD
 * targets, transient windows and hold inputs; a 30-flip-flop
 * hardened machine with D-pin sites, whose work counters are pinned;
 * the raw (non-hardened) fallback spec; invariance of the verdict
 * under the sequential-dominance toggle; and the fault window check
 * both runners share.
 */

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/seq_campaign.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/netlist.hh"
#include "oracle/per_fault_campaign.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "seq/registers.hh"
#include "sim/flat.hh"
#include "sim/seq_fault_sim.hh"
#include "test_helpers.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

struct Case
{
    std::string name;
    Netlist net;
    fault::SeqCampaignSpec spec;
};

/**
 * A raw sequential net that is NOT an alternating machine: mixed
 * PhiRise/PhiFall latches, a held input, and a single buffered data
 * input serving as the only alternating output so the fault-free
 * precondition passes. Exercises the fallback spec (explicit alt
 * set, hold set, default data set).
 */
Case
rawCase()
{
    Case c;
    c.name = "raw";
    Netlist &net = c.net;
    GateId a = net.addInput("a");
    GateId b = net.addInput("b");
    net.addInput("phi");
    const GateId placeholder = net.addConst(false);
    GateId rise = net.addDff(placeholder, "rise", LatchMode::PhiRise,
                             /*init=*/false);
    GateId fall = net.addDff(rise, "fall", LatchMode::PhiFall,
                             /*init=*/true);
    GateId x = net.addXor({a, fall}, "x");
    net.replaceFanin(rise, 0, x);
    GateId o = net.addOr({x, b}, "o");
    net.addOutput(o, "o");
    net.addOutput(rise, "q");
    net.addOutput(net.addBuf(a, "alt"), "alt");
    c.spec.phiInput = 2;
    c.spec.holdInputs = {1}; // b rides through the symbol pair
    c.spec.altOutputs = {2}; // only buf(a) alternates fault-free
    return c;
}

std::vector<Case>
cases()
{
    std::vector<Case> cs;
    {
        auto sm = seq::reynoldsDetector();
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"reynolds", std::move(sm.net), spec});
    }
    {
        auto sm = seq::translatorDetector();
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"translator", std::move(sm.net), spec});
    }
    {
        auto sm = seq::selfDualAccumulator(4);
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"accumulator4", std::move(sm.net), spec});
    }
    cs.push_back(rawCase());
    return cs;
}

/** Everything the deterministic verdict block is built from. The
 *  breakdown/periods counters are work accounting the oracle does not
 *  keep, and deliberately NOT compared. */
void
expectIdentical(const fault::SeqCampaignResult &a,
                const fault::SeqCampaignResult &b,
                bool compare_simd = true)
{
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t k = 0; k < a.faults.size(); ++k) {
        ASSERT_EQ(a.faults[k].fault, b.faults[k].fault);
        ASSERT_EQ(a.faults[k].outcome, b.faults[k].outcome)
            << "fault " << k;
        ASSERT_EQ(a.faults[k].firstAlarmPeriod,
                  b.faults[k].firstAlarmPeriod)
            << "fault " << k;
        ASSERT_EQ(a.faults[k].firstEscapePeriod,
                  b.faults[k].firstEscapePeriod)
            << "fault " << k;
    }
    EXPECT_EQ(a.numDetected, b.numDetected);
    EXPECT_EQ(a.numUnsafe, b.numUnsafe);
    EXPECT_EQ(a.numUntestable, b.numUntestable);
    EXPECT_EQ(a.latencyHistogram, b.latencyHistogram);
    EXPECT_EQ(a.alarmLaneCount, b.alarmLaneCount);
    EXPECT_EQ(a.meanAlarmPeriod, b.meanAlarmPeriod);
    EXPECT_EQ(a.symbols, b.symbols);
    EXPECT_EQ(a.lanes, b.lanes);
    if (compare_simd) {
        EXPECT_EQ(a.simd, b.simd);
    }
}

/** The pipeline's result, after checking it against the oracle. */
fault::SeqCampaignResult
checkedRun(const Case &c, const fault::SeqCampaignOptions &opts)
{
    const fault::SeqCampaignResult got =
        fault::runSequentialCampaign(c.net, c.spec, opts);
    expectIdentical(got, oracle::runPerFaultSeqCampaign(c.net, c.spec, opts));
    return got;
}

TEST(SeqFaultParallelEquiv, MatchesPerFaultPathAcrossJobsAndLanes)
{
    // 64 and 256 lanes pack 8 and 2 faults per batch; 300 and 512 one,
    // and 300 leaves that one fault a partial lane mask.
    for (const auto &c : cases()) {
        for (int lanes : {64, 256, 300, 512}) {
            for (int jobs : {1, 2, 8}) {
                SCOPED_TRACE(c.name + " lanes=" +
                             std::to_string(lanes) +
                             " jobs=" + std::to_string(jobs));
                fault::SeqCampaignOptions opts;
                opts.symbols = 24;
                opts.lanes = lanes;
                opts.seed = 7;
                opts.jobs = jobs;
                checkedRun(c, opts);
            }
        }
    }
}

TEST(SeqFaultParallelEquiv, PortableSimdMatches)
{
    for (const auto &c : cases()) {
        if (c.name != "translator" && c.name != "raw")
            continue;
        for (int lanes : {64, 256}) {
            SCOPED_TRACE(c.name + " lanes=" + std::to_string(lanes));
            fault::SeqCampaignOptions opts;
            opts.symbols = 20;
            opts.lanes = lanes;
            opts.seed = 11;
            opts.jobs = 2;
            opts.simd = sim::SimdTarget::Portable;
            const auto portable = checkedRun(c, opts);

            // Verdicts are also invariant across kernel builds.
            opts.simd = sim::SimdTarget::Auto;
            expectIdentical(portable, checkedRun(c, opts),
                            /*compare_simd=*/false);
        }
    }
}

TEST(SeqFaultParallelEquiv, TransientWindowMatches)
{
    // A non-full window also gates off the time-frame dominance
    // rules; the pipeline must agree with the oracle on faults that
    // come and go mid-stream.
    for (const auto &c : cases()) {
        if (c.name != "reynolds" && c.name != "raw")
            continue;
        for (int lanes : {64, 512}) {
            for (int jobs : {1, 8}) {
                SCOPED_TRACE(c.name + " lanes=" + std::to_string(lanes) +
                             " jobs=" + std::to_string(jobs));
                fault::SeqCampaignOptions opts;
                opts.symbols = 24;
                opts.lanes = lanes;
                opts.seed = 13;
                opts.jobs = jobs;
                opts.faultStart = 5;
                opts.faultEnd = 13;
                checkedRun(c, opts);
            }
        }
    }
}

TEST(SeqFaultParallelEquiv, Lanes512RunsOneFaultPerBatch)
{
    // At the full SIMD block width one fault fills a lane batch: every
    // unpruned class replays in a batch of its own.
    const auto cs = cases();
    const Case &c = cs[1]; // translator
    fault::SeqCampaignOptions opts;
    opts.symbols = 12;
    opts.lanes = 512;
    opts.seed = 17;
    opts.jobs = 2;
    const fault::SeqCampaignResult res = checkedRun(c, opts);
    EXPECT_GT(res.batches, 0);
    EXPECT_EQ(res.batches, res.batchedClasses);
    EXPECT_EQ(res.batchedClasses, res.classes - res.prunedClasses);
}

TEST(SeqFaultParallelEquiv, ManyFlipFlopsMatchOracleAndPinnedCounters)
{
    // Hardened s344 has 30 flip-flops and D-pin branch sites. A batch
    // copies and compares only flip-flops whose D driver the replay
    // stamped or that had diverged; the verdicts must match the
    // per-fault oracle, and the work counters the values measured
    // when every flip-flop was copied each period, for a window that
    // spans the stream and one that ends before it does.
    const std::string path = scal::testing::bundledCircuitPath("s344.bench");
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(ingest::importCircuit(path).net);
    ASSERT_EQ(hard.net.flipFlops().size(), 30u);
    const sim::FlatNetlist flat(hard.net);
    const std::vector<Fault> faults = hard.net.allFaults();
    ASSERT_TRUE(
        std::any_of(faults.begin(), faults.end(), [&](const Fault &f) {
            return sim::decodeSeqFaultSite(flat, f).kind ==
                   sim::SeqFaultSite::Kind::DffBranch;
        }));
    const Case c{"s344", hard.net, hard.campaignSpec()};
    const struct
    {
        int lanes;
        bool windowed;
        long simulated, skipped, retired;
    } pins[] = {
        {64, false, 5542, 0, 322},     {300, false, 40136, 0, 302},
        {512, false, 40406, 0, 280},   {64, true, 4178, 522, 241},
        {300, true, 29605, 4170, 206}, {512, true, 29813, 4170, 174},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE("lanes=" + std::to_string(pin.lanes) +
                     (pin.windowed ? " window 3:25" : ""));
        fault::SeqCampaignOptions opts;
        opts.symbols = 16;
        opts.lanes = pin.lanes;
        opts.seed = 7;
        opts.jobs = 2;
        if (pin.windowed) {
            opts.faultStart = 3;
            opts.faultEnd = 25; // the stream has 32 periods
        }
        const fault::SeqCampaignResult got = checkedRun(c, opts);
        EXPECT_EQ(got.periodsSimulated, pin.simulated);
        EXPECT_EQ(got.periodsSkipped, pin.skipped);
        EXPECT_EQ(got.retiredEarly, pin.retired);
    }
}

TEST(SeqFaultParallelEquiv, SeqDominanceKnobInvariant)
{
    // The sequential collapse rules are a pure work saving: toggling
    // them must not move a single verdict, at 8 or 1 faults per batch.
    for (const auto &c : cases()) {
        if (c.name != "translator" && c.name != "raw")
            continue;
        for (int lanes : {64, 512}) {
            SCOPED_TRACE(c.name + " lanes=" + std::to_string(lanes));
            fault::SeqCampaignOptions opts;
            opts.symbols = 24;
            opts.lanes = lanes;
            opts.seed = 19;
            opts.jobs = 2;
            for (bool seqdom : {true, false}) {
                opts.seqDominance = seqdom;
                checkedRun(c, opts);
            }
        }
    }
}

TEST(SeqFaultParallelEquiv, WindowMustOverlapTheStream)
{
    // 16 symbols are 32 periods. A window that misses [0, 32) leaves
    // every fault inactive, and its all-Untestable verdict would mean
    // nothing: the inline run and every shard refuse it alike.
    const auto cs = cases();
    const Case &c = cs[1]; // translator
    fault::SeqCampaignOptions opts;
    opts.symbols = 16;
    opts.jobs = 1;
    const struct
    {
        long start, end;
    } missing[] = {{5, 3}, {7, 7}, {-4, -1}, {40, 50}};
    for (const auto &w : missing) {
        const std::string window =
            std::to_string(w.start) + ":" + std::to_string(w.end);
        SCOPED_TRACE(window);
        opts.faultStart = w.start;
        opts.faultEnd = w.end;
        const std::string want = "fault window " + window +
                                 " does not overlap the 32-period "
                                 "stream 0:32";
        for (int lanes : {64, 512}) {
            opts.lanes = lanes;
            try {
                fault::runSequentialCampaign(c.net, c.spec, opts);
                ADD_FAILURE() << "inline run accepted the window";
            } catch (const std::invalid_argument &e) {
                EXPECT_EQ(e.what(), want);
            }
            try {
                fault::runSequentialCampaignShard(c.net, c.spec, opts,
                                                  {0, 2});
                ADD_FAILURE() << "shard run accepted the window";
            } catch (const std::invalid_argument &e) {
                EXPECT_EQ(e.what(), want);
            }
        }
    }

    // A window that overlaps the stream, and the default one, run.
    opts.lanes = 64;
    opts.faultStart = 0;
    opts.faultEnd = 5;
    checkedRun(c, opts);
    EXPECT_NO_THROW(
        fault::runSequentialCampaignShard(c.net, c.spec, opts, {1, 2}));
    fault::SeqCampaignOptions dflt;
    dflt.symbols = 16;
    dflt.jobs = 1;
    checkedRun(c, dflt);
}

} // namespace
