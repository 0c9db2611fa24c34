/**
 * @file
 * Sharded campaigns merge bit-identically: N independent shard runs,
 * merged, must reproduce the single-process verdict byte-for-byte at
 * every point of the shards x jobs x lanes grid — the contract
 * `scal_cli merge` and the server's orchestrated big-job path rest
 * on; the merged sequential work counters equal the inline run's.
 * Plus merge-time validation (foreign, duplicate, missing and
 * incomplete partials are rejected with diagnostics), the system-
 * campaign shard path, the worker-argv serialization, and the
 * hardened-realization auto-skip of sequential dominance.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/checkpoint.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/circuits.hh"
#include "netlist/structure.hh"
#include "system/campaign.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using engine::SnapshotError;

/** Run every shard of an N-way combinational split and merge. */
std::string
mergedCombVerdict(const netlist::Netlist &net,
                  const fault::CampaignOptions &opts, int shards)
{
    std::vector<std::vector<std::uint8_t>> partials;
    std::vector<std::string> names;
    for (int k = 0; k < shards; ++k) {
        const fault::ShardOutcome out =
            fault::runAlternatingCampaignShard(net, opts, {k, shards});
        partials.push_back(out.partial);
        names.push_back("shard " + std::to_string(k + 1) + "/" +
                        std::to_string(shards));
    }
    return fault::campaignVerdictJson(
        net, fault::mergeCampaignPartials(net, partials, names));
}

/** Run every shard of an N-way sequential split and merge. */
fault::SeqCampaignResult
mergedSeqResult(const netlist::Netlist &net,
                const fault::SeqCampaignSpec &spec,
                const fault::SeqCampaignOptions &opts, int shards)
{
    std::vector<std::vector<std::uint8_t>> partials;
    for (int k = 0; k < shards; ++k)
        partials.push_back(fault::runSequentialCampaignShard(
                               net, spec, opts, {k, shards})
                               .partial);
    return fault::mergeSeqCampaignPartials(net, partials);
}

std::string
mergedSeqVerdict(const netlist::Netlist &net,
                 const fault::SeqCampaignSpec &spec,
                 const fault::SeqCampaignOptions &opts, int shards)
{
    return fault::seqCampaignVerdictJson(
        net, mergedSeqResult(net, spec, opts, shards));
}

/** A small raw sequential machine for hardening. */
netlist::Netlist
rawSeqMachine()
{
    netlist::Netlist raw;
    const netlist::GateId a = raw.addInput("a");
    const netlist::GateId b = raw.addInput("b");
    const netlist::GateId c0 = raw.addConst(false);
    const netlist::GateId q = raw.addDff(c0, "q");
    const netlist::GateId x = raw.addXor({a, q}, "x");
    raw.replaceFanin(q, 0, x);
    raw.addOutput(raw.addOr({x, b}, "o"), "o");
    raw.addOutput(q, "s");
    return raw;
}

TEST(ShardMerge, CombBitIdenticalAcrossGrid)
{
    util::Rng rng(0x51a6d1u);
    const netlist::Netlist nets[] = {
        netlist::circuits::rippleCarryAdder(4),
        ingest::hardenNetlist(testing::randomNetlist(5, 18, rng)).net,
    };
    const char *labels[] = {"rca4", "hardened random"};

    for (int n = 0; n < 2; ++n) {
        // The verdict JSON is lanes-, SIMD- and jobs-invariant, so one
        // reference (at a jobs count no grid point uses, which the
        // merge must also erase) covers the whole grid.
        fault::CampaignOptions ref;
        ref.maxPatterns = 2048;
        ref.checkAlternating = false;
        ref.jobs = 2;
        ref.lanes = 64;
        const std::string want = fault::campaignVerdictJson(
            nets[n], fault::runAlternatingCampaign(nets[n], ref));

        for (const int lanes : {64, 512})
            for (const int shards : {2, 4, 8})
                for (const int jobs : {1, 8}) {
                    fault::CampaignOptions opts = ref;
                    opts.jobs = jobs;
                    opts.lanes = lanes;
                    EXPECT_EQ(mergedCombVerdict(nets[n], opts, shards),
                              want)
                        << labels[n] << " shards=" << shards
                        << " jobs=" << jobs << " lanes=" << lanes;
                }
    }
}

TEST(ShardMerge, CombInlineMatchesSingleShardRun)
{
    // The inline runner and the shard runner share one setup and one
    // group classifier; a whole-universe shard (`--shard 1/1`) merged
    // back must be byte-identical to the inline verdict at one worker
    // (the calling thread) and at many.
    util::Rng rng(0x51a6d3u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(6, 24, rng)).net;
    for (const int jobs : {1, 8}) {
        fault::CampaignOptions opts;
        opts.maxPatterns = 1024;
        opts.checkAlternating = false;
        opts.jobs = jobs;
        const fault::CampaignResult inl =
            fault::runAlternatingCampaign(net, opts);
        const fault::CampaignResult merged =
            fault::mergeCampaignPartials(
                net, {fault::runAlternatingCampaignShard(net, opts, {0, 1})
                          .partial});
        EXPECT_EQ(fault::campaignVerdictJson(net, merged),
                  fault::campaignVerdictJson(net, inl))
            << "jobs=" << jobs;
        EXPECT_EQ(merged.fp.batches, inl.fp.batches) << "jobs=" << jobs;
        EXPECT_EQ(inl.stats.jobs, jobs);
    }
}

TEST(ShardMerge, SeqBitIdenticalAcrossGrid)
{
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(rawSeqMachine());
    const fault::SeqCampaignSpec spec = hard.campaignSpec();

    // Unlike the combinational campaign, the lane count is part of
    // the sequential work definition (lanes = independent random
    // streams), so the reference is per-lanes; shards and jobs must
    // still be invisible.
    for (const int lanes : {64, 512}) {
        fault::SeqCampaignOptions ref;
        ref.symbols = 24;
        ref.jobs = 2;
        ref.lanes = lanes;
        const std::string want = fault::seqCampaignVerdictJson(
            hard.net, fault::runSequentialCampaign(hard.net, spec, ref));

        for (const int shards : {2, 4, 8})
            for (const int jobs : {1, 8}) {
                fault::SeqCampaignOptions opts = ref;
                opts.jobs = jobs;
                EXPECT_EQ(mergedSeqVerdict(hard.net, spec, opts, shards),
                          want)
                    << "shards=" << shards << " jobs=" << jobs
                    << " lanes=" << lanes;
            }
    }
}

/**
 * A raw (unhardened) machine whose dangling constant is unobservable,
 * so the collapse prunes classes; only buf(a) alternates fault-free.
 */
netlist::Netlist
rawPrunedMachine(fault::SeqCampaignSpec *spec)
{
    netlist::Netlist net;
    const netlist::GateId a = net.addInput("a");
    const netlist::GateId b = net.addInput("b");
    net.addInput("phi");
    const netlist::GateId placeholder = net.addConst(false);
    const netlist::GateId rise = net.addDff(
        placeholder, "rise", netlist::LatchMode::PhiRise, false);
    const netlist::GateId fall =
        net.addDff(rise, "fall", netlist::LatchMode::PhiFall, true);
    const netlist::GateId x = net.addXor({a, fall}, "x");
    net.replaceFanin(rise, 0, x);
    net.addOutput(net.addOr({x, b}, "o"), "o");
    net.addOutput(rise, "q");
    net.addOutput(net.addBuf(a, "alt"), "alt");
    spec->phiInput = 2;
    spec->holdInputs = {1};
    spec->altOutputs = {2};
    return net;
}

TEST(ShardMerge, SeqMergedCountersEqualInline)
{
    // Every slice replays its share of the inline run's lane batches,
    // so the merged tail counts the inline run's work, not only its
    // verdict.
    const ingest::HardenedCircuit s386 = ingest::hardenNetlist(
        ingest::importCircuit(testing::bundledCircuitPath("s386.bench"))
            .net);
    fault::SeqCampaignSpec rawSpec;
    const netlist::Netlist raw = rawPrunedMachine(&rawSpec);
    const struct
    {
        const char *name;
        const netlist::Netlist &net;
        fault::SeqCampaignSpec spec;
        bool pruned;
    } cases[] = {{"hardened s386", s386.net, s386.campaignSpec(), false},
                 {"raw pruned", raw, rawSpec, true}};

    for (const auto &c : cases) {
        for (const int lanes : {64, 512}) {
            fault::SeqCampaignOptions opts;
            opts.symbols = 16;
            opts.seed = 5;
            opts.lanes = lanes;
            opts.jobs = 1;
            const fault::SeqCampaignResult want =
                fault::runSequentialCampaign(c.net, c.spec, opts);
            if (c.pruned) {
                ASSERT_GT(want.prunedClasses, 0) << c.name;
            }
            for (const int shards : {2, 3, 4}) {
                for (const int jobs : {1, 4}) {
                    SCOPED_TRACE(std::string(c.name) +
                                 " lanes=" + std::to_string(lanes) +
                                 " shards=" + std::to_string(shards) +
                                 " jobs=" + std::to_string(jobs));
                    opts.jobs = jobs;
                    const fault::SeqCampaignResult got =
                        mergedSeqResult(c.net, c.spec, opts, shards);
                    EXPECT_EQ(got.batches, want.batches);
                    EXPECT_EQ(got.batchedClasses, want.batchedClasses);
                    EXPECT_EQ(got.periodsSimulated, want.periodsSimulated);
                    EXPECT_EQ(got.periodsSkipped, want.periodsSkipped);
                    EXPECT_EQ(got.retiredEarly, want.retiredEarly);
                    EXPECT_EQ(got.classes, want.classes);
                    EXPECT_EQ(got.prunedClasses, want.prunedClasses);
                    EXPECT_EQ(fault::seqCampaignVerdictJson(c.net, got),
                              fault::seqCampaignVerdictJson(c.net, want));
                }
            }
        }
    }
}

TEST(ShardMerge, ShardsComposeWithCheckpointCadence)
{
    // Checkpoint cadence reshapes the emission blocks, never the
    // records: a cadence-1 shard partial merges to the same verdict.
    util::Rng rng(0x51a6d2u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(5, 14, rng)).net;
    fault::CampaignOptions opts;
    opts.maxPatterns = 512;
    opts.jobs = 2;
    opts.checkAlternating = false;
    const std::string want = fault::campaignVerdictJson(
        net, fault::runAlternatingCampaign(net, opts));

    std::vector<std::vector<std::uint8_t>> partials(2);
    for (int k = 0; k < 2; ++k) {
        fault::CheckpointOptions ckpt;
        ckpt.every = 1;
        ckpt.sink = [&partials, k](const std::vector<std::uint8_t> &b,
                                   bool final) {
            if (final)
                partials[static_cast<std::size_t>(k)] = b;
        };
        fault::runAlternatingCampaignShard(net, opts, {k, 2}, ckpt);
    }
    EXPECT_EQ(fault::campaignVerdictJson(
                  net, fault::mergeCampaignPartials(net, partials)),
              want);
}

TEST(ShardMerge, MergeRejectsBadPartialSets)
{
    util::Rng rng(0x51a6d3u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(5, 12, rng)).net;
    fault::CampaignOptions opts;
    opts.maxPatterns = 256;
    opts.jobs = 1;
    opts.checkAlternating = false;

    std::vector<std::vector<std::uint8_t>> partials;
    for (int k = 0; k < 2; ++k)
        partials.push_back(
            fault::runAlternatingCampaignShard(net, opts, {k, 2})
                .partial);

    // The well-formed set merges.
    EXPECT_NO_THROW(fault::mergeCampaignPartials(net, partials));

    // Missing shard: the split is incomplete.
    EXPECT_THROW(fault::mergeCampaignPartials(net, {partials[0]}),
                 SnapshotError);

    // Duplicate shard.
    EXPECT_THROW(
        fault::mergeCampaignPartials(net, {partials[0], partials[0]}),
        SnapshotError);

    // Foreign config: partial from a different seed cannot fold in.
    fault::CampaignOptions other = opts;
    other.seed = 7;
    const auto foreign =
        fault::runAlternatingCampaignShard(net, other, {1, 2}).partial;
    try {
        fault::mergeCampaignPartials(net, {partials[0], foreign},
                                     {"good.snp", "foreign.snp"});
        FAIL() << "foreign-config partial merged";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("foreign.snp"),
                  std::string::npos)
            << e.what();
    }

    // An interrupted checkpoint (complete == false) is not a partial
    // result and must be rejected, not silently under-merged.
    std::vector<std::uint8_t> boundary;
    fault::CheckpointOptions ckpt;
    ckpt.every = 1;
    ckpt.sink = [&boundary](const std::vector<std::uint8_t> &b,
                            bool final) {
        if (!final && boundary.empty())
            boundary = b;
    };
    fault::runAlternatingCampaignShard(net, opts, {0, 2}, ckpt);
    ASSERT_FALSE(boundary.empty());
    EXPECT_THROW(fault::mergeCampaignPartials(net, {boundary, partials[1]}),
                 SnapshotError);

    // Wrong kind: a seq partial cannot merge as comb.
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(rawSeqMachine());
    fault::SeqCampaignOptions sopts;
    sopts.symbols = 8;
    const auto seq_partial =
        fault::runSequentialCampaignShard(hard.net, hard.campaignSpec(),
                                          sopts, {0, 1})
            .partial;
    EXPECT_THROW(fault::mergeCampaignPartials(hard.net, {seq_partial}),
                 SnapshotError);

    // System partials go through the same partial-set check.
    const system::AluOp op = system::AluOp::Add;
    const auto sysShard = [&](const system::Workload &wl, int k,
                              const fault::CheckpointOptions &c = {}) {
        system::SystemCampaignOptions so;
        so.jobs = 1;
        return system::runSystemCampaignShard(wl, op, true, so, {k, 2}, c)
            .partial;
    };
    const system::Workload fib = system::standardWorkloads()[1];
    const std::vector<std::uint8_t> s0 = sysShard(fib, 0);
    const std::vector<std::uint8_t> s1 = sysShard(fib, 1);
    EXPECT_NO_THROW(system::mergeSystemPartials(op, true, {s0, s1}));
    std::vector<std::uint8_t> sysBoundary;
    fault::CheckpointOptions sysCkpt;
    sysCkpt.every = 1;
    sysCkpt.sink = [&sysBoundary](const std::vector<std::uint8_t> &b,
                                  bool final) {
        if (!final && sysBoundary.empty())
            sysBoundary = b;
    };
    sysShard(fib, 0, sysCkpt);
    ASSERT_FALSE(sysBoundary.empty());

    struct Rejected
    {
        const char *label;
        std::vector<std::vector<std::uint8_t>> partials;
        const char *diagnostic;
    };
    const Rejected rejected[] = {
        {"missing shard", {s0}, "got 1 partials for an N=2 split"},
        {"duplicate shard", {s0, s0}, "b.snp: duplicate shard"},
        {"foreign config",
         {s0, sysShard(system::standardWorkloads()[0], 1)},
         "b.snp: config"},
        {"incomplete shard", {sysBoundary, s1}, "a.snp: incomplete shard"},
    };
    for (const Rejected &r : rejected) {
        try {
            system::mergeSystemPartials(op, true, r.partials,
                                        {"a.snp", "b.snp"});
            ADD_FAILURE() << r.label << ": merged";
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find(r.diagnostic),
                      std::string::npos)
                << r.label << ": " << e.what();
        }
    }
}

TEST(ShardMerge, SystemCampaignShardsMerge)
{
    const system::Workload wl = system::standardWorkloads()[1]; // fib
    const system::AluOp op = system::AluOp::Add;
    system::SystemCampaignOptions opts;
    opts.jobs = 2;
    const system::SystemCampaignResult ref =
        system::runSystemCampaign(wl, op, /*checked=*/true, opts);
    const std::string want = system::systemResultJson(ref);

    std::vector<std::vector<std::uint8_t>> partials;
    for (int k = 0; k < 3; ++k) {
        fault::CheckpointOptions ckpt;
        ckpt.every = 4; // exercise mid-shard snapshots too
        ckpt.sink = [](const std::vector<std::uint8_t> &, bool) {};
        partials.push_back(system::runSystemCampaignShard(
                               wl, op, /*checked=*/true, opts, {k, 3},
                               ckpt)
                               .partial);
    }
    const system::SystemCampaignResult merged =
        system::mergeSystemPartials(op, /*checked=*/true, partials);
    EXPECT_EQ(system::systemResultJson(merged), want);
    EXPECT_EQ(merged.total, ref.total);
    EXPECT_EQ(merged.silentFaults, ref.silentFaults);

    // checked mismatch at merge is a config mismatch.
    EXPECT_THROW(
        system::mergeSystemPartials(op, /*checked=*/false, partials),
        SnapshotError);
}

TEST(ShardMerge, WorkerArgsRoundTripConfig)
{
    // The serialized flags must carry every config-key field so a
    // worker process recomputes the identical key.
    fault::CampaignOptions copts;
    copts.maxPatterns = 4096;
    copts.seed = 42;
    copts.checkAlternating = false;
    copts.lanes = 512;
    const auto cargs = fault::campaignWorkerArgs(copts);
    auto has = [](const std::vector<std::string> &a,
                  const std::string &s) {
        return std::find(a.begin(), a.end(), s) != a.end();
    };
    EXPECT_TRUE(has(cargs, "--max-patterns"));
    EXPECT_TRUE(has(cargs, "4096"));
    EXPECT_TRUE(has(cargs, "--seed"));
    EXPECT_TRUE(has(cargs, "42"));
    EXPECT_TRUE(has(cargs, "--no-check-alternating"));
    EXPECT_TRUE(has(cargs, "--lanes"));
    EXPECT_TRUE(has(cargs, "512"));

    fault::SeqCampaignOptions sopts;
    sopts.symbols = 64;
    fault::SeqCampaignSpec spec;
    spec.phiInput = 3;
    spec.holdInputs = {1, 2};
    auto sargs = fault::seqCampaignWorkerArgs(sopts, spec);
    EXPECT_TRUE(has(sargs, "--phi-index"));
    EXPECT_TRUE(has(sargs, "3"));
    EXPECT_TRUE(has(sargs, "--hold"));
    EXPECT_TRUE(has(sargs, "1,2"));
    // Default seq-dominance serializes to nothing; the two non-default
    // states serialize to their explicit flags.
    EXPECT_FALSE(has(sargs, "--seq-dominance"));
    EXPECT_FALSE(has(sargs, "--no-seq-dominance"));
    sopts.seqDominance = false;
    EXPECT_TRUE(has(fault::seqCampaignWorkerArgs(sopts, spec),
                    "--no-seq-dominance"));
    sopts.seqDominance = true;
    sopts.seqDominanceForce = true;
    EXPECT_TRUE(has(fault::seqCampaignWorkerArgs(sopts, spec),
                    "--seq-dominance"));
}

TEST(ShardMerge, SeqDominanceAutoSkipOnHardenedRealizations)
{
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(rawSeqMachine());

    // The structural detector fires on the hardened realization (and
    // names the right φ), not on the raw machine.
    int phi = -1;
    EXPECT_TRUE(netlist::looksSelfDualHardened(hard.net, &phi));
    EXPECT_EQ(phi, hard.phiInput);
    EXPECT_FALSE(netlist::looksSelfDualHardened(rawSeqMachine()));

    // Auto-skip is verdict-neutral: forcing the sequential dominance
    // rules on (what `--seq-dominance` does) must change nothing —
    // E23 measured zero pruned classes on hardened realizations, so
    // the pass is pure analysis cost there.
    fault::SeqCampaignOptions def;
    def.symbols = 24;
    def.jobs = 2;
    fault::SeqCampaignOptions forced = def;
    forced.seqDominanceForce = true;

    const fault::SeqCampaignResult a = fault::runSequentialCampaign(
        hard.net, hard.campaignSpec(), def);
    const fault::SeqCampaignResult b = fault::runSequentialCampaign(
        hard.net, hard.campaignSpec(), forced);
    EXPECT_EQ(fault::seqCampaignVerdictJson(hard.net, a),
              fault::seqCampaignVerdictJson(hard.net, b));
    EXPECT_EQ(a.prunedClasses, b.prunedClasses);
    EXPECT_EQ(a.prunedFaults, b.prunedFaults);
}

} // namespace
} // namespace scal
