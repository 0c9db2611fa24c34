/**
 * @file
 * Snapshot format and checkpoint/resume soundness: byte-codec round
 * trips, rejection of every corrupted or truncated snapshot with a
 * diagnostic, atomic file round trips, and the kill/resume fuzz — a
 * campaign snapshotted at every checkpoint boundary must, when
 * resumed from any of those snapshots, reproduce the uninterrupted
 * run's verdict field-identically.
 */

#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/checkpoint.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "system/campaign.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using engine::SnapshotError;
using engine::SnapshotHeader;

SnapshotHeader
sampleHeader()
{
    SnapshotHeader hdr;
    hdr.kind = "comb";
    hdr.netHash = 0x1234567890abcdefULL;
    hdr.configKey = "comb;max_patterns=4096;seed=1";
    hdr.shapeKey = "lanes=64;simd=portable";
    hdr.shard = {1, 4};
    hdr.units = 100;
    hdr.cursor = 42;
    hdr.complete = false;
    return hdr;
}

std::vector<std::uint8_t>
samplePayload()
{
    engine::ByteWriter w;
    w.u64(0xdeadbeefULL);
    w.str("payload");
    for (int i = 0; i < 32; ++i)
        w.u8(static_cast<std::uint8_t>(i * 7));
    return w.take();
}

TEST(Checkpoint, ByteCodecRoundTrip)
{
    engine::ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.str("hello snapshot");
    w.str("");
    const std::vector<std::uint8_t> bytes = w.bytes();

    engine::ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
    // Any further read underruns with a diagnostic, not UB.
    EXPECT_THROW(r.u8(), SnapshotError);
}

TEST(Checkpoint, SnapshotRoundTrip)
{
    const SnapshotHeader hdr = sampleHeader();
    const std::vector<std::uint8_t> payload = samplePayload();
    const auto bytes = engine::encodeSnapshot(hdr, payload);

    std::vector<std::uint8_t> got_payload;
    const SnapshotHeader got =
        engine::decodeSnapshot(bytes, &got_payload, "test");
    EXPECT_EQ(got.kind, hdr.kind);
    EXPECT_EQ(got.netHash, hdr.netHash);
    EXPECT_EQ(got.configKey, hdr.configKey);
    EXPECT_EQ(got.shapeKey, hdr.shapeKey);
    EXPECT_EQ(got.shard, hdr.shard);
    EXPECT_EQ(got.units, hdr.units);
    EXPECT_EQ(got.cursor, hdr.cursor);
    EXPECT_EQ(got.complete, hdr.complete);
    EXPECT_EQ(got_payload, payload);
}

TEST(Checkpoint, EverySingleByteFlipRejected)
{
    // The trailing FNV-1a covers every preceding byte and the trailer
    // itself is compared against the recomputation, so flipping ANY
    // byte must be caught — there is no silently-resumable corruption.
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto bad = bytes;
        bad[i] ^= 0x01;
        EXPECT_THROW(engine::decodeSnapshot(bad, nullptr, "flip"),
                     SnapshotError)
            << "flipped byte " << i;
    }
}

TEST(Checkpoint, EveryTruncationRejected)
{
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(n));
        EXPECT_THROW(engine::decodeSnapshot(cut, nullptr, "cut"),
                     SnapshotError)
            << "truncated to " << n << " bytes";
    }
}

TEST(Checkpoint, DiagnosticsNameSourceAndOffset)
{
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    auto bad = bytes;
    bad[bytes.size() / 2] ^= 0xff;
    try {
        engine::decodeSnapshot(bad, nullptr, "job.ckpt");
        FAIL() << "corrupted snapshot decoded";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("job.ckpt"), std::string::npos) << what;
        EXPECT_NE(what.find("corrupted"), std::string::npos) << what;
        EXPECT_NE(what.find("at byte"), std::string::npos) << what;
    }
}

TEST(Checkpoint, BadMagicAndVersionRejected)
{
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    auto wrong_magic = bytes;
    wrong_magic[0] = 'X';
    EXPECT_THROW(engine::decodeSnapshot(wrong_magic, nullptr, "m"),
                 SnapshotError);
    // Version bump with a re-stamped trailer: caught by the version
    // check, not just the hash.
    auto wrong_version = bytes;
    wrong_version[7] = 99;
    const std::size_t body = wrong_version.size() - 8;
    const std::uint64_t h =
        engine::fnv1a64Bytes(wrong_version.data(), body);
    for (int i = 0; i < 8; ++i)
        wrong_version[body + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(h >> (8 * i));
    try {
        engine::decodeSnapshot(wrong_version, nullptr, "v");
        FAIL() << "unsupported version decoded";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, FileRoundTripIsAtomic)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "scal_checkpoint_file_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "snap.snp").string();

    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    engine::writeSnapshotFile(path, bytes);
    EXPECT_EQ(engine::readSnapshotFile(path), bytes);
    // The tmp staging file must not survive a successful publish.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // Overwrite with new content: rename replaces atomically.
    auto hdr2 = sampleHeader();
    hdr2.cursor = 77;
    const auto bytes2 = engine::encodeSnapshot(hdr2, samplePayload());
    engine::writeSnapshotFile(path, bytes2);
    EXPECT_EQ(engine::readSnapshotFile(path), bytes2);

    EXPECT_THROW(engine::readSnapshotFile((dir / "missing.snp").string()),
                 SnapshotError);
    std::filesystem::remove_all(dir);
}

/** Capture every snapshot a checkpointing shard run emits. */
struct SnapshotLog
{
    std::vector<std::vector<std::uint8_t>> boundaries; ///< final=false
    std::vector<std::uint8_t> partial;                 ///< final=true

    fault::CheckpointOptions
    options(int every)
    {
        fault::CheckpointOptions ckpt;
        ckpt.every = every;
        ckpt.sink = [this](const std::vector<std::uint8_t> &bytes,
                           bool final) {
            if (final)
                partial = bytes;
            else
                boundaries.push_back(bytes);
        };
        return ckpt;
    }
};

TEST(Checkpoint, CombKillResumeFuzz)
{
    util::Rng rng(0x5eed01u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(5, 16, rng)).net;

    fault::CampaignOptions opts;
    opts.maxPatterns = 512;
    opts.jobs = 2;
    opts.checkAlternating = false;

    // Uninterrupted run, snapshotting at every checkpoint boundary.
    SnapshotLog log;
    const fault::ShardOutcome base = fault::runAlternatingCampaignShard(
        net, opts, {0, 1}, log.options(/*every=*/1));
    ASSERT_FALSE(log.partial.empty());
    ASSERT_GE(log.boundaries.size(), 2u)
        << "cadence 1 should produce several boundary snapshots";
    const std::string want = fault::campaignVerdictJson(
        net, fault::mergeCampaignPartials(net, {log.partial}));

    // Simulated kill at every boundary: resuming from each snapshot
    // must land on the identical verdict.
    for (std::size_t k = 0; k < log.boundaries.size(); ++k) {
        const SnapshotHeader hdr =
            fault::snapshotHeader(log.boundaries[k]);
        EXPECT_FALSE(hdr.complete);
        EXPECT_LT(hdr.cursor, hdr.units);

        fault::CheckpointOptions resume;
        resume.resume = &log.boundaries[k];
        resume.resumeName = "boundary " + std::to_string(k);
        const fault::ShardOutcome out =
            fault::runAlternatingCampaignShard(net, opts, {0, 1},
                                               resume);
        EXPECT_EQ(out.resumedUnits, hdr.cursor)
            << "boundary " << k;
        EXPECT_EQ(out.units, base.units);
        EXPECT_EQ(fault::campaignVerdictJson(
                      net,
                      fault::mergeCampaignPartials(net, {out.partial})),
                  want)
            << "resume from boundary " << k;
    }
}

TEST(Checkpoint, SeqKillResumeFuzz)
{
    // A small raw sequential machine, hardened into the alternating
    // realization the campaign targets in production.
    netlist::Netlist raw;
    const netlist::GateId a = raw.addInput("a");
    const netlist::GateId b = raw.addInput("b");
    const netlist::GateId c0 = raw.addConst(false);
    const netlist::GateId q = raw.addDff(c0, "q");
    const netlist::GateId x = raw.addXor({a, q}, "x");
    raw.replaceFanin(q, 0, x);
    raw.addOutput(raw.addOr({x, b}, "o"), "o");
    raw.addOutput(q, "s");
    const ingest::HardenedCircuit hard = ingest::hardenNetlist(raw);

    fault::SeqCampaignOptions opts;
    opts.symbols = 24;
    opts.jobs = 2;

    SnapshotLog log;
    fault::runSequentialCampaignShard(hard.net, hard.campaignSpec(),
                                      opts, {0, 1},
                                      log.options(/*every=*/1));
    ASSERT_FALSE(log.partial.empty());
    ASSERT_GE(log.boundaries.size(), 2u);
    const std::string want = fault::seqCampaignVerdictJson(
        hard.net,
        fault::mergeSeqCampaignPartials(hard.net, {log.partial}));

    for (std::size_t k = 0; k < log.boundaries.size(); ++k) {
        fault::CheckpointOptions resume;
        resume.resume = &log.boundaries[k];
        resume.resumeName = "boundary " + std::to_string(k);
        const fault::ShardOutcome out = fault::runSequentialCampaignShard(
            hard.net, hard.campaignSpec(), opts, {0, 1}, resume);
        EXPECT_EQ(fault::seqCampaignVerdictJson(
                      hard.net, fault::mergeSeqCampaignPartials(
                                    hard.net, {out.partial})),
                  want)
            << "resume from boundary " << k;
    }
}

/**
 * A raw sequential machine of @p stages flip-flops for hardening:
 * stage i toggles on input a or b and loads only while the previous
 * stage (or a) is high, and each stage drives an output. Three stages
 * collapse to 146 fault classes.
 */
netlist::Netlist
rawSeqChain(int stages)
{
    netlist::Netlist raw;
    const netlist::GateId a = raw.addInput("a");
    const netlist::GateId b = raw.addInput("b");
    netlist::GateId prev = b;
    for (int i = 0; i < stages; ++i) {
        const std::string n = std::to_string(i);
        const netlist::GateId q = raw.addDff(raw.addConst(false), "q" + n);
        const netlist::GateId x = raw.addXor({i % 2 ? b : a, q}, "x" + n);
        raw.replaceFanin(
            q, 0, raw.addAnd({x, raw.addOr({prev, a}, "p" + n)}, "d" + n));
        raw.addOutput(raw.addOr({x, prev}, "o" + n), "o" + n);
        prev = q;
    }
    return raw;
}

/**
 * One shard runner per campaign kind and route, run over the full
 * universe ({0, 1}), each with more than 64 fault classes: @p run
 * takes the jobs count, an optional cancel token and the checkpoint
 * plumbing; @p verdict is the merged verdict of a complete partial.
 */
struct KindCase
{
    const char *kind;
    std::function<fault::ShardOutcome(int jobs,
                                      const engine::CancelToken *cancel,
                                      const fault::CheckpointOptions &)>
        run;
    std::function<std::string(const std::vector<std::uint8_t> &partial)>
        verdict;
};

std::vector<KindCase>
kindCases()
{
    util::Rng rng(0x5eed03u);
    const netlist::Netlist comb =
        ingest::hardenNetlist(testing::randomNetlist(5, 16, rng)).net;
    const auto combRun = [comb](int jobs, const engine::CancelToken *cancel,
                                const fault::CheckpointOptions &c) {
        fault::CampaignOptions opts;
        opts.maxPatterns = 512;
        opts.lanes = 64;
        opts.simd = sim::SimdTarget::Portable;
        opts.jobs = jobs;
        opts.checkAlternating = false;
        opts.cancel = cancel;
        return fault::runAlternatingCampaignShard(comb, opts, {0, 1}, c);
    };
    const auto combVerdict = [comb](const std::vector<std::uint8_t> &p) {
        return fault::campaignVerdictJson(
            comb, fault::mergeCampaignPartials(comb, {p}));
    };

    // 64 lanes replay 8 faults per lane batch, 512 lanes one.
    const ingest::HardenedCircuit seq = ingest::hardenNetlist(rawSeqChain(3));
    const auto seqRun = [seq](int lanes) {
        return [seq, lanes](int jobs, const engine::CancelToken *cancel,
                            const fault::CheckpointOptions &c) {
            fault::SeqCampaignOptions opts;
            opts.symbols = 16;
            opts.lanes = lanes;
            opts.simd = sim::SimdTarget::Portable;
            opts.jobs = jobs;
            opts.cancel = cancel;
            return fault::runSequentialCampaignShard(
                seq.net, seq.campaignSpec(), opts, {0, 1}, c);
        };
    };
    const auto seqVerdict = [seq](const std::vector<std::uint8_t> &p) {
        return fault::seqCampaignVerdictJson(
            seq.net, fault::mergeSeqCampaignPartials(seq.net, {p}));
    };

    const system::Workload mul5 = system::findWorkload("mul5");
    const auto systemRun = [mul5](int jobs,
                                  const engine::CancelToken *cancel,
                                  const fault::CheckpointOptions &c) {
        system::SystemCampaignOptions opts;
        opts.jobs = jobs;
        opts.cancel = cancel;
        return system::runSystemCampaignShard(mul5, system::AluOp::Shl,
                                              /*checked=*/true, opts,
                                              {0, 1}, c);
    };
    const auto systemVerdict = [](const std::vector<std::uint8_t> &p) {
        return system::systemResultJson(system::mergeSystemPartials(
            system::AluOp::Shl, /*checked=*/true, {p}));
    };
    return {{"comb", combRun, combVerdict},
            {"seq batch", seqRun(64), seqVerdict},
            {"seq 512 lanes", seqRun(512), seqVerdict},
            {"system", systemRun, systemVerdict}};
}

const KindCase &
findKindCase(const std::vector<KindCase> &cases, const std::string &kind)
{
    for (const KindCase &kc : cases)
        if (kc.kind == kind)
            return kc;
    throw std::logic_error("no kind case " + kind);
}

TEST(Checkpoint, AutoCadenceEmitsBoundedSnapshots)
{
    // every < 0 = automatic cadence max(64, shardClasses / 16), the
    // same for every kind: on these universes (shardClasses < 64 * 16)
    // it resolves to 64, so boundary snapshots stay rare but a killed
    // shard still resumes mid-way, to the no-checkpoint verdict.
    for (const KindCase &kc : kindCases()) {
        SnapshotLog autoLog;
        const fault::ShardOutcome autoOut =
            kc.run(2, nullptr, autoLog.options(-1));
        ASSERT_FALSE(autoLog.partial.empty()) << kc.kind;
        ASSERT_GT(autoOut.shardClasses, 64) << kc.kind;
        EXPECT_GE(autoLog.boundaries.size(), 1u) << kc.kind;
        EXPECT_LE(autoLog.boundaries.size(),
                  static_cast<std::size_t>(autoOut.shardClasses) / 64 + 1)
            << kc.kind;

        const std::string want = kc.verdict(kc.run(2, nullptr, {}).partial);
        EXPECT_EQ(kc.verdict(autoLog.partial), want) << kc.kind;
        for (std::size_t k = 0; k < autoLog.boundaries.size(); ++k) {
            fault::CheckpointOptions resume;
            resume.resume = &autoLog.boundaries[k];
            EXPECT_EQ(kc.verdict(kc.run(2, nullptr, resume).partial), want)
                << kc.kind << ": resume from auto boundary " << k;
        }
    }
}

TEST(Checkpoint, CancelMidRunLandsAtCommittedCursor)
{
    // A stop requested by the sink at the 2nd boundary (while the
    // workers already classify later blocks) ends the run with
    // CampaignCancelled; the last snapshot the sink saw is a
    // mid-shard checkpoint that resumes to the uninterrupted verdict.
    for (const KindCase &kc : kindCases()) {
        const std::string want = kc.verdict(kc.run(1, nullptr, {}).partial);
        for (const int jobs : {1, 4}) {
            engine::CancelToken cancel;
            int boundaries = 0;
            std::vector<std::uint8_t> last;
            fault::CheckpointOptions ckpt;
            ckpt.every = 8;
            ckpt.sink = [&](const std::vector<std::uint8_t> &bytes,
                            bool final) {
                last = bytes;
                if (!final && ++boundaries == 2)
                    cancel.requestStop();
            };
            EXPECT_THROW(kc.run(jobs, &cancel, ckpt),
                         engine::CampaignCancelled)
                << kc.kind << " jobs=" << jobs;
            ASSERT_FALSE(last.empty()) << kc.kind;
            const SnapshotHeader hdr = fault::snapshotHeader(last);
            EXPECT_FALSE(hdr.complete) << kc.kind;
            EXPECT_GT(hdr.cursor, 0u) << kc.kind << " jobs=" << jobs;
            EXPECT_LT(hdr.cursor, hdr.units) << kc.kind << " jobs=" << jobs;

            fault::CheckpointOptions resume;
            resume.resume = &last;
            const fault::ShardOutcome out = kc.run(jobs, nullptr, resume);
            EXPECT_EQ(out.resumedUnits, hdr.cursor) << kc.kind;
            EXPECT_EQ(kc.verdict(out.partial), want)
                << kc.kind << " jobs=" << jobs;
        }
    }
}

TEST(Checkpoint, SinkFailureMidRunReachesCaller)
{
    // A sink that fails at the 2nd boundary (a full disk, say) gets
    // its own exception to the caller, once every worker has stopped,
    // and no snapshot after it.
    for (const KindCase &kc : kindCases()) {
        for (const int jobs : {1, 4}) {
            int calls = 0;
            fault::CheckpointOptions ckpt;
            ckpt.every = 8;
            ckpt.sink = [&](const std::vector<std::uint8_t> &, bool) {
                if (++calls == 2)
                    throw std::runtime_error("sink failed");
            };
            try {
                kc.run(jobs, nullptr, ckpt);
                ADD_FAILURE() << kc.kind << ": sink failure swallowed";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "sink failed") << kc.kind;
            }
            EXPECT_EQ(calls, 2) << kc.kind << " jobs=" << jobs;
        }
    }
}

/** FNV-1a 64 over every snapshot of @p log, in emission order. */
std::uint64_t
streamDigest(const SnapshotLog &log)
{
    std::vector<std::uint8_t> all;
    for (const std::vector<std::uint8_t> &b : log.boundaries)
        all.insert(all.end(), b.begin(), b.end());
    all.insert(all.end(), log.partial.begin(), log.partial.end());
    return engine::fnv1a64Bytes(all.data(), all.size());
}

/** A decoded comb payload, encoded again record by record. */
std::vector<std::uint8_t>
encodeComb(const fault::shard_detail::CombPayload &p)
{
    engine::ByteWriter w;
    fault::shard_detail::encodeCombPrefix(
        w, p, static_cast<std::uint32_t>(p.records.size()));
    for (const fault::shard_detail::CombRecord &r : p.records)
        fault::shard_detail::encodeCombRecord(w, r.faultIndex, r.outcome,
                                              r.unsafePatterns);
    return w.take();
}

/** A decoded seq payload, encoded again record by record. */
std::vector<std::uint8_t>
encodeSeq(const fault::shard_detail::SeqPayload &p)
{
    engine::ByteWriter w;
    fault::shard_detail::encodeSeqPrefix(
        w, p, static_cast<std::uint32_t>(p.records.size()));
    for (const fault::shard_detail::SeqRecord &r : p.records)
        fault::shard_detail::encodeSeqRecord(w, r);
    return w.take();
}

TEST(Checkpoint, SnapshotBytesArePinned)
{
    // Checkpoint bytes are a pure function of the run: the same at
    // every jobs count, and the same as the pinned digests below,
    // whatever chunking the engine streams the blocks through. Each
    // payload also equals its decoded records encoded again one by
    // one behind a fresh prefix, so the runners' kept record bytes
    // and their per-snapshot prefix line up.
    const std::vector<KindCase> cases = kindCases();
    const auto kindCase = [&](const std::string &kind) -> const KindCase & {
        return findKindCase(cases, kind);
    };
    struct Pin
    {
        const char *kind;
        int every;
        std::uint64_t digest;
    };
    // System shards follow the automatic cadence like every kind: on
    // mul5's 156 faults it resolves to 64, so its auto stream is the
    // every = 64 stream.
    const Pin pins[] = {
        {"seq batch", 1, 0x5cf52be02d5b0e15ULL},
        {"seq batch", -1, 0xa36837e3f85ab453ULL},
        {"seq 512 lanes", 1, 0x020ee63651275043ULL},
        {"seq 512 lanes", -1, 0x570063803c6a03f0ULL},
        {"system", 1, 0x6aadeecdfbc22191ULL},
        {"system", -1, 0xd1897e23d7115577ULL},
    };
    for (const Pin &pin : pins) {
        const KindCase &kc = kindCase(pin.kind);
        for (const int jobs : {1, 2, 4}) {
            SnapshotLog log;
            kc.run(jobs, nullptr, log.options(pin.every));
            EXPECT_EQ(streamDigest(log), pin.digest)
                << kc.kind << " every=" << pin.every << " jobs=" << jobs;
        }
    }

    // The comb tail counts chunk-local batches, so only jobs 1 is
    // pinned; at more jobs the cursors and records match jobs 1.
    const auto combRecords = [](const std::vector<std::uint8_t> &snap) {
        std::vector<std::uint8_t> payload;
        const SnapshotHeader h = engine::decodeSnapshot(snap, &payload);
        fault::shard_detail::CombPayload p =
            fault::shard_detail::decodeCombPayload(payload, "comb");
        EXPECT_EQ(encodeComb(p), payload);
        p.batches = 0;
        return std::make_pair(h.cursor, encodeComb(p));
    };
    const KindCase &comb = kindCase("comb");
    for (const int every : {1, -1}) {
        SnapshotLog one;
        comb.run(1, nullptr, one.options(every));
        EXPECT_EQ(streamDigest(one), every == 1 ? 0xa9a434dfd7dd0950ULL
                                                : 0x24d1241f0b207eefULL)
            << "comb every=" << every;
        for (const int jobs : {2, 4}) {
            SnapshotLog log;
            comb.run(jobs, nullptr, log.options(every));
            ASSERT_EQ(log.boundaries.size(), one.boundaries.size());
            for (std::size_t k = 0; k < log.boundaries.size(); ++k)
                EXPECT_EQ(combRecords(log.boundaries[k]),
                          combRecords(one.boundaries[k]))
                    << "comb every=" << every << " jobs=" << jobs
                    << " boundary " << k;
            EXPECT_EQ(combRecords(log.partial), combRecords(one.partial));
        }
    }

    SnapshotLog seqLog;
    kindCase("seq batch").run(4, nullptr, seqLog.options(1));
    for (const std::vector<std::uint8_t> &snap : seqLog.boundaries) {
        std::vector<std::uint8_t> payload;
        engine::decodeSnapshot(snap, &payload);
        EXPECT_EQ(encodeSeq(fault::shard_detail::decodeSeqPayload(payload,
                                                                  "seq")),
                  payload);
    }
}

TEST(Checkpoint, ResumeRefusesPerFaultShapeKey)
{
    // A 512-lane checkpoint of the retired per-fault route said fb=0
    // in its shape key, and its units were classes, not batches, in
    // another record order. Where the unit counts happen to agree the
    // shape key alone must refuse it.
    const std::vector<KindCase> cases = kindCases();
    const KindCase &kc = findKindCase(cases, "seq 512 lanes");
    SnapshotLog log;
    kc.run(1, nullptr, log.options(8));
    ASSERT_GE(log.boundaries.size(), 1u);
    std::vector<std::uint8_t> payload;
    SnapshotHeader hdr =
        engine::decodeSnapshot(log.boundaries.front(), &payload);
    const std::size_t fb = hdr.shapeKey.find("fb=");
    ASSERT_NE(fb, std::string::npos) << hdr.shapeKey;
    hdr.shapeKey[fb + 3] = '0';
    const std::vector<std::uint8_t> stale =
        engine::encodeSnapshot(hdr, payload);

    fault::CheckpointOptions resume;
    resume.resume = &stale;
    resume.resumeName = "per-fault.ckpt";
    try {
        kc.run(1, nullptr, resume);
        ADD_FAILURE() << "resumed a per-fault checkpoint";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("per-fault.ckpt: work-shape mismatch"),
                  std::string::npos)
            << what;
        // The refusal names both shape keys, so the one differing
        // field can be read off the message.
        EXPECT_NE(what.find("fb=0"), std::string::npos) << what;
        EXPECT_NE(what.find("fb=1"), std::string::npos) << what;
        const std::string units = std::to_string(hdr.units) + " units";
        EXPECT_NE(what.find(units), std::string::npos) << what;
    }
}

TEST(Checkpoint, ResumeRefusesContiguousSliceShapeKey)
{
    // A split sequential run deals the inline plan's batches, and its
    // shape key says so. A 2/4 snapshot cut under the older contiguous
    // class slices owns other batches: rewritten to that run's key it
    // must be refused, and the message names both keys.
    const ingest::HardenedCircuit seq = ingest::hardenNetlist(rawSeqChain(3));
    const auto run = [&seq](const fault::CheckpointOptions &c) {
        fault::SeqCampaignOptions opts;
        opts.symbols = 16;
        opts.simd = sim::SimdTarget::Portable;
        opts.jobs = 1;
        return fault::runSequentialCampaignShard(
            seq.net, seq.campaignSpec(), opts, {1, 4}, c);
    };
    SnapshotLog log;
    run(log.options(1));
    ASSERT_GE(log.boundaries.size(), 1u);
    std::vector<std::uint8_t> payload;
    SnapshotHeader hdr =
        engine::decodeSnapshot(log.boundaries.front(), &payload);
    const std::string dealt = hdr.shapeKey;
    const std::size_t at = dealt.find(";dealt");
    ASSERT_NE(at, std::string::npos) << dealt;
    hdr.shapeKey = dealt.substr(0, at) + dealt.substr(at + 6);
    const std::vector<std::uint8_t> stale =
        engine::encodeSnapshot(hdr, payload);

    fault::CheckpointOptions resume;
    resume.resume = &stale;
    resume.resumeName = "contiguous.ckpt";
    try {
        run(resume);
        ADD_FAILURE() << "resumed a contiguous-slice checkpoint";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("contiguous.ckpt: work-shape mismatch"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("'" + hdr.shapeKey + "'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'" + dealt + "'"), std::string::npos) << what;
    }
}

/**
 * One campaign kind's shard runner for the resume-rejection table.
 * Variant 0 is the checkpointed run; variant 1 changes only the
 * config (the config key moves); variant 2 runs a different netlist.
 */
struct ResumeCase
{
    const char *kind;
    std::function<fault::ShardOutcome(int variant,
                                      const engine::ShardSpec &shard,
                                      const fault::CheckpointOptions &)>
        run;
};

std::vector<ResumeCase>
resumeCases()
{
    util::Rng rng(0x5eed02u);
    const netlist::Netlist comb0 =
        ingest::hardenNetlist(testing::randomNetlist(5, 14, rng)).net;
    const netlist::Netlist comb1 =
        ingest::hardenNetlist(testing::randomNetlist(5, 15, rng)).net;
    const auto combRun = [comb0, comb1](int variant,
                                        const engine::ShardSpec &shard,
                                        const fault::CheckpointOptions &c) {
        fault::CampaignOptions opts;
        opts.maxPatterns = 256;
        opts.jobs = 1;
        opts.checkAlternating = false;
        opts.seed = variant == 1 ? 99 : 1;
        return fault::runAlternatingCampaignShard(
            variant == 2 ? comb1 : comb0, opts, shard, c);
    };

    netlist::Netlist raw;
    const netlist::GateId a = raw.addInput("a");
    const netlist::GateId b = raw.addInput("b");
    const netlist::GateId q = raw.addDff(raw.addConst(false), "q");
    const netlist::GateId x = raw.addXor({a, q}, "x");
    raw.replaceFanin(q, 0, x);
    raw.addOutput(raw.addOr({x, b}, "o"), "o");
    raw.addOutput(q, "s");
    const ingest::HardenedCircuit seq0 = ingest::hardenNetlist(raw);
    raw.addOutput(raw.addAnd({a, b}, "y"), "y");
    const ingest::HardenedCircuit seq1 = ingest::hardenNetlist(raw);
    const auto seqRun = [seq0, seq1](int variant,
                                     const engine::ShardSpec &shard,
                                     const fault::CheckpointOptions &c) {
        fault::SeqCampaignOptions opts;
        opts.symbols = 16;
        opts.jobs = 1;
        opts.seed = variant == 1 ? 99 : 1;
        const ingest::HardenedCircuit &h = variant == 2 ? seq1 : seq0;
        return fault::runSequentialCampaignShard(h.net, h.campaignSpec(),
                                                 opts, shard, c);
    };

    const system::Workload mul5 = system::findWorkload("mul5");
    const system::Workload fib = system::findWorkload("fib12");
    // Another workload on the same ALU is another config; the
    // unchecked CPU's ALU is another netlist.
    const auto systemRun = [mul5, fib](int variant,
                                       const engine::ShardSpec &shard,
                                       const fault::CheckpointOptions &c) {
        system::SystemCampaignOptions opts;
        opts.jobs = 1;
        return system::runSystemCampaignShard(
            variant == 1 ? fib : mul5, system::AluOp::Shl,
            /*checked=*/variant != 2, opts, shard, c);
    };
    return {{"comb", combRun}, {"seq", seqRun}, {"system", systemRun}};
}

TEST(Checkpoint, ResumeRejectsForeignOrCorruptSnapshot)
{
    const std::vector<ResumeCase> cases = resumeCases();

    // The first boundary checkpoint of every kind's own run.
    std::vector<std::vector<std::uint8_t>> ckpts;
    for (const ResumeCase &rc : cases) {
        SnapshotLog log;
        rc.run(0, {0, 1}, log.options(/*every=*/8));
        ASSERT_GE(log.boundaries.size(), 1u) << rc.kind;
        ckpts.push_back(log.boundaries.front());
    }

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const ResumeCase &rc = cases[i];
        // Each bad resume must be refused with a diagnostic naming the
        // checkpoint and the identity field that differs.
        const auto expectRefused = [&](int variant,
                                       const engine::ShardSpec &shard,
                                       const std::vector<std::uint8_t> &snap,
                                       const char *why) {
            fault::CheckpointOptions resume;
            resume.resume = &snap;
            resume.resumeName = "stale.ckpt";
            try {
                rc.run(variant, shard, resume);
                ADD_FAILURE() << rc.kind << ": resumed despite " << why;
            } catch (const SnapshotError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("stale.ckpt"), std::string::npos)
                    << what;
                EXPECT_NE(what.find(why), std::string::npos)
                    << rc.kind << ": " << what;
            }
        };
        // A snapshot of another campaign kind.
        expectRefused(0, {0, 1}, ckpts[(i + 1) % cases.size()],
                      "campaign snapshot");
        // The same campaign on a foreign netlist.
        expectRefused(2, {0, 1}, ckpts[i], "different circuit");
        // A config change: the header's config key no longer matches,
        // so resume must refuse instead of continuing a different
        // campaign.
        expectRefused(1, {0, 1}, ckpts[i], "config mismatch");
        // A different shard of the same split is just as foreign.
        expectRefused(0, {1, 2}, ckpts[i], "snapshot is shard");

        // Bit rot in the snapshot itself is caught by the trailer hash.
        std::vector<std::uint8_t> corrupt = ckpts[i];
        corrupt[corrupt.size() / 3] ^= 0x40;
        expectRefused(0, {0, 1}, corrupt, "corrupted");

        // The untouched checkpoint still resumes.
        fault::CheckpointOptions good;
        good.resume = &ckpts[i];
        EXPECT_NO_THROW(rc.run(0, {0, 1}, good)) << rc.kind;
    }
}

} // namespace
} // namespace scal
