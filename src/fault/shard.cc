#include "fault/shard.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "fault/options.hh"
#include "netlist/io.hh"
#include "sim/simd.hh"

namespace scal::fault
{

using engine::ByteReader;
using engine::ByteWriter;
using engine::SnapshotError;

namespace shard_detail
{

void
encodeCombPrefix(ByteWriter &w, const CombPayload &p,
                 std::uint32_t records)
{
    w.u64(p.patternsApplied);
    w.u32(static_cast<std::uint32_t>(p.lanes));
    w.str(p.simd);
    w.u64(p.batches);
    w.u32(records);
}

void
encodeCombRecord(ByteWriter &w, std::uint32_t faultIndex,
                 std::uint8_t outcome,
                 const std::vector<std::uint64_t> &unsafePatterns)
{
    w.u32(faultIndex);
    w.u8(outcome);
    w.u32(static_cast<std::uint32_t>(unsafePatterns.size()));
    for (const std::uint64_t pat : unsafePatterns)
        w.u64(pat);
}

CombPayload
decodeCombPayload(const std::vector<std::uint8_t> &bytes,
                  const std::string &name)
{
    ByteReader r(bytes);
    CombPayload p;
    p.patternsApplied = r.u64();
    p.lanes = static_cast<int>(r.u32());
    p.simd = r.str();
    p.batches = r.u64();
    const std::uint32_t n = r.u32();
    p.records.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        CombRecord &rec = p.records[i];
        rec.faultIndex = r.u32();
        rec.outcome = r.u8();
        const std::uint32_t nu = r.u32();
        rec.unsafePatterns.resize(nu);
        for (std::uint32_t j = 0; j < nu; ++j)
            rec.unsafePatterns[j] = r.u64();
        if (rec.outcome > 2)
            throw SnapshotError(name + ": bad outcome byte at record " +
                                std::to_string(i));
    }
    if (!r.atEnd())
        throw SnapshotError(name + ": trailing payload bytes at byte " +
                            std::to_string(r.offset()));
    return p;
}

void
encodeSeqPrefix(ByteWriter &w, const SeqPayload &p, std::uint32_t records)
{
    w.i64(p.symbols);
    w.u32(static_cast<std::uint32_t>(p.lanes));
    w.str(p.simd);
    w.i64(p.periodsSimulated);
    w.i64(p.periodsSkipped);
    w.i64(p.retiredEarly);
    w.i64(0); // two reserved words, always 0
    w.i64(0);
    w.u32(static_cast<std::uint32_t>(p.classes));
    w.u32(static_cast<std::uint32_t>(p.prunedClasses));
    w.u32(static_cast<std::uint32_t>(p.prunedFaults));
    w.u32(static_cast<std::uint32_t>(p.batchedClasses));
    w.u32(static_cast<std::uint32_t>(p.batches));
    w.u8(1); // route byte: lane batches, the only route
    w.u32(records);
}

void
encodeSeqRecord(ByteWriter &w, const SeqRecord &r)
{
    const SeqClassVerdict &v = r.verdict;
    w.u32(r.faultIndex);
    w.u8(static_cast<std::uint8_t>(v.outcome));
    w.i64(v.firstAlarm);
    w.i64(v.firstEscape);
    w.u64(v.alarmLanes);
    w.u64(v.latSum);
    for (const std::uint64_t h : v.latHist)
        w.u64(h);
}

SeqPayload
decodeSeqPayload(const std::vector<std::uint8_t> &bytes,
                 const std::string &name)
{
    ByteReader r(bytes);
    SeqPayload p;
    p.symbols = r.i64();
    p.lanes = static_cast<int>(r.u32());
    p.simd = r.str();
    p.periodsSimulated = r.i64();
    p.periodsSkipped = r.i64();
    p.retiredEarly = r.i64();
    r.i64(); // two reserved words
    r.i64();
    p.classes = static_cast<int>(r.u32());
    p.prunedClasses = static_cast<int>(r.u32());
    p.prunedFaults = static_cast<int>(r.u32());
    p.batchedClasses = static_cast<int>(r.u32());
    p.batches = static_cast<int>(r.u32());
    r.u8(); // route byte
    const std::uint32_t n = r.u32();
    p.records.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        SeqRecord &rec = p.records[i];
        SeqClassVerdict &v = rec.verdict;
        rec.faultIndex = r.u32();
        const std::uint8_t outcome = r.u8();
        if (outcome > 2)
            throw SnapshotError(name + ": bad outcome byte at record " +
                                std::to_string(i));
        v.outcome = static_cast<Outcome>(outcome);
        v.firstAlarm = r.i64();
        v.firstEscape = r.i64();
        v.alarmLanes = r.u64();
        v.latSum = r.u64();
        for (auto &h : v.latHist)
            h = r.u64();
    }
    if (!r.atEnd())
        throw SnapshotError(name + ": trailing payload bytes at byte " +
                            std::to_string(r.offset()));
    return p;
}

} // namespace shard_detail

namespace
{

using shard_detail::CombPayload;
using shard_detail::CombRecord;
using shard_detail::SeqPayload;
using shard_detail::SeqRecord;

sim::SimdTarget
parseSimdName(const std::string &s, const std::string &name)
{
    sim::SimdTarget t;
    if (!sim::parseSimdTarget(s.c_str(), &t))
        throw SnapshotError(name + ": unknown SIMD target '" + s + "'");
    return t;
}

std::vector<std::string>
withJobs(std::vector<std::string> args, int jobs)
{
    if (jobs != 0) {
        args.push_back("--jobs");
        args.push_back(std::to_string(jobs));
    }
    return args;
}

} // namespace

void
runCheckpointedShard(
    engine::CampaignEngine &eng, const CheckpointOptions &ckpt,
    const engine::CancelToken *cancel, engine::SnapshotHeader id,
    const std::vector<std::uint64_t> &classes,
    const std::function<std::function<void()>(engine::Chunk)> &classify,
    const engine::ByteWriter &records,
    const std::function<void(engine::ByteWriter &)> &prefix,
    ShardOutcome &out)
{
    // every < 0 = auto cadence: ~16 self-contained snapshots per
    // shard, with a 64-class floor. Without a sink only the final
    // snapshot is built, so the rest of the shard is one block.
    const int every = !ckpt.sink         ? 0
                      : ckpt.every >= 0 ? ckpt.every
                                        : std::max(64, out.shardClasses / 16);
    // Chunks: the engine's plan of the remaining units — the one an
    // inline run of the same units uses — cut again at every block end.
    std::uint64_t cursor = out.resumedUnits;
    std::vector<bool> chunkEnd(out.units + 1, false);
    for (const engine::Chunk &c : eng.chunks(out.units - cursor))
        chunkEnd[cursor + c.end] = true;
    std::vector<bool> blockEnd(out.units + 1, false);
    std::vector<engine::Chunk> chunks;
    int blockClasses = 0;
    for (std::size_t u = cursor + 1; u <= out.units; ++u) {
        blockClasses += static_cast<int>(classes[u - 1]);
        blockEnd[u] = u == out.units || (every > 0 && blockClasses >= every);
        if (blockEnd[u])
            blockClasses = 0;
        if (blockEnd[u] || chunkEnd[u])
            chunks.push_back({chunks.empty() ? cursor : chunks.back().end, u});
    }

    const auto emit = [&](bool complete) {
        id.cursor = cursor;
        id.complete = complete;
        engine::ByteWriter w;
        prefix(w);
        w.raw(records.bytes().data(), records.bytes().size());
        std::vector<std::uint8_t> snap = engine::encodeSnapshot(id, w.bytes());
        if (ckpt.sink)
            ckpt.sink(snap, complete);
        if (complete)
            out.partial = std::move(snap);
    };
    try {
        eng.streamChunks(
            chunks,
            [&](engine::Chunk c, std::size_t) { return classify(c); },
            [&](engine::Chunk c, std::size_t,
                std::function<void()> &&commit) {
                commit();
                cursor = c.end;
                const bool complete = cursor == out.units;
                if (blockEnd[cursor])
                    emit(complete);
                if (!complete && cancel && cancel->stopRequested())
                    throw engine::CampaignCancelled();
            });
    } catch (const engine::CampaignCancelled &) {
        // A cancel lands a last checkpoint at the committed cursor
        // instead of discarding the finished work.
        if (ckpt.sink)
            emit(false);
        throw;
    }
    if (chunks.empty())
        emit(true); // nothing left to run: still publish the partial
}

engine::SnapshotHeader
snapshotHeader(const std::vector<std::uint8_t> &bytes,
               const std::string &name)
{
    return engine::decodeSnapshot(bytes, nullptr, name);
}

CampaignResult
mergeCampaignPartials(const netlist::Netlist &net,
                      const std::vector<std::vector<std::uint8_t>> &partials,
                      const std::vector<std::string> &names)
{
    const engine::PartialSet set = engine::decodePartialSet(
        "comb", netlist::contentHash(net), partials, names);

    const std::vector<netlist::Fault> faults = net.allFaults();
    CampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];

    // Fill per-fault verdicts by global index, exactly once.
    engine::FaultCoverage coverage(faults.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string &name = set.names[i];
        CombPayload p =
            shard_detail::decodeCombPayload(set.payloads[i], name);
        if (i == 0) {
            result.patternsApplied = p.patternsApplied;
            result.lanes = p.lanes;
            result.simd = parseSimdName(p.simd, name);
        } else if (p.patternsApplied != result.patternsApplied) {
            // Lane width and kernel build are verdict-neutral tail
            // data, so shards run at different widths still merge.
            throw SnapshotError(name +
                                ": pattern header disagrees with " +
                                set.names[0]);
        }
        result.fp.batches += p.batches;
        for (CombRecord &rec : p.records) {
            coverage.cover(rec.faultIndex, name);
            FaultResult &fr = result.faults[rec.faultIndex];
            fr.outcome = static_cast<Outcome>(rec.outcome);
            fr.unsafePatterns = std::move(rec.unsafePatterns);
        }
    }
    coverage.requireAll();

    // Same count, same order as runAlternatingCampaign's expansion.
    for (const FaultResult &fr : result.faults) {
        switch (fr.outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
    }
    result.fp.totalFaults = static_cast<int>(faults.size());
    return result;
}

SeqCampaignResult
mergeSeqCampaignPartials(const netlist::Netlist &net,
                         const std::vector<std::vector<std::uint8_t>> &partials,
                         const std::vector<std::string> &names)
{
    const engine::PartialSet set = engine::decodePartialSet(
        "seq", netlist::contentHash(net), partials, names);

    SeqCampaignResult result;
    // Per-fault verdicts by global index, exactly once, folded below
    // by the inline run's own fold.
    const std::vector<netlist::Fault> faults = net.allFaults();
    std::vector<SeqClassVerdict> verdicts(faults.size());
    engine::FaultCoverage coverage(faults.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string &name = set.names[i];
        const SeqPayload p =
            shard_detail::decodeSeqPayload(set.payloads[i], name);
        if (i == 0) {
            result.symbols = p.symbols;
            result.lanes = p.lanes;
            result.simd = parseSimdName(p.simd, name);
            result.classes = p.classes;
            result.prunedClasses = p.prunedClasses;
            result.prunedFaults = p.prunedFaults;
        } else if (p.symbols != result.symbols ||
                   p.lanes != result.lanes) {
            throw SnapshotError(name +
                                ": symbol/lane header disagrees with " +
                                set.names[0]);
        }
        result.periodsSimulated += p.periodsSimulated;
        result.periodsSkipped += p.periodsSkipped;
        result.retiredEarly += p.retiredEarly;
        result.batchedClasses += p.batchedClasses;
        result.batches += p.batches;
        for (const SeqRecord &rec : p.records) {
            coverage.cover(rec.faultIndex, name);
            verdicts[rec.faultIndex] = rec.verdict;
        }
    }
    coverage.requireAll();
    foldSeqVerdicts(faults, verdicts, result);
    return result;
}

std::vector<std::string>
campaignWorkerArgs(const CampaignOptions &opts)
{
    CampaignOptions o = opts;
    return withJobs(optionArgs(optionRows(o)), opts.jobs);
}

std::vector<std::string>
seqCampaignWorkerArgs(const SeqCampaignOptions &opts,
                      const SeqCampaignSpec &spec)
{
    SeqCampaignConfig cfg{opts, spec};
    return withJobs(optionArgs(optionRows(cfg)), opts.jobs);
}

ShardWorkers
stageShardWorkers(const netlist::Netlist &net, const std::string &kind,
                  const std::vector<std::string> &flags,
                  const std::string &exe, const std::string &dir,
                  int shards, int checkpointEvery)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const std::string circuit = (fs::path(dir) / "circuit.scal").string();
    {
        std::ofstream os(circuit);
        netlist::writeNetlist(os, net);
        if (!os)
            throw std::runtime_error("cannot write " + circuit);
    }
    ShardWorkers out;
    for (int k = 0; k < shards; ++k) {
        const std::string tag = std::to_string(k + 1);
        engine::WorkerSpec w;
        w.checkpointPath = (fs::path(dir) / ("ckpt-" + tag + ".snp")).string();
        out.partials.push_back(
            (fs::path(dir) / ("part-" + tag + ".snp")).string());
        w.argv = {exe, kind == "comb" ? "campaign" : "seq-campaign",
                  "--circuit", circuit, "--format", "scal"};
        w.argv.insert(w.argv.end(), flags.begin(), flags.end());
        w.argv.insert(w.argv.end(),
                      {"--shard", tag + "/" + std::to_string(shards),
                       "--partial", out.partials.back(), "--checkpoint",
                       w.checkpointPath, "--checkpoint-every",
                       std::to_string(checkpointEvery)});
        out.workers.push_back(std::move(w));
    }
    return out;
}

} // namespace scal::fault
