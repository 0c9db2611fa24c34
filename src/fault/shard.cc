#include "fault/shard.hh"

#include "netlist/io.hh"
#include "sim/simd.hh"

namespace scal::fault
{

using engine::ByteReader;
using engine::ByteWriter;
using engine::SnapshotError;
using engine::SnapshotHeader;

namespace shard_detail
{

std::vector<std::uint8_t>
encodeCombPayload(const CombPayload &p)
{
    ByteWriter w;
    w.u64(p.patternsApplied);
    w.u32(static_cast<std::uint32_t>(p.lanes));
    w.str(p.simd);
    w.u64(p.batches);
    w.u32(static_cast<std::uint32_t>(p.records.size()));
    for (const CombRecord &r : p.records) {
        w.u32(r.faultIndex);
        w.u8(r.outcome);
        w.u32(static_cast<std::uint32_t>(r.unsafePatterns.size()));
        for (const std::uint64_t pat : r.unsafePatterns)
            w.u64(pat);
    }
    return w.take();
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

std::vector<std::uint8_t>
encodeSeqPayload(const SeqPayload &p)
{
    ByteWriter w;
    w.i64(p.symbols);
    w.u32(static_cast<std::uint32_t>(p.lanes));
    w.str(p.simd);
    w.i64(p.periodsSimulated);
    w.i64(p.periodsSkipped);
    w.i64(p.retiredEarly);
    w.i64(p.memoHits);
    w.i64(p.memoMisses);
    w.u32(static_cast<std::uint32_t>(p.classes));
    w.u32(static_cast<std::uint32_t>(p.prunedClasses));
    w.u32(static_cast<std::uint32_t>(p.prunedFaults));
    w.u32(static_cast<std::uint32_t>(p.batchedClasses));
    w.u32(static_cast<std::uint32_t>(p.batches));
    w.u8(p.faultBatch ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(p.records.size()));
    for (const SeqRecord &r : p.records) {
        w.u32(r.faultIndex);
        w.u8(r.outcome);
        w.i64(r.firstAlarm);
        w.i64(r.firstEscape);
        w.u64(r.alarmLanes);
        w.u64(r.latSum);
        for (const std::uint64_t h : r.latHist)
            w.u64(h);
    }
    return w.take();
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
    p.memoHits = r.i64();
    p.memoMisses = r.i64();
    p.classes = static_cast<int>(r.u32());
    p.prunedClasses = static_cast<int>(r.u32());
    p.prunedFaults = static_cast<int>(r.u32());
    p.batchedClasses = static_cast<int>(r.u32());
    p.batches = static_cast<int>(r.u32());
    p.faultBatch = r.u8() != 0;
    const std::uint32_t n = r.u32();
    p.records.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        SeqRecord &rec = p.records[i];
        rec.faultIndex = r.u32();
        rec.outcome = r.u8();
        rec.firstAlarm = r.i64();
        rec.firstEscape = r.i64();
        rec.alarmLanes = r.u64();
        rec.latSum = r.u64();
        for (auto &h : rec.latHist)
            h = r.u64();
        if (rec.outcome > 2)
            throw SnapshotError(name + ": bad outcome byte at record " +
                                std::to_string(i));
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

std::string
partialName(const std::vector<std::string> &names, std::size_t i)
{
    return i < names.size() ? names[i]
                            : "partial " + std::to_string(i + 1);
}

/**
 * Shared merge-time validation: decode every snapshot, check kind /
 * net hash / config agreement, completeness, and that the shard
 * indices of one consistent N-way split each appear exactly once.
 */
std::vector<SnapshotHeader>
validatePartials(const std::string &kind, std::uint64_t net_hash,
                 const std::vector<std::vector<std::uint8_t>> &partials,
                 const std::vector<std::string> &names,
                 std::vector<std::vector<std::uint8_t>> *payloads)
{
    if (partials.empty())
        throw SnapshotError("merge: no partial files given");
    std::vector<SnapshotHeader> hdrs;
    payloads->resize(partials.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = partialName(names, i);
        SnapshotHeader h =
            engine::decodeSnapshot(partials[i], &(*payloads)[i], name);
        if (h.kind != kind)
            throw SnapshotError(name + ": kind '" + h.kind +
                                "' does not match campaign kind '" +
                                kind + "'");
        if (h.netHash != net_hash)
            throw SnapshotError(name +
                                ": netlist content hash mismatch (file " +
                                std::to_string(h.netHash) + ", circuit " +
                                std::to_string(net_hash) + ")");
        if (!h.complete)
            throw SnapshotError(
                name + ": incomplete shard (cursor " +
                std::to_string(h.cursor) + "/" + std::to_string(h.units) +
                "); finish or resume it before merging");
        hdrs.push_back(std::move(h));
    }
    const SnapshotHeader &first = hdrs.front();
    std::vector<bool> seen(static_cast<std::size_t>(first.shard.count),
                           false);
    for (std::size_t i = 0; i < hdrs.size(); ++i) {
        const std::string name = partialName(names, i);
        if (hdrs[i].configKey != first.configKey)
            throw SnapshotError(name + ": config '" + hdrs[i].configKey +
                                "' does not match " +
                                partialName(names, 0) + " ('" +
                                first.configKey + "')");
        if (hdrs[i].shard.count != first.shard.count)
            throw SnapshotError(name + ": shard split " +
                                hdrs[i].shard.str() +
                                " does not match " + first.shard.str());
        const std::size_t idx =
            static_cast<std::size_t>(hdrs[i].shard.index);
        if (seen[idx])
            throw SnapshotError(name + ": duplicate shard " +
                                hdrs[i].shard.str());
        seen[idx] = true;
    }
    if (static_cast<int>(hdrs.size()) != first.shard.count)
        throw SnapshotError(
            "merge: got " + std::to_string(hdrs.size()) +
            " partials for an N=" + std::to_string(first.shard.count) +
            " split");
    return hdrs;
}

sim::SimdTarget
parseSimdName(const std::string &s, const std::string &name)
{
    sim::SimdTarget t;
    if (!sim::parseSimdTarget(s.c_str(), &t))
        throw SnapshotError(name + ": unknown SIMD target '" + s + "'");
    return t;
}

} // namespace

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
    std::vector<std::vector<std::uint8_t>> payloads;
    validatePartials("comb", netlist::contentHash(net), partials, names,
                     &payloads);

    const std::vector<netlist::Fault> faults = net.allFaults();
    CampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];

    // Fill per-fault verdicts by global index, exactly once.
    std::vector<std::uint8_t> covered(faults.size(), 0);
    bool first_payload = true;
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = partialName(names, i);
        CombPayload p =
            shard_detail::decodeCombPayload(payloads[i], name);
        if (first_payload) {
            result.patternsApplied = p.patternsApplied;
            result.lanes = p.lanes;
            result.simd = parseSimdName(p.simd, name);
            first_payload = false;
        } else if (p.patternsApplied != result.patternsApplied) {
            // Lane width and kernel build are verdict-neutral tail
            // data, so shards run at different widths still merge.
            throw SnapshotError(name +
                                ": pattern header disagrees with " +
                                partialName(names, 0));
        }
        result.fp.batches += p.batches;
        for (CombRecord &rec : p.records) {
            if (rec.faultIndex >= faults.size())
                throw SnapshotError(name + ": fault index " +
                                    std::to_string(rec.faultIndex) +
                                    " out of range (circuit has " +
                                    std::to_string(faults.size()) + ")");
            if (covered[rec.faultIndex]++)
                throw SnapshotError(name + ": fault index " +
                                    std::to_string(rec.faultIndex) +
                                    " covered twice");
            FaultResult &fr = result.faults[rec.faultIndex];
            fr.outcome = static_cast<Outcome>(rec.outcome);
            fr.unsafePatterns = std::move(rec.unsafePatterns);
        }
    }
    for (std::size_t k = 0; k < faults.size(); ++k)
        if (!covered[k])
            throw SnapshotError(
                "merge: fault index " + std::to_string(k) +
                " covered by no partial (missing shard?)");

    // Same fold, same order as the inline runner's finalizeResult.
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
    std::vector<std::vector<std::uint8_t>> payloads;
    validatePartials("seq", netlist::contentHash(net), partials, names,
                     &payloads);

    const std::vector<netlist::Fault> faults = net.allFaults();
    SeqCampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];

    // Per-fault latency partials, folded below in fault order with
    // the same integer accumulators finalizeSeqResult uses, so the
    // histogram / mean double division come out bit-identical.
    std::vector<SeqRecord> recordOf(faults.size());
    std::vector<std::uint8_t> covered(faults.size(), 0);
    bool first_payload = true;
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = partialName(names, i);
        SeqPayload p = shard_detail::decodeSeqPayload(payloads[i], name);
        if (first_payload) {
            result.symbols = p.symbols;
            result.lanes = p.lanes;
            result.simd = parseSimdName(p.simd, name);
            result.classes = p.classes;
            result.prunedClasses = p.prunedClasses;
            result.prunedFaults = p.prunedFaults;
            result.faultBatch = p.faultBatch;
            first_payload = false;
        } else if (p.symbols != result.symbols ||
                   p.lanes != result.lanes) {
            throw SnapshotError(name +
                                ": symbol/lane header disagrees with " +
                                partialName(names, 0));
        }
        result.periodsSimulated += p.periodsSimulated;
        result.periodsSkipped += p.periodsSkipped;
        result.retiredEarly += p.retiredEarly;
        result.memoHits += p.memoHits;
        result.memoMisses += p.memoMisses;
        result.batchedClasses += p.batchedClasses;
        result.batches += p.batches;
        for (SeqRecord &rec : p.records) {
            if (rec.faultIndex >= faults.size())
                throw SnapshotError(name + ": fault index " +
                                    std::to_string(rec.faultIndex) +
                                    " out of range (circuit has " +
                                    std::to_string(faults.size()) + ")");
            if (covered[rec.faultIndex]++)
                throw SnapshotError(name + ": fault index " +
                                    std::to_string(rec.faultIndex) +
                                    " covered twice");
            recordOf[rec.faultIndex] = rec;
        }
    }
    for (std::size_t k = 0; k < faults.size(); ++k)
        if (!covered[k])
            throw SnapshotError(
                "merge: fault index " + std::to_string(k) +
                " covered by no partial (missing shard?)");

    std::uint64_t lat_sum = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
        const SeqRecord &rec = recordOf[k];
        result.faults[k].outcome = static_cast<Outcome>(rec.outcome);
        result.faults[k].firstAlarmPeriod =
            static_cast<long>(rec.firstAlarm);
        result.faults[k].firstEscapePeriod =
            static_cast<long>(rec.firstEscape);
        switch (result.faults[k].outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
        for (int b = 0; b < kLatencyBuckets; ++b)
            result.latencyHistogram[static_cast<std::size_t>(b)] +=
                rec.latHist[static_cast<std::size_t>(b)];
        result.alarmLaneCount += rec.alarmLanes;
        lat_sum += rec.latSum;
    }
    if (result.alarmLaneCount)
        result.meanAlarmPeriod =
            static_cast<double>(lat_sum) /
            static_cast<double>(result.alarmLaneCount);
    return result;
}

namespace
{

void
pushFlag(std::vector<std::string> *args, const char *flag,
         const std::string &value)
{
    args->push_back(flag);
    args->push_back(value);
}

std::string
joinIndices(const std::vector<int> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

} // namespace

std::vector<std::string>
campaignWorkerArgs(const CampaignOptions &opts)
{
    std::vector<std::string> a;
    pushFlag(&a, "--max-patterns", std::to_string(opts.maxPatterns));
    pushFlag(&a, "--seed", std::to_string(opts.seed));
    pushFlag(&a, "--keep-unsafe",
             std::to_string(opts.keepUnsafeExamples));
    if (!opts.checkAlternating)
        a.push_back("--no-check-alternating");
    pushFlag(&a, "--lanes", std::to_string(opts.lanes));
    pushFlag(&a, "--simd", sim::simdTargetName(opts.simd));
    if (opts.jobs != 0)
        pushFlag(&a, "--jobs", std::to_string(opts.jobs));
    return a;
}

std::vector<std::string>
seqCampaignWorkerArgs(const SeqCampaignOptions &opts,
                      const SeqCampaignSpec &spec)
{
    std::vector<std::string> a;
    pushFlag(&a, "--symbols", std::to_string(opts.symbols));
    pushFlag(&a, "--seed", std::to_string(opts.seed));
    pushFlag(&a, "--lanes", std::to_string(opts.lanes));
    pushFlag(&a, "--simd", sim::simdTargetName(opts.simd));
    pushFlag(&a, "--window",
             std::to_string(opts.faultStart) + ":" +
                 std::to_string(opts.faultEnd));
    if (!opts.dropDetected)
        a.push_back("--no-drop");
    a.push_back(opts.dominance ? "--dominance" : "--no-dominance");
    a.push_back(opts.faultBatch ? "--seq-fault-batch"
                                : "--no-seq-fault-batch");
    if (!opts.seqDominance)
        a.push_back("--no-seq-dominance");
    else if (opts.seqDominanceForce)
        a.push_back("--seq-dominance");
    if (opts.jobs != 0)
        pushFlag(&a, "--jobs", std::to_string(opts.jobs));
    pushFlag(&a, "--phi-index", std::to_string(spec.phiInput));
    if (!spec.holdInputs.empty())
        pushFlag(&a, "--hold", joinIndices(spec.holdInputs));
    if (!spec.dataOutputs.empty())
        pushFlag(&a, "--data", joinIndices(spec.dataOutputs));
    if (!spec.altOutputs.empty())
        pushFlag(&a, "--alt", joinIndices(spec.altOutputs));
    if (!spec.codePairs.empty())
        pushFlag(&a, "--code-pairs", joinIndices(spec.codePairs));
    return a;
}

} // namespace scal::fault
