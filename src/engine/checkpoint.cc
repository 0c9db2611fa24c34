#include "engine/checkpoint.hh"

#include <cstdio>
#include <fstream>

namespace scal::engine
{

namespace
{

constexpr char kMagic[7] = {'S', 'C', 'A', 'L', 'S', 'N', 'P'};
constexpr std::uint8_t kVersion = 1;

[[noreturn]] void
fail(const std::string &name, std::size_t offset, const std::string &why)
{
    throw SnapshotError(name + ": " + why + " at byte " +
                        std::to_string(offset));
}

} // namespace

std::uint64_t
fnv1a64Bytes(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
ByteWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

void
ByteReader::need(std::size_t n)
{
    if (size_ - pos_ < n)
        fail("<snapshot>", pos_, "truncated payload (need " +
                                     std::to_string(n) + " bytes, have " +
                                     std::to_string(size_ - pos_) + ")");
}

std::uint8_t
ByteReader::u8()
{
    need(1);
    return data_[pos_++];
}

std::uint32_t
ByteReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
}

std::uint64_t
ByteReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
}

std::string
ByteReader::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

std::vector<std::uint8_t>
encodeSnapshot(const SnapshotHeader &hdr,
               const std::vector<std::uint8_t> &payload)
{
    ByteWriter w;
    // Magic + version, three length-prefixed strings, seven
    // fixed-width fields (payload size last), payload, trailer.
    w.reserve(sizeof kMagic + 1 + 3 * 4 + hdr.kind.size() +
              hdr.configKey.size() + hdr.shapeKey.size() + 8 + 4 + 4 +
              8 + 8 + 1 + 8 + payload.size() + 8);
    w.raw(reinterpret_cast<const std::uint8_t *>(kMagic), sizeof kMagic);
    w.u8(kVersion);
    w.str(hdr.kind);
    w.u64(hdr.netHash);
    w.str(hdr.configKey);
    w.str(hdr.shapeKey);
    w.u32(static_cast<std::uint32_t>(hdr.shard.index));
    w.u32(static_cast<std::uint32_t>(hdr.shard.count));
    w.u64(hdr.units);
    w.u64(hdr.cursor);
    w.u8(hdr.complete ? 1 : 0);
    w.u64(payload.size());
    w.raw(payload.data(), payload.size());
    w.u64(fnv1a64Bytes(w.bytes().data(), w.bytes().size()));
    return w.take();
}

SnapshotHeader
decodeSnapshot(const std::vector<std::uint8_t> &bytes,
               std::vector<std::uint8_t> *payload,
               const std::string &name)
{
    if (bytes.size() < sizeof kMagic + 1)
        fail(name, bytes.size(), "truncated snapshot (no magic)");
    for (std::size_t i = 0; i < sizeof kMagic; ++i)
        if (bytes[i] != static_cast<std::uint8_t>(kMagic[i]))
            fail(name, i, "bad magic (not a SCAL snapshot)");
    if (bytes[sizeof kMagic] != kVersion)
        fail(name, sizeof kMagic,
             "unsupported snapshot version " +
                 std::to_string(bytes[sizeof kMagic]) + " (want " +
                 std::to_string(kVersion) + ")");
    // The trailing hash covers everything before it; validate it first
    // so any later field error is a format bug, not silent corruption.
    if (bytes.size() < sizeof kMagic + 1 + 8)
        fail(name, bytes.size(), "truncated snapshot (no trailer)");
    const std::size_t body = bytes.size() - 8;
    const std::uint64_t want = fnv1a64Bytes(bytes.data(), body);
    ByteReader tail(bytes.data() + body, 8);
    const std::uint64_t got = tail.u64();
    if (want != got)
        fail(name, body,
             "integrity hash mismatch (stored " + std::to_string(got) +
                 ", computed " + std::to_string(want) +
                 "): snapshot corrupted");

    ByteReader r(bytes.data(), body);
    try {
        r.u64(); // magic + version, already checked
        SnapshotHeader hdr;
        hdr.kind = r.str();
        hdr.netHash = r.u64();
        hdr.configKey = r.str();
        hdr.shapeKey = r.str();
        hdr.shard.index = static_cast<int>(r.u32());
        hdr.shard.count = static_cast<int>(r.u32());
        hdr.units = r.u64();
        hdr.cursor = r.u64();
        hdr.complete = r.u8() != 0;
        const std::uint64_t psize = r.u64();
        if (psize != r.remaining())
            fail(name, r.offset(),
                 "payload size " + std::to_string(psize) +
                     " does not match remaining " +
                     std::to_string(r.remaining()) + " bytes");
        if (hdr.shard.count < 1 || hdr.shard.index < 0 ||
            hdr.shard.index >= hdr.shard.count)
            fail(name, r.offset(), "invalid shard spec in header");
        if (hdr.cursor > hdr.units)
            fail(name, r.offset(), "cursor past unit count");
        if (payload) {
            payload->assign(bytes.data() + r.offset(),
                            bytes.data() + body);
        }
        return hdr;
    } catch (const SnapshotError &e) {
        // Re-label reader underruns with the source name.
        const std::string what = e.what();
        if (what.rfind("<snapshot>", 0) == 0)
            throw SnapshotError(name + what.substr(10));
        throw;
    }
}

SnapshotHeader
decodeResumeSnapshot(const std::vector<std::uint8_t> &bytes,
                     const SnapshotHeader &run,
                     std::vector<std::uint8_t> *payload,
                     const std::string &name)
{
    const SnapshotHeader h = decodeSnapshot(bytes, payload, name);
    if (h.kind != run.kind)
        throw SnapshotError(name + ": not a " + run.kind +
                            " campaign snapshot (kind '" + h.kind + "')");
    if (h.netHash != run.netHash)
        throw SnapshotError(name + ": snapshot is for a different circuit");
    if (h.configKey != run.configKey)
        throw SnapshotError(name + ": config mismatch (snapshot '" +
                            h.configKey + "', run '" + run.configKey +
                            "')");
    if (h.shard != run.shard)
        throw SnapshotError(name + ": snapshot is shard " + h.shard.str() +
                            ", not " + run.shard.str());
    if (h.shapeKey != run.shapeKey || h.units != run.units)
        throw SnapshotError(
            name + ": work-shape mismatch (snapshot '" + h.shapeKey +
            "', " + std::to_string(h.units) + " units; run '" +
            run.shapeKey + "', " + std::to_string(run.units) +
            " units); rerun without --resume");
    return h;
}

PartialSet
decodePartialSet(const std::string &kind, std::uint64_t netHash,
                 const std::vector<std::vector<std::uint8_t>> &partials,
                 const std::vector<std::string> &names)
{
    if (partials.empty())
        throw SnapshotError("merge: no partial files given");
    PartialSet set;
    set.payloads.resize(partials.size());
    SnapshotHeader first;
    std::vector<bool> seen;
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = i < names.size()
                                     ? names[i]
                                     : "partial " + std::to_string(i + 1);
        set.names.push_back(name);
        const SnapshotHeader h =
            decodeSnapshot(partials[i], &set.payloads[i], name);
        if (i == 0) {
            first = h;
            seen.assign(static_cast<std::size_t>(h.shard.count), false);
        }
        if (h.kind != kind)
            throw SnapshotError(name + ": kind '" + h.kind +
                                "' does not match campaign kind '" + kind +
                                "'");
        if (h.netHash != netHash)
            throw SnapshotError(name +
                                ": netlist content hash mismatch (file " +
                                std::to_string(h.netHash) + ", circuit " +
                                std::to_string(netHash) + ")");
        if (!h.complete)
            throw SnapshotError(
                name + ": incomplete shard (cursor " +
                std::to_string(h.cursor) + "/" + std::to_string(h.units) +
                "); finish or resume it before merging");
        if (h.configKey != first.configKey)
            throw SnapshotError(name + ": config '" + h.configKey +
                                "' does not match " + set.names[0] +
                                " ('" + first.configKey + "')");
        if (h.shard.count != first.shard.count)
            throw SnapshotError(name + ": shard split " + h.shard.str() +
                                " does not match " + first.shard.str());
        if (seen[static_cast<std::size_t>(h.shard.index)])
            throw SnapshotError(name + ": duplicate shard " + h.shard.str());
        seen[static_cast<std::size_t>(h.shard.index)] = true;
    }
    if (static_cast<int>(partials.size()) != first.shard.count)
        throw SnapshotError(
            "merge: got " + std::to_string(partials.size()) +
            " partials for an N=" + std::to_string(first.shard.count) +
            " split");
    return set;
}

void
FaultCoverage::cover(std::uint64_t index, const std::string &name)
{
    if (index >= covered_.size())
        throw SnapshotError(name + ": fault index " + std::to_string(index) +
                            " out of range (circuit has " +
                            std::to_string(covered_.size()) + ")");
    if (covered_[index]++)
        throw SnapshotError(name + ": fault index " + std::to_string(index) +
                            " covered twice");
}

void
FaultCoverage::requireAll() const
{
    for (std::size_t k = 0; k < covered_.size(); ++k)
        if (!covered_[k])
            throw SnapshotError("merge: fault index " + std::to_string(k) +
                                " covered by no partial (missing shard?)");
}

void
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw SnapshotError("cannot open " + tmp + " for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            throw SnapshotError("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw SnapshotError("cannot rename " + tmp + " over " + path);
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError("cannot open snapshot " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

} // namespace scal::engine
