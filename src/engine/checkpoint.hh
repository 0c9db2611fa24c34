/**
 * @file
 * Compact versioned binary snapshots of per-shard campaign state.
 *
 * A snapshot is a self-describing byte string:
 *
 *   magic "SCALSNP" + version byte
 *   header  — campaign kind, netlist content hash, canonical config
 *             key, work-shape key (the knobs that change the class
 *             universe), shard K/N, work-unit count, cursor, complete
 *             flag
 *   payload — campaign-specific (per-fault verdict records, stream
 *             position, histogram partials; see fault/shard.hh)
 *   trailer — FNV-1a 64 hash of every preceding byte
 *
 * The same format serves both roles the campaign runners need: a
 * checkpoint (complete == false, cursor < units) that `--resume`
 * continues from, and a partial result file (complete == true) that
 * `scal_cli merge` folds into the bit-identical merged verdict.
 *
 * Files are written atomically (tmp + rename) so a kill can never
 * leave a half-written snapshot under the published name; decode
 * validates magic, version, field bounds and the trailing hash and
 * throws SnapshotError with the offending byte offset, so a corrupt
 * or truncated file is rejected with a diagnostic instead of being
 * resumed into silent garbage.
 */

#ifndef SCAL_ENGINE_CHECKPOINT_HH
#define SCAL_ENGINE_CHECKPOINT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/shard.hh"

namespace scal::engine
{

/** Malformed, truncated or corrupted snapshot. what() names the file
 *  (when known) and the byte offset of the first offending field. */
struct SnapshotError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** FNV-1a 64 over a byte range (the snapshot integrity hash). */
std::uint64_t fnv1a64Bytes(const std::uint8_t *data, std::size_t size);

/** Little-endian append-only encoder for snapshot payloads; each
 *  field is appended as one whole word. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Length-prefixed string (u32 + raw bytes). */
    void str(const std::string &s);
    void raw(const std::uint8_t *data, std::size_t size)
    {
        buf_.insert(buf_.end(), data, data + size);
    }
    void reserve(std::size_t size) { buf_.reserve(size); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    template <typename T>
    void
    word(T v)
    {
        std::uint8_t le[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        raw(le, sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked decoder; every read throws SnapshotError with the
 *  current byte offset on underrun. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::string str();

    std::size_t offset() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    void need(std::size_t n);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * What identifies a snapshot's campaign. Resume requires every field
 * to match the relaunched run (same circuit, same config, same work
 * shape, same shard of the same split); merge requires kind, netHash,
 * configKey and shard count to match across partials.
 */
struct SnapshotHeader
{
    /** Campaign kind tag: "comb", "seq" or "system". */
    std::string kind;
    /** netlist::contentHash of the campaign target. */
    std::uint64_t netHash = 0;
    /** Canonical config key (fault/report.hh) — the knobs verdicts
     *  depend on. */
    std::string configKey;
    /** The performance knobs that reshape the work-unit universe
     *  (collapse options, lane width...): verdict-neutral, but a
     *  cursor only makes sense against the same shape. */
    std::string shapeKey;
    ShardSpec shard;
    /** Work units (groups / batches / reps / faults) in this shard. */
    std::uint64_t units = 0;
    /** Units completed; payload covers exactly [0, cursor). */
    std::uint64_t cursor = 0;
    /** True for a finished shard (a partial result file). */
    bool complete = false;
};

/** Encode header + payload with magic, version and trailing hash. */
std::vector<std::uint8_t>
encodeSnapshot(const SnapshotHeader &hdr,
               const std::vector<std::uint8_t> &payload);

/**
 * Validate and decode a snapshot. @p name labels the source in
 * diagnostics (a path, or "<memory>"). When @p payload is non-null
 * the payload bytes are copied out.
 */
SnapshotHeader
decodeSnapshot(const std::vector<std::uint8_t> &bytes,
               std::vector<std::uint8_t> *payload,
               const std::string &name = "<memory>");

/**
 * Decode a resume snapshot and check that it belongs to the run
 * described by @p run: same kind, netlist hash, config key, shard,
 * work-shape key and unit count (run.cursor and run.complete are
 * ignored). Returns the snapshot's header and copies its payload to
 * @p payload. Throws SnapshotError naming @p name on the first
 * mismatch, so a foreign checkpoint is refused instead of continued.
 */
SnapshotHeader
decodeResumeSnapshot(const std::vector<std::uint8_t> &bytes,
                     const SnapshotHeader &run,
                     std::vector<std::uint8_t> *payload,
                     const std::string &name);

/** The partials of one N-way split, checked for merging. */
struct PartialSet
{
    /** Each partial's payload, in input order. */
    std::vector<std::vector<std::uint8_t>> payloads;
    /** Each partial's label in diagnostics. */
    std::vector<std::string> names;
};

/**
 * Decode a merge's partials and check they are one whole split: each
 * has kind @p kind and netlist hash @p netHash, is complete, agrees
 * with the first on config key and shard count, and each shard index
 * appears once. @p names labels them (default "partial 1", ...).
 * Throws SnapshotError naming the first offending partial.
 */
PartialSet
decodePartialSet(const std::string &kind, std::uint64_t netHash,
                 const std::vector<std::vector<std::uint8_t>> &partials,
                 const std::vector<std::string> &names);

/** Exactly-once coverage of a campaign's faults by merged records. */
class FaultCoverage
{
  public:
    explicit FaultCoverage(std::size_t faults) : covered_(faults, 0) {}

    /** Count fault @p index, recorded by partial @p name; throws
     *  SnapshotError when it is out of range or already counted. */
    void cover(std::uint64_t index, const std::string &name);

    /** Throws SnapshotError naming the first fault never counted. */
    void requireAll() const;

  private:
    std::vector<std::uint8_t> covered_;
};

/** Atomic file write: path + ".tmp", then rename over path. */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &bytes);

/** Whole-file read; throws SnapshotError when unreadable. */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

} // namespace scal::engine

#endif // SCAL_ENGINE_CHECKPOINT_HH
