/**
 * @file
 * Multi-process sharding: split a campaign's collapsed-class index
 * space into N contiguous slices so N independent processes can each
 * simulate one slice and emit a partial result file. The slice policy
 * is the engine's own partitionRange — the same contiguous-chunk
 * discipline the in-process merge rests on — so the cross-process
 * merge stays a concatenation in index order and the merged output is
 * bit-identical to a single-process run at any shard count.
 */

#ifndef SCAL_ENGINE_SHARD_HH
#define SCAL_ENGINE_SHARD_HH

#include <string>

#include "engine/partition.hh"

namespace scal::engine
{

/** The most shards one campaign may be split into, on the CLI and in
 *  the daemon's `shards` key: a multi-process run forks one worker per
 *  shard at once. */
inline constexpr int kMaxShards = 4096;

/**
 * One shard of an N-way campaign split. The user-facing syntax is
 * "K/N" with K in 1..N; internally the index is zero-based. The
 * default ({0, 1}) is the whole universe, so every campaign runner
 * can take a ShardSpec unconditionally.
 */
struct ShardSpec
{
    int index = 0;
    int count = 1;

    /** True when the spec actually restricts the universe. */
    bool active() const { return count > 1; }

    /** The "K/N" form (1-based) used by the CLI and in snapshots. */
    std::string str() const;

    bool operator==(const ShardSpec &o) const = default;
};

/**
 * Parse "K/N" (1 <= K <= N, N <= kMaxShards). Throws
 * std::invalid_argument with the offending text on anything else.
 */
ShardSpec parseShardSpec(const std::string &text);

/**
 * The contiguous slice of [0, n) owned by @p shard: slot shard.index
 * of partitionRange(n, shard.count). Slices cover [0, n) exactly once
 * across all shards; trailing shards get an empty slice when
 * n < shard.count.
 */
Chunk shardSlice(std::size_t n, const ShardSpec &shard);

/**
 * Cost-weighted variant: the contiguous slice of
 * [0, weights.size()) owned by @p shard under weightedBoundaries, so
 * shards own nearly equal total *cost* instead of equal counts. With
 * per-item simulation-cost estimates this is what keeps the critical
 * path of an N-process fleet near serial/N when item costs are
 * skewed. Weights must be a pure function of (netlist, config) so
 * every process derives the identical split.
 */
Chunk shardSliceWeighted(const std::vector<std::uint64_t> &weights,
                         const ShardSpec &shard);

} // namespace scal::engine

#endif // SCAL_ENGINE_SHARD_HH
