/**
 * @file
 * Sharding policy for the parallel campaign engine: split an index
 * space (typically the representatives of a fault/collapse pass) into
 * contiguous chunks. Contiguity keeps the deterministic merge trivial
 * — per-chunk result vectors concatenate back in index order — and
 * oversubscription (more chunks than workers) lets the pool's shared
 * queue balance uneven chunk costs, which is what makes the simple
 * pool behave like a work-stealing scheduler. In-process chunks are
 * therefore equal counts (planShards); cost weights cut only the
 * slices of separate processes (weightedBoundaries).
 */

#ifndef SCAL_ENGINE_PARTITION_HH
#define SCAL_ENGINE_PARTITION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scal::engine
{

/** A half-open slice [begin, end) of an index space. */
struct Chunk
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
    bool operator==(const Chunk &o) const = default;
};

/**
 * Split [0, n) into at most @p parts contiguous chunks of nearly
 * equal size (sizes differ by at most one, larger chunks first).
 * Never emits an empty chunk; returns fewer than @p parts chunks when
 * n < parts, and an empty vector when n == 0.
 */
std::vector<Chunk> partitionRange(std::size_t n, int parts);

/**
 * Sharding plan for a fault campaign: oversubscribe the pool by
 * @p chunksPerWorker (default 4) so early-finishing workers pull more
 * work, but never drop below @p minGrain items per chunk — tiny
 * chunks would pay more in queue traffic and duplicated good-value
 * simulation than they recover in balance.
 */
std::vector<Chunk> planShards(std::size_t n, int workers,
                              int chunksPerWorker = 4,
                              std::size_t minGrain = 8);

/**
 * Exactly @p parts contiguous slices of [0, weights.size()) with
 * nearly equal total weight: boundary k sits at the prefix sum
 * nearest to total * k / parts. Returns the parts+1 boundary indices
 * (boundaries[0] == 0, boundaries[parts] == weights.size(); empty
 * slices are possible and legal). It never merges away a slice —
 * multi-process sharding needs one slice per shard index — and it is
 * deterministic for a given weight vector, which is what lets N
 * independent processes derive the same split. All-zero weights
 * degrade to equal-count slices. Only process slices are weighted:
 * separate processes share no queue to even out their costs.
 */
std::vector<std::size_t>
weightedBoundaries(const std::vector<std::uint64_t> &weights, int parts);

} // namespace scal::engine

#endif // SCAL_ENGINE_PARTITION_HH
