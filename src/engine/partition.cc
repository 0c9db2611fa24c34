#include "engine/partition.hh"

#include <algorithm>

namespace scal::engine
{

std::vector<Chunk>
partitionRange(std::size_t n, int parts)
{
    std::vector<Chunk> chunks;
    if (n == 0 || parts <= 0)
        return chunks;
    const std::size_t p =
        std::min<std::size_t>(static_cast<std::size_t>(parts), n);
    const std::size_t base = n / p;
    const std::size_t extra = n % p;
    std::size_t at = 0;
    for (std::size_t i = 0; i < p; ++i) {
        const std::size_t len = base + (i < extra ? 1 : 0);
        chunks.push_back({at, at + len});
        at += len;
    }
    return chunks;
}

std::vector<Chunk>
planShards(std::size_t n, int workers, int chunksPerWorker,
           std::size_t minGrain)
{
    if (n == 0)
        return {};
    const int w = std::max(workers, 1);
    const int over = std::max(chunksPerWorker, 1);
    std::size_t parts = static_cast<std::size_t>(w) *
                        static_cast<std::size_t>(over);
    if (minGrain > 0)
        parts = std::min(parts, std::max<std::size_t>(n / minGrain, 1));
    return partitionRange(n, static_cast<int>(parts));
}

std::vector<std::size_t>
weightedBoundaries(const std::vector<std::uint64_t> &weights, int parts)
{
    if (parts <= 0)
        return {};
    const std::size_t n = weights.size();
    const std::size_t p = static_cast<std::size_t>(parts);
    std::vector<std::size_t> bounds(p + 1, 0);
    bounds[p] = n;

    std::vector<std::uint64_t> prefix(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        prefix[i + 1] = prefix[i] + weights[i];
    const std::uint64_t total = prefix[n];

    for (std::size_t k = 1; k < p; ++k) {
        if (total == 0) {
            bounds[k] = n * k / p; // all-zero weights: equal counts
            continue;
        }
        // 128-bit product: total * k overflows u64 for large totals.
        const std::uint64_t target = static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(total) * k / p);
        std::size_t at = static_cast<std::size_t>(
            std::lower_bound(prefix.begin(), prefix.end(), target) -
            prefix.begin());
        // lower_bound overshoots when one item straddles the target;
        // take whichever neighboring boundary is closer.
        if (at > 0 && at <= n &&
            prefix[at] - target > target - prefix[at - 1])
            --at;
        bounds[k] = std::clamp(at, bounds[k - 1], n);
    }
    return bounds;
}

} // namespace scal::engine
