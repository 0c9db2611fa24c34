#include "engine/shard.hh"

#include <stdexcept>
#include <string_view>

#include "util/number.hh"

namespace scal::engine
{

std::string
ShardSpec::str() const
{
    return std::to_string(index + 1) + "/" + std::to_string(count);
}

ShardSpec
parseShardSpec(const std::string &text)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        throw std::invalid_argument("bad shard spec '" + text +
                                    "' (want K/N)");
    const std::string_view spec = text;
    long k = 0, n = 0;
    if (util::parseNumber(spec.substr(0, slash), &k) != std::errc())
        throw std::invalid_argument("bad shard index in '" + text + "'");
    if (util::parseNumber(spec.substr(slash + 1), &n) != std::errc())
        throw std::invalid_argument("bad shard count in '" + text + "'");
    if (n < 1 || n > kMaxShards)
        throw std::invalid_argument("shard count must be 1.." +
                                    std::to_string(kMaxShards) + ", got '" +
                                    text + "'");
    if (k < 1 || k > n)
        throw std::invalid_argument("shard index must be 1..N in '" +
                                    text + "'");
    ShardSpec s;
    s.index = static_cast<int>(k - 1);
    s.count = static_cast<int>(n);
    return s;
}

Chunk
shardSlice(std::size_t n, const ShardSpec &shard)
{
    if (!shard.active())
        return Chunk{0, n};
    const std::vector<Chunk> chunks = partitionRange(n, shard.count);
    if (static_cast<std::size_t>(shard.index) >= chunks.size())
        return Chunk{n, n}; // empty trailing shard (n < count)
    return chunks[static_cast<std::size_t>(shard.index)];
}

Chunk
shardSliceWeighted(const std::vector<std::uint64_t> &weights,
                   const ShardSpec &shard)
{
    if (!shard.active())
        return Chunk{0, weights.size()};
    const std::vector<std::size_t> bounds =
        weightedBoundaries(weights, shard.count);
    const std::size_t k = static_cast<std::size_t>(shard.index);
    return Chunk{bounds[k], bounds[k + 1]};
}

} // namespace scal::engine
