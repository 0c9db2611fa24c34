#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign_engine.hh"
#include "engine/partition.hh"
#include "engine/progress.hh"

namespace scal
{
namespace
{

TEST(Partition, CoversRangeExactly)
{
    for (std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
        for (int parts : {1, 2, 3, 8, 17}) {
            const auto chunks = engine::partitionRange(n, parts);
            ASSERT_FALSE(chunks.empty());
            EXPECT_LE(chunks.size(),
                      static_cast<std::size_t>(parts));
            std::size_t at = 0;
            std::size_t lo = n, hi = 0;
            for (const auto &c : chunks) {
                EXPECT_EQ(c.begin, at);
                EXPECT_GT(c.size(), 0u);
                lo = std::min(lo, c.size());
                hi = std::max(hi, c.size());
                at = c.end;
            }
            EXPECT_EQ(at, n);
            EXPECT_LE(hi - lo, 1u) << n << "/" << parts;
        }
    }
}

TEST(Partition, EmptyAndDegenerate)
{
    EXPECT_TRUE(engine::partitionRange(0, 4).empty());
    EXPECT_TRUE(engine::partitionRange(10, 0).empty());
    EXPECT_EQ(engine::partitionRange(3, 10).size(), 3u);
}

TEST(Partition, WeightedBoundariesBalanceAndInvariants)
{
    // Monotone, exactly parts+1 boundaries, full cover, and no part
    // holding more than ~one max-weight item above the even share.
    std::vector<std::uint64_t> w;
    std::uint64_t seed = 0x9e3779b97f4a7c15ull, total = 0, wmax = 0;
    for (int i = 0; i < 1000; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t x = (seed >> 33) % 97 + 1;
        w.push_back(x);
        total += x;
        wmax = std::max(wmax, x);
    }
    for (int parts : {1, 2, 3, 7, 16}) {
        const auto b = engine::weightedBoundaries(w, parts);
        ASSERT_EQ(b.size(), static_cast<std::size_t>(parts) + 1);
        EXPECT_EQ(b.front(), 0u);
        EXPECT_EQ(b.back(), w.size());
        for (int k = 0; k < parts; ++k) {
            EXPECT_LE(b[k], b[k + 1]);
            std::uint64_t part = 0;
            for (std::size_t i = b[k]; i < b[k + 1]; ++i)
                part += w[i];
            EXPECT_LE(part, total / parts + 2 * wmax)
                << "part " << k << " of " << parts;
        }
    }
}

TEST(Partition, WeightedBoundariesDegenerate)
{
    // All-zero weights fall back to equal counts; empty input and
    // more parts than items still produce monotone full covers.
    const std::vector<std::uint64_t> zeros(10, 0);
    const auto bz = engine::weightedBoundaries(zeros, 5);
    ASSERT_EQ(bz.size(), 6u);
    for (int k = 0; k < 5; ++k)
        EXPECT_EQ(bz[k + 1] - bz[k], 2u);
    EXPECT_TRUE(engine::weightedBoundaries({1, 2, 3}, 0).empty());
    const auto be = engine::weightedBoundaries({}, 4);
    ASSERT_EQ(be.size(), 5u);
    EXPECT_EQ(be.back(), 0u);
    // One huge item: it lands in exactly one part, the rest stay
    // small, and every index is still covered exactly once.
    const std::vector<std::uint64_t> spike{1, 1, 1000, 1, 1, 1};
    const auto bs = engine::weightedBoundaries(spike, 3);
    ASSERT_EQ(bs.size(), 4u);
    EXPECT_EQ(bs.front(), 0u);
    EXPECT_EQ(bs.back(), spike.size());
    for (int k = 0; k < 3; ++k)
        EXPECT_LE(bs[k], bs[k + 1]);
}

TEST(Partition, PlanShardsRespectsMinGrain)
{
    // 100 items, 8 workers x 4 oversubscription would be 32 chunks,
    // but minGrain 16 caps the plan at 6 chunks.
    const auto chunks = engine::planShards(100, 8, 4, 16);
    EXPECT_EQ(chunks.size(), 6u);
    std::size_t total = 0;
    for (const auto &c : chunks)
        total += c.size();
    EXPECT_EQ(total, 100u);
}

TEST(Partition, PlanShardsOversubscribes)
{
    const auto chunks = engine::planShards(1000, 4, 4, 8);
    EXPECT_EQ(chunks.size(), 16u);
}

TEST(Progress, CountersAndSnapshot)
{
    engine::ProgressTracker t;
    t.start(10);
    t.addFaultsDone(3);
    t.addPatterns(128);
    t.addUnsafe(1);
    const auto s = t.snapshot();
    EXPECT_EQ(s.faultsDone, 3u);
    EXPECT_EQ(s.faultsTotal, 10u);
    EXPECT_EQ(s.patternsApplied, 128u);
    EXPECT_EQ(s.unsafeSoFar, 1u);
    EXPECT_DOUBLE_EQ(s.fraction(), 0.3);
    EXPECT_GE(s.elapsedSeconds, 0.0);
}

TEST(Progress, JsonHasAllFields)
{
    engine::ProgressTracker t;
    t.start(4);
    t.addFaultsDone(4);
    const std::string json = t.toJson();
    for (const char *key :
         {"faults_done", "faults_total", "patterns_applied",
          "unsafe_so_far", "elapsed_seconds", "faults_per_second"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(Progress, PeriodicReporterFires)
{
    engine::ProgressTracker t;
    t.start(100);
    std::atomic<int> fired{0};
    t.startReporter(std::chrono::milliseconds(5),
                    [&](const engine::ProgressSnapshot &) {
                        fired.fetch_add(1);
                    });
    while (fired.load() < 2)
        std::this_thread::yield();
    t.stopReporter();
    EXPECT_GE(fired.load(), 2);
}

TEST(Progress, CampaignStatsJson)
{
    engine::CampaignStats st;
    st.jobs = 8;
    st.totalFaults = 100;
    st.simulatedFaults = 60;
    st.collapseRatio = 0.6;
    const std::string json = st.toJson();
    for (const char *key :
         {"\"jobs\": 8", "\"total_faults\": 100",
          "\"simulated_faults\": 60", "collapse_ratio",
          "elapsed_seconds", "faults_per_second",
          "patterns_per_second"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(CampaignEngine, MapChunksMergesInChunkOrder)
{
    engine::EngineOptions opts;
    opts.jobs = 4;
    opts.minGrain = 1;
    engine::CampaignEngine eng(opts);
    EXPECT_EQ(eng.jobs(), 4);

    // Each chunk returns its own slice; concatenation in chunk order
    // must rebuild the identity sequence whatever the completion
    // order was.
    auto chunks = eng.mapChunks<std::vector<std::size_t>>(
        257, [](engine::Chunk c, std::size_t) {
            std::vector<std::size_t> out;
            for (std::size_t i = c.begin; i < c.end; ++i)
                out.push_back(i);
            return out;
        });
    std::vector<std::size_t> merged;
    for (const auto &c : chunks)
        merged.insert(merged.end(), c.begin(), c.end());
    ASSERT_EQ(merged.size(), 257u);
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(merged[i], i);
}

TEST(CampaignEngine, ChunkExceptionRethrows)
{
    engine::EngineOptions opts;
    opts.jobs = 2;
    opts.minGrain = 1;
    engine::CampaignEngine eng(opts);
    EXPECT_THROW(eng.mapChunks<int>(16,
                                    [](engine::Chunk c, std::size_t) {
                                        if (c.begin == 0)
                                            throw std::runtime_error(
                                                "chunk boom");
                                        return 1;
                                    }),
                 std::runtime_error);
}

TEST(CampaignEngine, OneWorkerRunsOneChunkOnCallingThread)
{
    engine::EngineOptions opts;
    opts.jobs = 1;
    opts.minGrain = 1;
    engine::CampaignEngine eng(opts);
    EXPECT_EQ(eng.jobs(), 1);

    const std::thread::id caller = std::this_thread::get_id();
    std::vector<engine::Chunk> seen;
    std::vector<std::size_t> indices;
    const auto out = eng.mapChunks<bool>(
        257, [&](engine::Chunk c, std::size_t index) {
            seen.push_back(c);
            indices.push_back(index);
            return std::this_thread::get_id() == caller;
        });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0]) << "the single chunk ran off the calling thread";
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], (engine::Chunk{0, 257}));
    EXPECT_EQ(indices, std::vector<std::size_t>{0});

    // The plan mapChunks and every shard runner use is that same
    // single [0, n) chunk.
    EXPECT_EQ(eng.chunks(257), (std::vector<engine::Chunk>{{0, 257}}));
    EXPECT_TRUE(eng.chunks(0).empty());

    // An empty index space runs nothing.
    EXPECT_TRUE(eng.mapChunks<int>(0, [](engine::Chunk, std::size_t) {
                       return 1;
                   }).empty());

    eng.beginCampaign(257);
    EXPECT_EQ(eng.endCampaign(10, 5, 64).jobs, 1);
}

TEST(CampaignEngine, OneWorkerRethrowsChunkExceptionDirectly)
{
    engine::EngineOptions opts;
    opts.jobs = 1;
    engine::CampaignEngine eng(opts);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id thrower;
    try {
        eng.mapChunks<int>(16, [&](engine::Chunk, std::size_t) -> int {
            thrower = std::this_thread::get_id();
            throw std::runtime_error("chunk boom");
        });
        FAIL() << "chunk exception swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk boom");
    }
    EXPECT_EQ(thrower, caller);
}

TEST(CampaignEngine, ChunkExceptionWaitsForEveryChunk)
{
    // The chunk closures reference the caller's frame, so a failing
    // chunk may only surface once every other chunk has finished.
    engine::EngineOptions opts;
    opts.jobs = 4;
    opts.minGrain = 1;
    engine::CampaignEngine eng(opts);
    std::atomic<int> finished{0};
    EXPECT_THROW(
        eng.mapChunks<int>(16,
                           [&](engine::Chunk c, std::size_t) {
                               if (c.begin == 0)
                                   throw std::runtime_error("chunk boom");
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(2));
                               return ++finished;
                           }),
        std::runtime_error);
    EXPECT_EQ(finished.load(),
              static_cast<int>(engine::planShards(16, 4, 4, 1).size()) -
                  1);
}

/** The n single-item chunks [i, i + 1) of [0, n). */
std::vector<engine::Chunk>
unitChunks(std::size_t n)
{
    std::vector<engine::Chunk> chunks;
    for (std::size_t i = 0; i < n; ++i)
        chunks.push_back({i, i + 1});
    return chunks;
}

TEST(CampaignEngine, StreamChunksCommitsInOrderOnCallingThread)
{
    engine::EngineOptions opts;
    opts.jobs = 4;
    engine::CampaignEngine eng(opts);
    const std::thread::id caller = std::this_thread::get_id();

    // Chunk 0 only finishes after chunk 1 has, so a commit in
    // completion order would see 1 before 0.
    std::atomic<bool> oneDone{false};
    std::atomic<int> finishOrder{0};
    std::vector<int> finishedAt(8, -1);
    std::vector<std::size_t> commits;
    bool offCaller = false;
    eng.streamChunks(
        unitChunks(8),
        [&](engine::Chunk c, std::size_t i) {
            if (i == 0)
                while (!oneDone.load())
                    std::this_thread::yield();
            finishedAt[i] = finishOrder.fetch_add(1);
            if (i == 1)
                oneDone.store(true);
            return c.begin * 10;
        },
        [&](engine::Chunk c, std::size_t i, std::size_t &&r) {
            offCaller |= std::this_thread::get_id() != caller;
            EXPECT_EQ(r, c.begin * 10);
            commits.push_back(i);
        });
    EXPECT_LT(finishedAt[1], finishedAt[0]);
    EXPECT_EQ(commits, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_FALSE(offCaller) << "a commit ran off the calling thread";
}

TEST(CampaignEngine, StreamChunksStopsCommitsAtChunkException)
{
    engine::EngineOptions opts;
    opts.jobs = 4;
    engine::CampaignEngine eng(opts);
    std::atomic<int> finished{0};
    std::vector<std::size_t> commits;
    try {
        eng.streamChunks(
            unitChunks(12),
            [&](engine::Chunk, std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("chunk boom");
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                return ++finished;
            },
            [&](engine::Chunk, std::size_t i, int &&) {
                commits.push_back(i);
            });
        FAIL() << "chunk exception swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk boom");
    }
    // Commits stop at the failed chunk; the rethrow waits for the
    // other eleven chunks, which all still ran.
    EXPECT_EQ(commits, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(finished.load(), 11);
}

TEST(CampaignEngine, StreamChunksStopsCommitsAtCommitException)
{
    engine::EngineOptions opts;
    opts.jobs = 4;
    engine::CampaignEngine eng(opts);
    std::atomic<int> finished{0};
    std::vector<std::size_t> commits;
    try {
        eng.streamChunks(
            unitChunks(12),
            [&](engine::Chunk, std::size_t) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                return ++finished;
            },
            [&](engine::Chunk, std::size_t i, int &&) {
                commits.push_back(i);
                if (i == 2)
                    throw std::runtime_error("commit boom");
            });
        FAIL() << "commit exception swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "commit boom");
    }
    EXPECT_EQ(commits, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(finished.load(), 12);
}

TEST(CampaignEngine, StreamChunksOneWorkerInterleavesInline)
{
    engine::EngineOptions opts;
    opts.jobs = 1;
    engine::CampaignEngine eng(opts);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::string> events;
    bool offCaller = false;
    eng.streamChunks(
        unitChunks(3),
        [&](engine::Chunk, std::size_t i) {
            offCaller |= std::this_thread::get_id() != caller;
            events.push_back("run " + std::to_string(i));
            return i;
        },
        [&](engine::Chunk, std::size_t i, std::size_t &&) {
            events.push_back("commit " + std::to_string(i));
        });
    EXPECT_EQ(events, (std::vector<std::string>{"run 0", "commit 0", "run 1",
                                                "commit 1", "run 2",
                                                "commit 2"}));
    EXPECT_FALSE(offCaller);

    // A commit exception propagates at once: no later chunk runs.
    EXPECT_THROW(eng.streamChunks(
                     unitChunks(3),
                     [&](engine::Chunk, std::size_t i) {
                         events.push_back("late run " + std::to_string(i));
                         return i;
                     },
                     [](engine::Chunk, std::size_t, std::size_t &&) {
                         throw std::runtime_error("commit boom");
                     }),
                 std::runtime_error);
    EXPECT_EQ(events.back(), "late run 0");
}

} // namespace
} // namespace scal
