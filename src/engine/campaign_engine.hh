/**
 * @file
 * The parallel campaign engine: deterministic fan-out of a campaign
 * over an index space (fault classes, trials, fault sites...) and the
 * deterministic merge of the per-chunk results.
 *
 * Determinism contract: chunks are contiguous slices produced by
 * engine/partition, each chunk's work is a pure function of its slice
 * (workers share no mutable state), and results reach the caller
 * ordered by chunk index regardless of completion order. Callers
 * concatenate or fold those results in chunk order, so the same
 * (netlist, seed, maxPatterns) triple yields a bit-identical campaign
 * result at any thread count.
 *
 * chunks() is the one in-process plan: equal item counts, four chunks
 * per worker. Items may differ in cost (fault groups, lane batches);
 * the pool's shared queue over the oversubscribed chunks balances
 * them. Cost-weighted chunks measured no better (EXPERIMENTS.md E29),
 * nor did a one-item grain where the default one leaves fewer chunks
 * than workers (E30). Cost estimates only cut --shard process slices
 * (engine/shard.hh), which share no queue.
 * streamChunks() is the one dispatch loop: the caller commits a
 * finished prefix of chunks while the workers run the rest.
 *
 * One worker is not a separate code path: the engine then spawns no
 * thread and runs the whole index space as one chunk on the calling
 * thread, so a jobs=1 campaign is the same pipeline minus the pool.
 */

#ifndef SCAL_ENGINE_CAMPAIGN_ENGINE_HH
#define SCAL_ENGINE_CAMPAIGN_ENGINE_HH

#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/partition.hh"
#include "engine/progress.hh"
#include "engine/thread_pool.hh"

namespace scal::engine
{

struct EngineOptions
{
    /** Worker threads; <= 0 means hardware_concurrency. */
    int jobs = 0;
    /** Lower bound on items per chunk (1 where one item is a whole
     *  program run or trial: system and multi-fault campaigns). */
    std::size_t minGrain = 8;
    /**
     * Period of the stderr progress report; zero disables it (the
     * tracker still counts, it just never prints).
     */
    std::chrono::milliseconds progressInterval{0};
    /**
     * When set (and progressInterval > 0), snapshots go to this
     * callback instead of the default stderr line — the server layer
     * streams them to subscribed clients.
     */
    ProgressTracker::Callback progressCallback;
};

class CampaignEngine
{
  public:
    explicit CampaignEngine(const EngineOptions &opts = {});

    int jobs() const { return jobs_; }
    ProgressTracker &progress() { return progress_; }

    /**
     * The one in-process plan of [0, n): planShards over the workers
     * (four chunks per worker, equal counts, at least minGrain items
     * each); at one worker the whole range as one chunk.
     */
    std::vector<Chunk>
    chunks(std::size_t n) const
    {
        return pool_ ? planShards(n, jobs_, kChunksPerWorker, opts_.minGrain)
                     : wholeRange(n);
    }

    /**
     * Run @p fn(chunk, chunkIndex) over chunks(n) and return the
     * per-chunk results in chunk-index order. With one worker the
     * whole range is a single chunk run on the calling thread, and
     * its exception propagates directly; otherwise the first chunk
     * exception rethrows here once every chunk has finished.
     */
    template <typename R, typename Fn>
    std::vector<R>
    mapChunks(std::size_t n, Fn fn)
    {
        return collect<R>(chunks(n), fn);
    }

    /**
     * Run @p fn(chunk, chunkIndex) over @p chunks on the workers and
     * call @p commit(chunk, chunkIndex, R&&) on the calling thread, in
     * chunk order, once that chunk and all before it are done. The
     * first exception (from a chunk or a commit) stops the commits
     * and rethrows once every chunk has finished, as the closures
     * reference the caller's frame. At one worker fn and commit run
     * inline, chunk by chunk, and an exception propagates at once.
     */
    template <typename Fn, typename Commit>
    void
    streamChunks(const std::vector<Chunk> &chunks, Fn fn, Commit commit)
    {
        using R = std::invoke_result_t<Fn &, Chunk, std::size_t>;
        if (!pool_) {
            for (std::size_t c = 0; c < chunks.size(); ++c)
                commit(chunks[c], c, fn(chunks[c], c));
            return;
        }
        std::vector<std::future<R>> futures;
        futures.reserve(chunks.size());
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const Chunk chunk = chunks[c];
            futures.push_back(
                pool_->submit([&fn, chunk, c]() { return fn(chunk, c); }));
        }
        std::exception_ptr error;
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            try {
                R r = futures[c].get();
                if (!error)
                    commit(chunks[c], c, std::move(r));
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
    }

    /** Start/stop the periodic reporter per opts_.progressInterval. */
    void beginCampaign(std::uint64_t total_units);
    CampaignStats endCampaign(std::uint64_t total_faults,
                              std::uint64_t simulated_faults,
                              std::uint64_t patterns_applied);

  private:
    /** Queue chunks per worker (oversubscription for balance). */
    static constexpr int kChunksPerWorker = 4;

    static std::vector<Chunk>
    wholeRange(std::size_t n)
    {
        return n ? std::vector<Chunk>{{0, n}} : std::vector<Chunk>{};
    }

    /** streamChunks() with a commit that appends each result. */
    template <typename R, typename Fn>
    std::vector<R>
    collect(const std::vector<Chunk> &chunks, Fn fn)
    {
        std::vector<R> results;
        results.reserve(chunks.size());
        streamChunks(chunks, std::move(fn),
                     [&](Chunk, std::size_t, auto &&r) {
                         results.emplace_back(std::move(r));
                     });
        return results;
    }

    EngineOptions opts_;
    int jobs_;
    /** Null at one worker: chunks then run on the calling thread. */
    std::unique_ptr<ThreadPool> pool_;
    ProgressTracker progress_;
};

} // namespace scal::engine

#endif // SCAL_ENGINE_CAMPAIGN_ENGINE_HH
