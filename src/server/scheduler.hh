/**
 * @file
 * The campaign daemon's job scheduler: a bounded queue of campaign
 * jobs executed on a small pool of worker threads, with
 *
 *  - admission control: at most maxQueued jobs waiting; submits
 *    beyond that are rejected with `backpressure` instead of letting
 *    one client exhaust daemon memory;
 *  - per-client fair share: the next job to run comes from the client
 *    with the least work served so far (weighted by cost estimates),
 *    so a flooding client cannot starve a light one; within a client,
 *    higher priority first, then FIFO;
 *  - content-addressed caching: a submit whose (netlist hash, config
 *    key) is already cached completes instantly with the cached
 *    verdict — bit-identical to a fresh run by the engine's
 *    determinism contract;
 *  - cooperative cancellation: every running job carries an
 *    engine::CancelToken polled per fault by the campaign kernels;
 *  - progress streaming: subscribers get JSONL event objects for
 *    periodic engine snapshots and exactly one terminal event.
 *
 * Job lifecycle: Queued -> Running -> Done | Failed | Cancelled
 * (cache hits and queue-stage cancels jump straight to the terminal
 * state).
 */

#ifndef SCAL_SERVER_SCHEDULER_HH
#define SCAL_SERVER_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/cancel.hh"
#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "netlist/netlist.hh"
#include "server/cache.hh"
#include "server/jsonl.hh"
#include "system/campaign.hh"

namespace scal::server
{

enum class JobState
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

const char *jobStateName(JobState s);

/** A fully-resolved campaign request (built by the protocol layer). */
struct JobConfig
{
    std::string client = "anonymous";
    int priority = 0;
    std::string kind; ///< "comb" | "seq" | "system"

    netlist::Netlist net;       ///< comb/seq circuit (dropped at the end)
    std::uint64_t netHash = 0;  ///< netlist::contentHash(net)
    std::string configKey;      ///< canonical config encoding

    fault::CampaignOptions copts;     ///< kind == comb
    fault::SeqCampaignOptions sopts;  ///< kind == seq
    fault::SeqCampaignSpec spec;      ///< kind == seq
    /**
     * Worker processes for this job: > 1 routes a comb/seq campaign
     * through the shard orchestrator (when Options::shardExec is
     * configured) instead of running inline. Verdict-neutral — the
     * merged result is byte-identical — so it is not part of
     * configKey and cached verdicts are shared across shard counts.
     */
    int shards = 0;
    scal::system::Workload workload;  ///< kind == system
    scal::system::AluOp aluOp = scal::system::AluOp::Add;
    bool checkedCpu = true;           ///< system: SCAL vs unprotected

    /** Fair-share weight of this job (arbitrary units, >= 1). */
    std::uint64_t costEstimate = 1;
};

/** Externally visible job record. */
struct JobInfo
{
    std::uint64_t id = 0;
    std::string client;
    std::string kind;
    int priority = 0;
    JobState state = JobState::Queued;
    bool cacheHit = false;
    std::string error;   ///< Failed: what went wrong
    std::string verdict; ///< Done: deterministic verdict JSON
    std::string tail;    ///< Done: non-deterministic tail fields
};

struct SubmitOutcome
{
    bool accepted = false;
    bool cacheHit = false;
    std::uint64_t id = 0;
    std::string reason; ///< "backpressure" when rejected
};

struct SchedulerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0; ///< backpressure rejections
    std::size_t queued = 0;
    std::size_t running = 0;
};

class Scheduler
{
  public:
    struct Options
    {
        /** Concurrent campaigns (worker threads). */
        int maxInflight = 2;
        /** Admission bound on the wait queue. */
        std::size_t maxQueued = 64;
        /** Engine threads per campaign (0 = hardware_concurrency). */
        int jobsPerCampaign = 0;
        /** Progress-event period; zero disables progress events. */
        std::chrono::milliseconds progressInterval{0};
        CacheOptions cache;
        /**
         * scal_cli binary for multi-process (sharded) big jobs; empty
         * disables the orchestrated path and such jobs run inline.
         */
        std::string shardExec;
        /** Scratch root for orchestrated jobs' circuit / partial /
         *  checkpoint files (one subdirectory per job). */
        std::string shardWorkDir = "/tmp";
        /** Checkpoint cadence (fault classes) for orchestrated
         *  workers; negative = automatic (~16 snapshots/shard). */
        int shardCheckpointEvery = -1;
    };

    /** Receives ready-to-serialize JSONL event objects. */
    using EventFn = std::function<void(const jsonl::Value &)>;

    explicit Scheduler(Options opts);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    SubmitOutcome submit(JobConfig cfg);

    /** Request cancellation; false when the id is unknown. */
    bool cancel(std::uint64_t id);

    bool info(std::uint64_t id, JobInfo *out) const;
    std::vector<JobInfo> list() const;

    /** Block until the job is terminal; false when unknown. */
    bool wait(std::uint64_t id, JobInfo *out);

    /**
     * Stream this job's events to @p fn: progress snapshots while it
     * runs, then exactly one terminal event ("done"/"failed"/
     * "cancelled"), after which @p fn is released. A job already
     * terminal gets its terminal event synthesized immediately. False
     * when the id is unknown.
     */
    bool subscribe(std::uint64_t id, EventFn fn);

    CacheStats cacheStats() const { return cache_.stats(); }
    SchedulerStats stats() const;

    /**
     * Job records that still hold a netlist. Only queued and running
     * comb and seq jobs keep one: a cache hit never stores it, and a
     * job drops it when it ends, so a long-running daemon does not
     * grow by one netlist per request.
     */
    std::size_t heldNetlists() const;

    /** Cancel everything and join the workers (idempotent). */
    void stop();

  private:
    struct Job
    {
        std::uint64_t id = 0;
        JobConfig cfg;
        JobState state = JobState::Queued;
        bool cacheHit = false;
        std::string error;
        std::string verdict;
        std::string tail;
        std::shared_ptr<engine::CancelToken> cancel;
        std::vector<EventFn> subscribers;
    };

    static JobInfo infoOf(const Job &job);
    static jsonl::Value terminalEvent(const Job &job);

    void workerLoop();
    std::shared_ptr<Job> pickNextLocked();
    void runJob(const std::shared_ptr<Job> &job);
    /** The shards > 1 path: fork scal_cli workers over the shards via
     *  the engine orchestrator, merge their partials, encode the
     *  verdict/tail. Throws engine::CampaignCancelled / runtime_error
     *  like the inline runners. */
    void runOrchestratedJob(const std::shared_ptr<Job> &job,
                            std::string *verdict, std::string *tail);
    void finishJob(const std::shared_ptr<Job> &job, JobState state,
                   std::string verdict, std::string tail,
                   std::string error);
    void emitProgress(std::uint64_t id,
                      const engine::ProgressSnapshot &snap);

    Options opts_;
    VerdictCache cache_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< queue / stop changes
    std::condition_variable doneCv_; ///< terminal-state changes
    bool stopping_ = false;
    std::uint64_t nextId_ = 1;
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
    std::vector<std::uint64_t> queue_; ///< ids awaiting a worker
    std::map<std::string, std::uint64_t> servedUnits_;
    SchedulerStats stats_;
    std::vector<std::thread> workers_;
};

} // namespace scal::server

#endif // SCAL_SERVER_SCHEDULER_HH
