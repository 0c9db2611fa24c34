#include "server/scheduler.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "engine/checkpoint.hh"
#include "engine/orchestrator.hh"
#include "fault/report.hh"
#include "fault/shard.hh"

namespace scal::server
{

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:    return "queued";
      case JobState::Running:   return "running";
      case JobState::Done:      return "done";
      case JobState::Failed:    return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

Scheduler::Scheduler(Options opts)
    : opts_(std::move(opts)), cache_(opts_.cache)
{
    if (opts_.maxInflight < 1)
        opts_.maxInflight = 1;
    workers_.reserve(static_cast<std::size_t>(opts_.maxInflight));
    for (int i = 0; i < opts_.maxInflight; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler()
{
    stop();
}

JobInfo
Scheduler::infoOf(const Job &job)
{
    JobInfo out;
    out.id = job.id;
    out.client = job.cfg.client;
    out.kind = job.cfg.kind;
    out.priority = job.cfg.priority;
    out.state = job.state;
    out.cacheHit = job.cacheHit;
    out.error = job.error;
    out.verdict = job.verdict;
    out.tail = job.tail;
    return out;
}

jsonl::Value
Scheduler::terminalEvent(const Job &job)
{
    jsonl::Object ev;
    ev.emplace_back("event", jsonl::Value("terminal"));
    ev.emplace_back("job", jsonl::Value(job.id));
    ev.emplace_back("state", jsonl::Value(jobStateName(job.state)));
    ev.emplace_back("cache_hit", jsonl::Value(job.cacheHit));
    if (!job.error.empty())
        ev.emplace_back("error", jsonl::Value(job.error));
    return jsonl::Value(std::move(ev));
}

SubmitOutcome
Scheduler::submit(JobConfig cfg)
{
    SubmitOutcome out;
    const std::string key = VerdictCache::key(cfg.netHash, cfg.configKey);

    CachedVerdict hit;
    const bool cached = cache_.lookup(key, &hit);
    if (cached)
        cfg.net = netlist::Netlist(); // nothing will run on it

    std::vector<EventFn> subs; // always empty here; kept for symmetry
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            out.reason = "shutting down";
            ++stats_.rejected;
            return out;
        }
        if (!cached && queue_.size() >= opts_.maxQueued) {
            out.reason = "backpressure";
            ++stats_.rejected;
            return out;
        }
        auto job = std::make_shared<Job>();
        job->id = nextId_++;
        job->cfg = std::move(cfg);
        ++stats_.submitted;
        if (cached) {
            job->state = JobState::Done;
            job->cacheHit = true;
            job->verdict = std::move(hit.verdict);
            job->tail = std::move(hit.tail);
            ++stats_.completed;
        } else {
            job->cancel = std::make_shared<engine::CancelToken>();
            queue_.push_back(job->id);
        }
        jobs_[job->id] = job;
        out.accepted = true;
        out.cacheHit = cached;
        out.id = job->id;
    }
    if (cached)
        doneCv_.notify_all();
    else
        workCv_.notify_one();
    return out;
}

bool
Scheduler::cancel(std::uint64_t id)
{
    std::shared_ptr<Job> terminal;
    std::vector<EventFn> subs;
    netlist::Netlist spent; // freed outside the lock
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = *it->second;
        switch (job.state) {
          case JobState::Queued: {
            const auto qit =
                std::find(queue_.begin(), queue_.end(), id);
            if (qit != queue_.end())
                queue_.erase(qit);
            std::swap(spent, job.cfg.net);
            job.state = JobState::Cancelled;
            ++stats_.cancelled;
            subs = std::move(job.subscribers);
            job.subscribers.clear();
            terminal = it->second;
            break;
          }
          case JobState::Running:
            job.cancel->requestStop();
            break;
          default:
            break; // already terminal: cancel is a no-op success
        }
    }
    if (terminal) {
        doneCv_.notify_all();
        const jsonl::Value ev = terminalEvent(*terminal);
        for (const EventFn &fn : subs)
            fn(ev);
    }
    return true;
}

bool
Scheduler::info(std::uint64_t id, JobInfo *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    *out = infoOf(*it->second);
    return true;
}

std::vector<JobInfo>
Scheduler::list() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobInfo> out;
    out.reserve(jobs_.size());
    for (const auto &kv : jobs_)
        out.push_back(infoOf(*kv.second));
    return out;
}

bool
Scheduler::wait(std::uint64_t id, JobInfo *out)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    const std::shared_ptr<Job> job = it->second;
    doneCv_.wait(lock, [&] {
        return job->state != JobState::Queued &&
               job->state != JobState::Running;
    });
    *out = infoOf(*job);
    return true;
}

bool
Scheduler::subscribe(std::uint64_t id, EventFn fn)
{
    std::shared_ptr<Job> terminal;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = *it->second;
        if (job.state == JobState::Queued ||
            job.state == JobState::Running) {
            job.subscribers.push_back(std::move(fn));
            return true;
        }
        terminal = it->second;
    }
    fn(terminalEvent(*terminal));
    return true;
}

std::size_t
Scheduler::heldNetlists() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(
        std::count_if(jobs_.begin(), jobs_.end(), [](const auto &kv) {
            return kv.second->cfg.net.numGates() > 0;
        }));
}

SchedulerStats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SchedulerStats out = stats_;
    out.queued = queue_.size();
    std::size_t running = 0;
    for (const auto &kv : jobs_)
        if (kv.second->state == JobState::Running)
            ++running;
    out.running = running;
    return out;
}

void
Scheduler::stop()
{
    std::vector<std::pair<jsonl::Value, std::vector<EventFn>>> events;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_ && queue_.empty()) {
            // fallthrough to join below (idempotent)
        }
        stopping_ = true;
        for (const std::uint64_t id : queue_) {
            const auto it = jobs_.find(id);
            if (it == jobs_.end())
                continue;
            Job &job = *it->second;
            job.state = JobState::Cancelled;
            ++stats_.cancelled;
            events.emplace_back(terminalEvent(job),
                                std::move(job.subscribers));
            job.subscribers.clear();
        }
        queue_.clear();
        for (const auto &kv : jobs_)
            if (kv.second->state == JobState::Running)
                kv.second->cancel->requestStop();
    }
    workCv_.notify_all();
    doneCv_.notify_all();
    for (auto &ev : events)
        for (const EventFn &fn : ev.second)
            fn(ev.first);
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
}

/**
 * Fair-share pick: the queued job whose client has the smallest
 * served-units total; ties broken by priority (descending) then
 * submission order. Served units are charged when the job starts so
 * concurrent picks see each other's charges.
 */
std::shared_ptr<Scheduler::Job>
Scheduler::pickNextLocked()
{
    std::size_t best = queue_.size();
    std::uint64_t bestServed = 0;
    int bestPriority = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const auto it = jobs_.find(queue_[i]);
        if (it == jobs_.end())
            continue;
        const Job &job = *it->second;
        const std::uint64_t served = servedUnits_[job.cfg.client];
        if (best == queue_.size() || served < bestServed ||
            (served == bestServed &&
             job.cfg.priority > bestPriority)) {
            best = i;
            bestServed = served;
            bestPriority = job.cfg.priority;
        }
    }
    if (best == queue_.size())
        return nullptr;
    const std::uint64_t id = queue_[best];
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(best));
    const std::shared_ptr<Job> job = jobs_.at(id);
    job->state = JobState::Running;
    servedUnits_[job->cfg.client] +=
        std::max<std::uint64_t>(1, job->cfg.costEstimate);
    return job;
}

void
Scheduler::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock,
                         [&] { return stopping_ || !queue_.empty(); });
            if (stopping_)
                return;
            job = pickNextLocked();
        }
        if (job)
            runJob(job);
    }
}

void
Scheduler::emitProgress(std::uint64_t id,
                        const engine::ProgressSnapshot &snap)
{
    std::vector<EventFn> subs;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end() ||
            it->second->state != JobState::Running ||
            it->second->subscribers.empty())
            return;
        subs = it->second->subscribers; // copy: invoke outside the lock
    }
    jsonl::Object ev;
    ev.emplace_back("event", jsonl::Value("progress"));
    ev.emplace_back("job", jsonl::Value(id));
    ev.emplace_back("faults_done", jsonl::Value(snap.faultsDone));
    ev.emplace_back("faults_total", jsonl::Value(snap.faultsTotal));
    ev.emplace_back("patterns", jsonl::Value(snap.patternsApplied));
    ev.emplace_back("unsafe", jsonl::Value(snap.unsafeSoFar));
    ev.emplace_back("elapsed_s", jsonl::Value(snap.elapsedSeconds));
    const jsonl::Value event(std::move(ev));
    for (const EventFn &fn : subs)
        fn(event);
}

void
Scheduler::runJob(const std::shared_ptr<Job> &job)
{
    const std::uint64_t id = job->id;
    engine::ProgressTracker::Callback progressCb;
    if (opts_.progressInterval.count() > 0)
        progressCb = [this, id](const engine::ProgressSnapshot &snap) {
            emitProgress(id, snap);
        };

    std::string verdict, tail, error;
    JobState state = JobState::Done;
    const bool orchestrate =
        job->cfg.shards > 1 && !opts_.shardExec.empty() &&
        (job->cfg.kind == "comb" || job->cfg.kind == "seq");
    try {
        if (orchestrate) {
            runOrchestratedJob(job, &verdict, &tail);
        } else if (job->cfg.kind == "comb") {
            fault::CampaignOptions copts = job->cfg.copts;
            copts.jobs = opts_.jobsPerCampaign;
            copts.cancel = job->cancel.get();
            copts.progressInterval = opts_.progressInterval;
            copts.progressCallback = progressCb;
            const fault::CampaignResult res =
                fault::runAlternatingCampaign(job->cfg.net, copts);
            verdict = fault::campaignVerdictJson(job->cfg.net, res);
            tail = fault::campaignTailJson(res);
        } else if (job->cfg.kind == "seq") {
            fault::SeqCampaignOptions sopts = job->cfg.sopts;
            sopts.jobs = opts_.jobsPerCampaign;
            sopts.cancel = job->cancel.get();
            sopts.progressInterval = opts_.progressInterval;
            sopts.progressCallback = progressCb;
            const fault::SeqCampaignResult res =
                fault::runSequentialCampaign(job->cfg.net,
                                             job->cfg.spec, sopts);
            verdict = fault::seqCampaignVerdictJson(job->cfg.net, res);
            tail = fault::seqCampaignTailJson(res);
        } else if (job->cfg.kind == "system") {
            scal::system::SystemCampaignOptions sysopts;
            sysopts.jobs = opts_.jobsPerCampaign;
            sysopts.cancel = job->cancel.get();
            verdict = scal::system::systemResultJson(
                scal::system::runSystemCampaign(
                    job->cfg.workload, job->cfg.aluOp,
                    job->cfg.checkedCpu, sysopts));
        } else {
            throw std::runtime_error("unknown job kind: " +
                                     job->cfg.kind);
        }
    } catch (const engine::CampaignCancelled &) {
        state = JobState::Cancelled;
    } catch (const std::exception &e) {
        state = JobState::Failed;
        error = e.what();
    }

    if (state == JobState::Done) {
        CachedVerdict entry;
        entry.kind = job->cfg.kind;
        entry.verdict = verdict;
        entry.tail = tail;
        cache_.insert(
            VerdictCache::key(job->cfg.netHash, job->cfg.configKey),
            std::move(entry));
    }
    // The campaign has returned, so its progress reporter thread is
    // already stopped: no progress event can follow the terminal one.
    finishJob(job, state, std::move(verdict), std::move(tail),
              std::move(error));
}

void
Scheduler::runOrchestratedJob(const std::shared_ptr<Job> &job,
                              std::string *verdict, std::string *tail)
{
    namespace fs = std::filesystem;
    const JobConfig &cfg = job->cfg;
    const fs::path dir = fs::path(opts_.shardWorkDir) /
                         ("scal-job-" + std::to_string(job->id));

    // Workers re-parse these flags into the identical canonical
    // config (fault::*WorkerArgs contract), so their partials merge
    // into the same cache entry an inline run would fill.
    std::vector<std::string> flags;
    if (cfg.kind == "comb") {
        fault::CampaignOptions o = cfg.copts;
        o.jobs = opts_.jobsPerCampaign;
        flags = fault::campaignWorkerArgs(o);
    } else {
        fault::SeqCampaignOptions o = cfg.sopts;
        o.jobs = opts_.jobsPerCampaign;
        flags = fault::seqCampaignWorkerArgs(o, cfg.spec);
    }
    const fault::ShardWorkers fleet = fault::stageShardWorkers(
        cfg.net, cfg.kind, flags, opts_.shardExec, dir.string(),
        cfg.shards, opts_.shardCheckpointEvery);
    const std::vector<std::string> &partials = fleet.partials;

    engine::OrchestratorOptions oo;
    oo.cancel = job->cancel.get();
    const engine::OrchestratorResult orch =
        engine::runShardWorkers(fleet.workers, oo);
    if (orch.cancelled)
        throw engine::CampaignCancelled();
    if (!orch.ok)
        throw std::runtime_error("orchestrated job failed: " +
                                 orch.error);

    std::vector<std::vector<std::uint8_t>> bytes;
    bytes.reserve(partials.size());
    for (const std::string &p : partials)
        bytes.push_back(engine::readSnapshotFile(p));
    if (cfg.kind == "comb") {
        const fault::CampaignResult res =
            fault::mergeCampaignPartials(cfg.net, bytes, partials);
        *verdict = fault::campaignVerdictJson(cfg.net, res);
        *tail = fault::campaignTailJson(res);
    } else {
        const fault::SeqCampaignResult res =
            fault::mergeSeqCampaignPartials(cfg.net, bytes, partials);
        *verdict = fault::seqCampaignVerdictJson(cfg.net, res);
        *tail = fault::seqCampaignTailJson(res);
    }
    std::error_code ec;
    fs::remove_all(dir, ec); // best-effort scratch cleanup
}

void
Scheduler::finishJob(const std::shared_ptr<Job> &job, JobState state,
                     std::string verdict, std::string tail,
                     std::string error)
{
    std::vector<EventFn> subs;
    netlist::Netlist spent; // freed outside the lock
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Nothing reads the netlist once the campaign has returned.
        std::swap(spent, job->cfg.net);
        job->state = state;
        job->verdict = std::move(verdict);
        job->tail = std::move(tail);
        job->error = std::move(error);
        switch (state) {
          case JobState::Done:      ++stats_.completed; break;
          case JobState::Failed:    ++stats_.failed; break;
          case JobState::Cancelled: ++stats_.cancelled; break;
          default: break;
        }
        subs = std::move(job->subscribers);
        job->subscribers.clear();
    }
    doneCv_.notify_all();
    const jsonl::Value ev = terminalEvent(*job);
    for (const EventFn &fn : subs)
        fn(ev);
}

} // namespace scal::server
