/**
 * @file
 * daemon_mixed: an in-process server::Server (scheduler maxInflight
 * 2, one engine thread per campaign) driven closed-loop by
 * min(4, nproc) client connections. Each pass starts a fresh daemon
 * (untimed), so its verdict cache starts empty, and runs a seeded
 * request list: 12 cold jobs — 4 each of hardened c432 and c880
 * (2,048 patterns) and hardened s298 (32 symbols), every one with a
 * distinct campaign seed — dealt to the connections, plus one warm
 * repeat per cold job of a request that connection already completed,
 * so exactly half the jobs are cache hits. Queue wait, the JSONL
 * protocol, the inline-circuit re-import + contentHash and the cache
 * lookup all sit on the blocking path here.
 */

#include <algorithm>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "fault/collapse.hh"
#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/io.hh"
#include "server/cache.hh"
#include "server/client.hh"
#include "server/jsonl.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "sim/flat.hh"
#include "stats.hh"
#include "workload.hh"

using namespace scal;
using server::jsonl::Object;
using server::jsonl::Value;

namespace perfbench
{

namespace
{

using trace::Span;

constexpr int kCircuits = 3;      ///< c432, c880, s298
constexpr int kColdPerCircuit = 4;

struct Request
{
    int circuit = 0;        ///< 0, 1 comb; 2 seq
    std::uint64_t seed = 0; ///< campaign seed
    bool warm = false;
};

struct Sample
{
    bool warm = false;
    double latency = 0, ack = 0, wait = 0;
    double engine = 0; ///< cold: the tail's elapsed_seconds
    double work = 0;   ///< cold: faults x patterns (or x lanes x symbols)
};

std::string
circuitName(int c)
{
    return stem(c < 2 ? kDaemonComb[c] : kDaemonSeq);
}

std::string
goldenKey(const Request &q)
{
    return q.circuit < 2
               ? combKey(circuitName(q.circuit), kDaemonPatterns, q.seed)
               : seqKey(circuitName(q.circuit), kDaemonSymbols, q.seed);
}

double
num(const Value &obj, const char *key)
{
    const Value *v = obj.find(key);
    return v ? v->asDouble() : 0;
}

/** Rebuild the golden counter string from a daemon verdict + tail. */
std::string
countersOf(bool comb, const Value &verdict, const Value &tail)
{
    if (comb) {
        fault::CampaignResult r;
        r.numDetected = static_cast<int>(num(verdict, "detected"));
        r.numUnsafe = static_cast<int>(num(verdict, "unsafe"));
        r.numUntestable = static_cast<int>(num(verdict, "untestable"));
        const Value *fp = tail.find("fault_parallel");
        if (fp) {
            r.fp.classes = static_cast<int>(num(*fp, "classes"));
            r.fp.prunedClasses = static_cast<int>(num(*fp, "pruned_classes"));
            r.fp.flipClasses = static_cast<int>(num(*fp, "flip_classes"));
            r.fp.cptClasses = static_cast<int>(num(*fp, "cpt_classes"));
            r.fp.tapClasses = static_cast<int>(num(*fp, "tap_classes"));
            r.fp.simClasses = static_cast<int>(num(*fp, "sim_classes"));
            r.fp.batches = static_cast<std::uint64_t>(num(*fp, "batches"));
        }
        return combCounters(r);
    }
    fault::SeqCampaignResult r;
    r.numDetected = static_cast<int>(num(verdict, "detected"));
    r.numUnsafe = static_cast<int>(num(verdict, "unsafe"));
    r.numUntestable = static_cast<int>(num(verdict, "untestable"));
    r.periodsSimulated = static_cast<long>(num(tail, "periods_simulated"));
    r.periodsSkipped = static_cast<long>(num(tail, "periods_skipped"));
    r.prunedClasses = static_cast<int>(num(tail, "pruned_classes"));
    if (const Value *sp = tail.find("seq_fault_parallel")) {
        r.classes = static_cast<int>(num(*sp, "classes"));
        r.batchedClasses = static_cast<int>(num(*sp, "batched_classes"));
        r.batches = static_cast<int>(num(*sp, "batches"));
        r.retiredEarly = static_cast<long>(num(*sp, "retired_early"));
    }
    return seqCounters(r);
}

class DaemonMixed : public Workload
{
  public:
    DaemonMixed(const RunConfig &cfg, const Golden &golden, Outcome &out)
        : cfg_(cfg), golden_(golden), out_(out)
    {
    }

    ~DaemonMixed() override { stopDaemon(); }

    void
    setUp() override
    {
        texts_.clear();
        nets_.clear();
        double harden = 0;
        for (int c = 0; c < kCircuits; ++c) {
            const std::string file = c < 2 ? kDaemonComb[c] : kDaemonSeq;
            const auto circ =
                ingest::importCircuit(cfg_.root + "/circuits/" + file);
            const auto t0 = trace::Clock::now();
            nets_.push_back(ingest::hardenNetlist(circ.net).net);
            harden += since(t0);
            texts_.push_back(netlist::writeNetlistToString(nets_.back()));
        }
        hardenSecs_.push_back(harden);
        // Start the daemon and warm it up with one cold and one warm
        // request; each pass then runs against a fresh daemon.
        startDaemon(0);
        const Request q{0, 1, false};
        clients_[0]->submitAndWait(submitLine(q, "warmup"));
        clients_[0]->submitAndWait(submitLine(q, "warmup"));
        stopDaemon();
    }

    void beforePass(int pass) override { startDaemon(pass); }

    void
    afterPass(int) override
    {
        const server::CacheStats cs = srv_->scheduler().cacheStats();
        const server::SchedulerStats ss = srv_->scheduler().stats();
        cacheHits_ += static_cast<double>(cs.hits);
        cacheLookups_ += static_cast<double>(cs.hits + cs.misses);
        rejected_ += static_cast<double>(ss.rejected);
        failedJobs_ += static_cast<double>(ss.failed);
        stopDaemon();
    }

    void
    pass(trace::Recorder *rec) override
    {
        const std::vector<std::vector<Request>> plan = planPass(passIndex_);
        std::vector<std::vector<Sample>> samples(plan.size());
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < plan.size(); ++k)
            threads.emplace_back([&, k] {
                for (const Request &q : plan[k])
                    serve(*clients_[k], q, rec, samples[k]);
            });
        for (std::thread &t : threads)
            t.join();
        std::vector<Sample> all;
        for (const auto &v : samples)
            all.insert(all.end(), v.begin(), v.end());
        double engine = 0, outside = 0;
        for (const Sample &s : all)
            if (!s.warm) {
                engine += s.engine;
                outside += s.latency - s.engine;
            }
        if (rec) {
            rec->add("fault.engine", engine);
            rec->add("fault.fixed", outside);
            traced_.insert(traced_.end(), all.begin(), all.end());
        } else {
            untraced_.insert(untraced_.end(), all.begin(), all.end());
            double w = 0;
            for (const Sample &s : all)
                w += s.work;
            work_ = w;
            jobsPerPass_.push_back(static_cast<double>(all.size()));
        }
    }

    double workPerPass() const override { return work_; }
    int parallelism() const override { return 2; }

    void probe(trace::Recorder &rec) override;

    void finish(const std::vector<double> &passes, const trace::Recorder *rec,
                Report &r) override;

  private:
    /** The seeded request list of one pass, per connection. */
    std::vector<std::vector<Request>>
    planPass(int pass) const
    {
        std::uint64_t s = mix64(cfg_.seed * 0x9e37 + static_cast<std::uint64_t>(pass));
        auto draw = [&](std::uint64_t bound) {
            s = mix64(s);
            return s % bound;
        };
        std::vector<Request> cold;
        for (int c = 0; c < kCircuits; ++c) {
            std::vector<std::uint64_t> pool;
            for (std::uint64_t v = 1; v <= kSeedPool; ++v)
                pool.push_back(v);
            for (std::size_t i = pool.size(); i > 1; --i)
                std::swap(pool[i - 1], pool[draw(i)]);
            for (int j = 0; j < kColdPerCircuit; ++j)
                cold.push_back({c, pool[static_cast<std::size_t>(j)], false});
        }
        for (std::size_t i = cold.size(); i > 1; --i)
            std::swap(cold[i - 1], cold[draw(i)]);
        const std::size_t conns = clients_.empty()
                                      ? static_cast<std::size_t>(cfg_.threads)
                                      : clients_.size();
        std::vector<std::vector<Request>> plan(conns);
        for (std::size_t k = 0; k < conns; ++k) {
            std::vector<Request> mine;
            for (std::size_t i = k; i < cold.size(); i += conns)
                mine.push_back(cold[i]);
            // Interleave: a warm repeat may only follow a completed
            // cold job of this connection; one warm per cold.
            std::size_t nextCold = 0, warmLeft = mine.size();
            std::vector<Request> done;
            while (nextCold < mine.size() || warmLeft) {
                const bool takeCold =
                    nextCold < mine.size() &&
                    (done.empty() || warmLeft == 0 || draw(2) == 0);
                if (takeCold) {
                    done.push_back(mine[nextCold]);
                    plan[k].push_back(mine[nextCold++]);
                } else {
                    Request w = done[draw(done.size())];
                    w.warm = true;
                    plan[k].push_back(w);
                    --warmLeft;
                }
            }
        }
        return plan;
    }

    Value
    submitLine(const Request &q, const std::string &client) const
    {
        Object cfg;
        if (q.circuit < 2)
            cfg.emplace_back("max_patterns", Value(kDaemonPatterns));
        else
            cfg.emplace_back("symbols", Value(kDaemonSymbols));
        cfg.emplace_back("seed", Value(q.seed));
        Object req;
        req.emplace_back("op", Value("submit"));
        req.emplace_back("kind", Value(q.circuit < 2 ? "comb" : "seq"));
        req.emplace_back("client", Value(client));
        req.emplace_back("circuit",
                         Value(texts_[static_cast<std::size_t>(q.circuit)]));
        req.emplace_back("format", Value("scal"));
        req.emplace_back("config", Value(std::move(cfg)));
        return Value(std::move(req));
    }

    void
    serve(server::Client &client, const Request &q, trace::Recorder *rec,
          std::vector<Sample> &out)
    {
        out_.attempt();
        const std::string key = goldenKey(q);
        try {
            Span req(rec, q.warm ? "server.request.warm" : "server.request.cold",
                     "server");
            const auto t0 = trace::Clock::now();
            Value ack;
            {
                Span s(rec, "server.submit", "server");
                ack = client.request(submitLine(q, "bench"));
            }
            const auto t1 = trace::Clock::now();
            const Value *ok = ack.find("ok");
            if (!ok || !ok->asBool()) {
                out_.fail(key + ": submit refused: " + ack.dump());
                return;
            }
            Object get;
            get.emplace_back("op", Value("result"));
            get.emplace_back("id", *ack.find("id"));
            Value res;
            {
                Span s(rec, "server.result", "server");
                res = client.request(Value(std::move(get)));
            }
            const auto t2 = trace::Clock::now();
            const Value *state = res.find("state");
            const Value *hit = res.find("cache_hit");
            if (!state || state->asString() != "done") {
                out_.fail(key + ": job ended " + res.dump());
                return;
            }
            if (!hit || hit->asBool() != q.warm) {
                out_.fail(key + (q.warm ? ": warm repeat missed the cache"
                                        : ": cold job hit the cache"));
                return;
            }
            const std::string verdictText = res.find("verdict")->asString();
            const Value verdict = server::jsonl::parse(verdictText);
            const Value tail =
                server::jsonl::parse("{" + res.find("tail")->asString() + "}");
            const std::string bad =
                golden_.check(key, verdictDigest(verdictText), 1,
                              countersOf(q.circuit < 2, verdict, tail));
            if (!bad.empty()) {
                out_.fail(bad);
                return;
            }
            Sample smp;
            smp.warm = q.warm;
            smp.ack = std::chrono::duration<double>(t1 - t0).count();
            smp.wait = std::chrono::duration<double>(t2 - t1).count();
            smp.latency = smp.ack + smp.wait;
            if (!q.warm) {
                const Value *stats = tail.find("stats");
                smp.engine = stats ? num(*stats, "elapsed_seconds") : 0;
                smp.work = num(verdict, "faults") *
                           (q.circuit < 2 ? num(verdict, "patterns_applied")
                                          : num(verdict, "symbols") *
                                                num(verdict, "lanes"));
            }
            out.push_back(smp);
        } catch (const std::exception &e) {
            out_.fail(key + ": " + e.what());
        }
    }

    void
    startDaemon(int pass)
    {
        passIndex_ = pass;
        std::filesystem::create_directories(cfg_.outDir);
        server::Server::Options o;
        o.socketPath = cfg_.outDir + "/d" + std::to_string(::getpid()) + ".sock";
        o.scheduler.maxInflight = 2;
        o.scheduler.jobsPerCampaign = 1;
        srv_ = std::make_unique<server::Server>(std::move(o));
        srv_->start();
        for (int k = 0; k < cfg_.threads; ++k)
            clients_.push_back(
                std::make_unique<server::Client>(srv_->socketPath()));
    }

    void
    stopDaemon()
    {
        clients_.clear();
        if (srv_) {
            srv_->stop();
            srv_.reset();
        }
    }

    const RunConfig &cfg_;
    const Golden &golden_;
    Outcome &out_;
    std::vector<netlist::Netlist> nets_;
    std::vector<std::string> texts_;
    std::vector<double> hardenSecs_;
    std::unique_ptr<server::Server> srv_;
    std::vector<std::unique_ptr<server::Client>> clients_;
    int passIndex_ = 0;
    std::vector<Sample> untraced_, traced_;
    std::vector<double> jobsPerPass_;
    double cacheHits_ = 0, cacheLookups_ = 0, rejected_ = 0, failedJobs_ = 0;
    double work_ = 0;
};

void
DaemonMixed::probe(trace::Recorder &rec)
{
    // Replay one pass's submits layer by layer on the benchmark
    // thread: the server-side import, hash, config build, JSONL
    // framing and cache lookup of every request, and for the cold
    // jobs the compile, collapse, campaign and encode.
    const auto plan = planPass(0);
    server::VerdictCache cache;
    std::vector<std::string> keys;
    for (const auto &conn : plan)
        for (const Request &q : conn) {
            Span item(&rec, "probe:request", trace::kBench);
            const Value line = submitLine(q, "probe");
            std::string wire;
            {
                Span s(&rec, "server.jsonl.dump", "server");
                wire = line.dump();
            }
            Value parsed;
            {
                Span s(&rec, "server.jsonl.parse", "server");
                parsed = server::jsonl::parse(wire);
            }
            {
                Span s(&rec, "ingest.parse", "ingest");
                ingest::importCircuitFromString(
                    texts_[static_cast<std::size_t>(q.circuit)],
                    ingest::Format::Scal);
            }
            {
                Span s(&rec, "netlist.content_hash", "netlist");
                netlist::contentHash(nets_[static_cast<std::size_t>(q.circuit)]);
            }
            server::JobConfig job;
            {
                Span s(&rec, "server.protocol.build_job", "server");
                job = server::buildJobConfig(parsed);
            }
            const std::string key =
                server::VerdictCache::key(job.netHash, job.configKey);
            if (q.warm) {
                keys.push_back(key);
                continue;
            }
            {
                Span s(&rec, "sim.flat_compile", "sim");
                sim::FlatNetlist flat(job.net);
            }
            std::string verdict;
            if (q.circuit < 2) {
                {
                    Span s(&rec, "fault.collapse", "fault");
                    fault::CollapseOptions co;
                    co.constRefine = co.dominance = true;
                    fault::collapseFaults(job.net, co);
                }
                job.copts.jobs = 1;
                const auto res = fault::runAlternatingCampaign(job.net, job.copts);
                rec.add("fault.classes", res.fp.classes);
                Span s(&rec, "fault.report.encode", "fault");
                verdict = fault::campaignVerdictJson(job.net, res);
                fault::campaignTailJson(res);
            } else {
                {
                    Span s(&rec, "fault.collapse", "fault");
                    fault::CollapseOptions co;
                    co.constRefine = co.dominance = true;
                    fault::collapseFaults(job.net, co);
                }
                job.sopts.jobs = 1;
                const auto res =
                    fault::runSequentialCampaign(job.net, job.spec, job.sopts);
                rec.add("fault.classes", res.classes);
                Span s(&rec, "fault.report.encode", "fault");
                verdict = fault::seqCampaignVerdictJson(job.net, res);
                fault::seqCampaignTailJson(res);
            }
            if (golden_.check(goldenKey(q), verdictDigest(verdict), -1, "") != "")
                out_.fail(goldenKey(q) + ": inline replay disagrees");
            cache.insert(key, {job.kind, verdict, ""});
            keys.push_back(key);
        }
    {
        Span s(&rec, "probe:serialize", trace::kBench);
        for (const netlist::Netlist &net : nets_) {
            Span t(&rec, "netlist.serialize", "netlist");
            netlist::writeNetlistToString(net);
        }
    }
    constexpr int kLookupRounds = 200;
    for (int round = 0; round < kLookupRounds; ++round) {
        server::CachedVerdict v;
        const auto t0 = trace::Clock::now();
        for (const std::string &k : keys)
            cache.lookup(k, &v);
        rec.add("server.cache.lookup", since(t0) / kLookupRounds);
    }
    rec.add("probe.requests", static_cast<double>(keys.size()));
}

void
DaemonMixed::finish(const std::vector<double> &passes,
                    const trace::Recorder *rec, Report &r)
{
    auto pick = [](const std::vector<Sample> &v, bool warm, auto field) {
        std::vector<double> out;
        for (const Sample &s : v)
            if (s.warm == warm)
                out.push_back(field(s) * 1e3);
        return out;
    };
    auto lat = [](const Sample &s) { return s.latency; };
    auto tailMetric = [&](const char *name, const std::vector<double> &v) {
        const Tail t = tail(v);
        r.endToEnd.push_back({name, t.value, "ms"});
        char note[160];
        std::snprintf(note, sizeof note,
                      "  %s is p%.2f of %zu samples (>= %zu beyond)", name,
                      t.percentile, t.samples, kTailBeyond);
        r.notes.push_back(note);
    };
    double passSum = 0, jobs = 0;
    for (std::size_t i = 0; i < passes.size() && i < jobsPerPass_.size(); ++i) {
        passSum += passes[i];
        jobs += jobsPerPass_[i];
    }
    r.endToEnd.push_back({"jobs_per_s", passSum > 0 ? jobs / passSum : 0, "1/s"});
    const auto cold = pick(untraced_, false, lat);
    const auto warm = pick(untraced_, true, lat);
    r.endToEnd.push_back({"cold_p50_ms", median(cold), "ms"});
    tailMetric("cold_tail_ms", cold);
    r.endToEnd.push_back({"warm_p50_ms", median(warm), "ms"});
    tailMetric("warm_tail_ms", warm);
    if (!rec)
        return;
    const PassTotals t = rec->passTotals();
    const auto probes = rec->probeTotals();
    auto probe = [&](const char *name) {
        const auto it = probes.find(name);
        return it == probes.end() ? 0 : it->second;
    };
    const double requests = probe("probe.requests");
    auto perRequest = [&](const char *name) {
        return requests > 0 ? probe(name) / requests : 0;
    };
    auto &L = r.layers;
    L.push_back({"ingest.parse_s", probe("ingest.parse"), "s"});
    L.push_back({"ingest.harden_s", median(hardenSecs_), "s"});
    L.push_back({"netlist.serialize_s", probe("netlist.serialize"), "s"});
    L.push_back({"netlist.content_hash_s", probe("netlist.content_hash"), "s"});
    L.push_back({"sim.flat_compile_s", probe("sim.flat_compile"), "s"});
    L.push_back({"fault.collapse_s", probe("fault.collapse"), "s"});
    L.push_back({"fault.engine_s", medianTotal(t, "fault.engine"), "s"});
    L.push_back({"fault.fixed_s", medianTotal(t, "fault.fixed"), "s"});
    L.push_back({"fault.report.encode_s", probe("fault.report.encode"), "s"});
    L.push_back({"fault.classes", probe("fault.classes"), "count"});
    L.push_back({"server.jsonl.parse_s", perRequest("server.jsonl.parse"), "s"});
    L.push_back({"server.jsonl.dump_s", perRequest("server.jsonl.dump"), "s"});
    L.push_back({"server.protocol.build_job_s",
                 perRequest("server.protocol.build_job"), "s"});
    L.push_back({"server.cache.lookup_s", perRequest("server.cache.lookup"),
                 "s"});
    L.push_back({"server.cache.hit_ratio",
                 cacheLookups_ > 0 ? cacheHits_ / cacheLookups_ : 0, "ratio"});
    auto ms = [](const Sample &s) { return s.ack; };
    auto wait = [](const Sample &s) { return s.wait; };
    auto outside = [](const Sample &s) { return s.latency - s.engine; };
    L.push_back({"server.submit_ack_ms", median(pick(traced_, false, ms)), "ms"});
    L.push_back({"server.result_wait_ms", median(pick(traced_, false, wait)),
                 "ms"});
    L.push_back({"server.outside_engine_ms",
                 median(pick(traced_, false, outside)), "ms"});
    L.push_back({"server.rejected", rejected_, "count"});
    L.push_back({"server.failed", failedJobs_, "count"});
}

} // namespace

std::unique_ptr<Workload>
makeDaemonMixed(const RunConfig &cfg, const Golden &golden, Outcome &out)
{
    return std::make_unique<DaemonMixed>(cfg, golden, out);
}

} // namespace perfbench
