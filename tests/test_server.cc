/**
 * @file
 * Campaign daemon tests: scheduler semantics (fair share, priorities,
 * backpressure, cancellation, progress/terminal events), the
 * content-addressed verdict cache (byte-identity of hits against both
 * a cold daemon run and the inline library path), the JSONL value
 * type, and the socket protocol end to end, including malformed
 * requests answered with line-numbered diagnostics.
 *
 * Runs under TSan in CI: every cross-thread interaction here (event
 * callbacks, cache counters, cancel tokens) is exercised
 * concurrently on purpose.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/campaign.hh"
#include "fault/options.hh"
#include "fault/report.hh"
#include "fault/seq_campaign.hh"
#include "netlist/circuits.hh"
#include "netlist/io.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "server/cache.hh"
#include "server/client.hh"
#include "server/jsonl.hh"
#include "server/protocol.hh"
#include "server/scheduler.hh"
#include "server/server.hh"
#include "sim/simd.hh"
#include "system/campaign.hh"

namespace scal
{
namespace
{

using namespace server;

// ---------------------------------------------------------------- jsonl

TEST(Jsonl, RoundTripAndOrder)
{
    const jsonl::Value v = jsonl::parse(
        R"({"b":1,"a":[true,null,"x\ny",-3,1.5],"c":{"k":18446744073709551615}})");
    // Objects keep insertion order, 64-bit integers survive exactly.
    EXPECT_EQ(v.dump(),
              "{\"b\":1,\"a\":[true,null,\"x\\ny\",-3,1.5],"
              "\"c\":{\"k\":18446744073709551615}}");
    EXPECT_EQ(v.find("c")->find("k")->asUint64(),
              18446744073709551615ull);
    EXPECT_EQ(v.find("a")->asArray()[2].asString(), "x\ny");
}

TEST(Jsonl, ParseErrorsCarryOffset)
{
    try {
        jsonl::parse("{\"a\": nope}");
        FAIL();
    } catch (const jsonl::ParseError &e) {
        EXPECT_GE(e.offset, 6u); // points at (or into) the bad token
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
    EXPECT_THROW(jsonl::parse("{\"a\":1} junk"), jsonl::ParseError);
    EXPECT_THROW(jsonl::parse("[1,2"), jsonl::ParseError);
}

TEST(Jsonl, LineBufferFraming)
{
    jsonl::LineBuffer buf;
    std::string line;
    buf.feed("{\"a\":1}\r\n{\"b\"", 13);
    ASSERT_TRUE(buf.pop(&line));
    EXPECT_EQ(line, "{\"a\":1}"); // \r stripped
    EXPECT_FALSE(buf.pop(&line)); // second line incomplete
    buf.feed(":2}\n", 4);
    ASSERT_TRUE(buf.pop(&line));
    EXPECT_EQ(line, "{\"b\":2}");
}

// ---------------------------------------------------------------- cache

TEST(VerdictCache, LruEvictionAndStats)
{
    CacheOptions opts;
    opts.maxEntries = 2;
    VerdictCache cache(opts);
    CachedVerdict v;
    v.kind = "comb";
    v.verdict = "{}\n";
    cache.insert("a", v);
    cache.insert("b", v);
    CachedVerdict out;
    ASSERT_TRUE(cache.lookup("a", &out)); // now "b" is least recent
    cache.insert("c", v);                 // evicts "b"
    EXPECT_FALSE(cache.lookup("b", &out));
    EXPECT_TRUE(cache.lookup("a", &out));
    EXPECT_TRUE(cache.lookup("c", &out));
    const CacheStats st = cache.stats();
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.insertions, 3u);
    EXPECT_GT(st.residentBytes, 0u);
}

TEST(VerdictCache, DiskSpillSurvivesEviction)
{
    char tmpl[] = "/tmp/scal_cache_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    CacheOptions opts;
    opts.maxEntries = 1;
    opts.spillDir = tmpl;
    VerdictCache cache(opts);
    CachedVerdict v;
    v.kind = "seq";
    v.verdict = "{\n  \"x\": 1\n}\n";
    v.tail = "  \"stats\": {}";
    cache.insert("k1", v);
    cache.insert("k2", v); // evicts k1 from memory, not from disk
    CachedVerdict out;
    ASSERT_TRUE(cache.lookup("k1", &out));
    EXPECT_EQ(out.verdict, v.verdict);
    EXPECT_EQ(out.tail, v.tail);
    EXPECT_EQ(out.kind, "seq");
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

// ------------------------------------------------------------ fixtures

netlist::Netlist
roundTripped(const netlist::Netlist &net)
{
    return netlist::readNetlistFromString(
        netlist::writeNetlistToString(net));
}

JobConfig
combJob(const netlist::Netlist &net, const std::string &client,
        int priority, const fault::CampaignOptions &opts)
{
    JobConfig cfg;
    cfg.client = client;
    cfg.priority = priority;
    cfg.kind = "comb";
    cfg.net = net;
    cfg.netHash = netlist::contentHash(net);
    cfg.copts = opts;
    cfg.configKey = fault::canonicalCampaignConfig(opts);
    return cfg;
}

JobConfig
seqJob(const netlist::Netlist &net, const fault::SeqCampaignSpec &spec,
       const std::string &client, const fault::SeqCampaignOptions &opts)
{
    JobConfig cfg;
    cfg.client = client;
    cfg.kind = "seq";
    cfg.net = net;
    cfg.netHash = netlist::contentHash(net);
    cfg.sopts = opts;
    cfg.spec = spec;
    cfg.configKey = fault::canonicalSeqCampaignConfig(opts, spec);
    return cfg;
}

/** A seq job slow enough to still be running while a test queues more
 *  work behind it (no-drop keeps every fault simulating). */
JobConfig
blockerJob(const std::string &client, std::uint64_t seed,
           long symbols = 20000)
{
    const auto sm = seq::reynoldsDetector();
    fault::SeqCampaignOptions opts;
    opts.symbols = symbols;
    opts.seed = seed;
    opts.dropDetected = false;
    return seqJob(sm.net, seq::campaignSpec(sm), client, opts);
}

/** Record terminal events (job completion order) across jobs. */
struct TerminalLog
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::uint64_t> order;

    Scheduler::EventFn
    fn()
    {
        return [this](const jsonl::Value &ev) {
            if (ev.find("event")->asString() != "terminal")
                return;
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(ev.find("job")->asUint64());
            cv.notify_all();
        };
    }

    void
    waitCount(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return order.size() >= n; });
    }
};

void
waitRunning(Scheduler &sched, std::uint64_t id)
{
    for (;;) {
        JobInfo info;
        ASSERT_TRUE(sched.info(id, &info));
        if (info.state != JobState::Queued)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

Scheduler::Options
schedOpts(int maxInflight, std::size_t maxQueued = 64)
{
    Scheduler::Options o;
    o.maxInflight = maxInflight;
    o.maxQueued = maxQueued;
    o.jobsPerCampaign = 1;
    return o;
}

// ---------------------------------------------------------- scheduler

TEST(Scheduler, CacheHitIsByteIdenticalToColdAndInlineRuns)
{
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    fault::CampaignOptions opts;
    opts.seed = 7;

    Scheduler sched(schedOpts(2));
    const SubmitOutcome cold =
        sched.submit(combJob(net, "a", 0, opts));
    ASSERT_TRUE(cold.accepted);
    EXPECT_FALSE(cold.cacheHit);
    JobInfo coldInfo;
    ASSERT_TRUE(sched.wait(cold.id, &coldInfo));
    ASSERT_EQ(coldInfo.state, JobState::Done);

    // Second submit — different client and priority, same content —
    // must hit the cache and return the exact same bytes.
    const SubmitOutcome warm =
        sched.submit(combJob(net, "b", 3, opts));
    ASSERT_TRUE(warm.accepted);
    EXPECT_TRUE(warm.cacheHit);
    JobInfo warmInfo;
    ASSERT_TRUE(sched.wait(warm.id, &warmInfo));
    ASSERT_EQ(warmInfo.state, JobState::Done);
    EXPECT_EQ(warmInfo.verdict, coldInfo.verdict);
    EXPECT_EQ(warmInfo.tail, coldInfo.tail);

    // And both match what the inline library path computes.
    fault::CampaignOptions inlineOpts = opts;
    inlineOpts.jobs = 1;
    const auto res = fault::runAlternatingCampaign(net, inlineOpts);
    EXPECT_EQ(coldInfo.verdict, fault::campaignVerdictJson(net, res));
    EXPECT_NE(coldInfo.verdict.find("\"self_checking\": true"),
              std::string::npos);

    const CacheStats cs = sched.cacheStats();
    EXPECT_EQ(cs.hits, 1u);
    EXPECT_EQ(cs.misses, 1u);
    EXPECT_EQ(cs.insertions, 1u);
    const SchedulerStats ss = sched.stats();
    EXPECT_EQ(ss.submitted, 2u);
    EXPECT_EQ(ss.completed, 2u);
}

TEST(Scheduler, SeqCacheHitIsByteIdenticalAcrossJobsCounts)
{
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    const fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    fault::SeqCampaignOptions opts;
    opts.symbols = 64;
    opts.seed = 11;

    // Two daemons with different engine parallelism: the verdict is
    // part of the determinism contract, so the second daemon's cold
    // run produces the bytes the first one cached.
    std::string verdict1, verdict4;
    {
        Scheduler sched(schedOpts(1));
        JobInfo info;
        const auto out = sched.submit(seqJob(net, spec, "a", opts));
        ASSERT_TRUE(out.accepted);
        ASSERT_TRUE(sched.wait(out.id, &info));
        ASSERT_EQ(info.state, JobState::Done) << info.error;
        verdict1 = info.verdict;
    }
    {
        Scheduler::Options o = schedOpts(1);
        o.jobsPerCampaign = 4;
        Scheduler sched(o);
        JobInfo info;
        const auto out = sched.submit(seqJob(net, spec, "a", opts));
        ASSERT_TRUE(out.accepted);
        ASSERT_TRUE(sched.wait(out.id, &info));
        ASSERT_EQ(info.state, JobState::Done) << info.error;
        verdict4 = info.verdict;
    }
    EXPECT_EQ(verdict1, verdict4);

    // Inline library path agrees byte for byte.
    fault::SeqCampaignOptions inlineOpts = opts;
    inlineOpts.jobs = 1;
    const auto res =
        fault::runSequentialCampaign(net, spec, inlineOpts);
    EXPECT_EQ(verdict1, fault::seqCampaignVerdictJson(net, res));
}

TEST(Scheduler, SeqBatchKnobsStayOutOfCacheKeyAndVerdict)
{
    const auto sm = seq::translatorDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    const fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    fault::SeqCampaignOptions opts;
    opts.symbols = 48;
    opts.seed = 7;

    // The collapse knob is a verdict-invariant work saving, so the
    // canonical config (the cache key) must not mention it: a client
    // toggling it keeps hitting the same entry.
    const std::string key =
        fault::canonicalSeqCampaignConfig(opts, spec);
    fault::SeqCampaignOptions toggled = opts;
    toggled.seqDominance = !toggled.seqDominance;
    EXPECT_EQ(key, fault::canonicalSeqCampaignConfig(toggled, spec));
    EXPECT_EQ(key.find("dominance"), std::string::npos);

    Scheduler sched(schedOpts(1));
    const SubmitOutcome cold =
        sched.submit(seqJob(net, spec, "a", opts));
    ASSERT_TRUE(cold.accepted);
    EXPECT_FALSE(cold.cacheHit);
    JobInfo coldInfo;
    ASSERT_TRUE(sched.wait(cold.id, &coldInfo));
    ASSERT_EQ(coldInfo.state, JobState::Done) << coldInfo.error;

    // Warm submit with the opposite knob setting: same key, served
    // from cache, byte-identical verdict.
    const SubmitOutcome warm =
        sched.submit(seqJob(net, spec, "a", toggled));
    ASSERT_TRUE(warm.accepted);
    EXPECT_TRUE(warm.cacheHit);
    JobInfo warmInfo;
    ASSERT_TRUE(sched.wait(warm.id, &warmInfo));
    ASSERT_EQ(warmInfo.state, JobState::Done) << warmInfo.error;
    EXPECT_TRUE(warmInfo.cacheHit);
    EXPECT_EQ(warmInfo.verdict, coldInfo.verdict);
}

TEST(Scheduler, CombCacheKeyIgnoresLanesAndSimd)
{
    // Comb verdicts are bit-identical at every lane width and SIMD
    // target, so neither may enter the cache key or the verdict bytes:
    // otherwise one entry would hold host-dependent bytes and equal
    // work would land under several keys.
    const netlist::Netlist net = netlist::circuits::rippleCarryAdder(4);
    fault::CampaignOptions base;
    base.maxPatterns = 256;
    base.jobs = 1;
    const std::string key = fault::canonicalCampaignConfig(base);
    const std::string verdict = fault::campaignVerdictJson(
        net, fault::runAlternatingCampaign(net, base));
    for (const int lanes : {64, 256, 512})
        for (const sim::SimdTarget simd :
             {sim::SimdTarget::Portable, sim::SimdTarget::Auto}) {
            fault::CampaignOptions opts = base;
            opts.lanes = lanes;
            opts.simd = simd;
            const std::string pt = "lanes=" + std::to_string(lanes) +
                                   " simd=" + sim::simdTargetName(simd);
            EXPECT_EQ(fault::canonicalCampaignConfig(opts), key) << pt;
            const fault::CampaignResult res =
                fault::runAlternatingCampaign(net, opts);
            EXPECT_EQ(fault::campaignVerdictJson(net, res), verdict) << pt;
            // The width and kernel build a run resolved to are tail data.
            EXPECT_NE(fault::campaignTailJson(res).find(
                          "\"lanes\": " + std::to_string(lanes)),
                      std::string::npos)
                << pt;
        }

    // Seq: the SIMD target is kernel choice, but lanes sets the number
    // of random streams, so it stays in the key.
    fault::SeqCampaignOptions sopts;
    const fault::SeqCampaignSpec spec;
    fault::SeqCampaignOptions portable = sopts;
    portable.simd = sim::SimdTarget::Portable;
    EXPECT_EQ(fault::canonicalSeqCampaignConfig(portable, spec),
              fault::canonicalSeqCampaignConfig(sopts, spec));
    fault::SeqCampaignOptions wide = sopts;
    wide.lanes = 256;
    EXPECT_NE(fault::canonicalSeqCampaignConfig(wide, spec),
              fault::canonicalSeqCampaignConfig(sopts, spec));
}

TEST(Scheduler, FairShareLetsLightClientOvertakeFloodingClient)
{
    Scheduler sched(schedOpts(1));
    TerminalLog log;

    // Keep the single worker busy so the queue is stable while we
    // submit; the blocker is charged to the flooding client.
    const auto blocker = sched.submit(blockerJob("flood", 1));
    ASSERT_TRUE(blocker.accepted);
    waitRunning(sched, blocker.id);

    fault::CampaignOptions fast;
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    std::vector<std::uint64_t> floodIds;
    for (int i = 0; i < 3; ++i) {
        fault::CampaignOptions opts = fast;
        opts.seed = 100 + static_cast<std::uint64_t>(i); // no cache hits
        const auto out = sched.submit(combJob(net, "flood", 0, opts));
        ASSERT_TRUE(out.accepted);
        floodIds.push_back(out.id);
        ASSERT_TRUE(sched.subscribe(out.id, log.fn()));
    }
    fault::CampaignOptions lightOpts = fast;
    lightOpts.seed = 999;
    const auto light = sched.submit(combJob(net, "light", 0, lightOpts));
    ASSERT_TRUE(light.accepted);
    ASSERT_TRUE(sched.subscribe(light.id, log.fn()));

    // Unblock the worker and watch the completion order: the light
    // client's lone job runs before any of the flooding client's
    // queued jobs, despite being submitted last.
    ASSERT_TRUE(sched.cancel(blocker.id));
    log.waitCount(4);
    EXPECT_EQ(log.order.front(), light.id);
}

TEST(Scheduler, PriorityThenFifoWithinOneClient)
{
    Scheduler sched(schedOpts(1));
    TerminalLog log;
    const auto blocker = sched.submit(blockerJob("c", 2));
    ASSERT_TRUE(blocker.accepted);
    waitRunning(sched, blocker.id);

    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    std::vector<std::uint64_t> ids;
    const int priorities[] = {0, 5, 0};
    for (int i = 0; i < 3; ++i) {
        fault::CampaignOptions opts;
        opts.seed = 200 + static_cast<std::uint64_t>(i);
        const auto out =
            sched.submit(combJob(net, "c", priorities[i], opts));
        ASSERT_TRUE(out.accepted);
        ids.push_back(out.id);
        ASSERT_TRUE(sched.subscribe(out.id, log.fn()));
    }
    ASSERT_TRUE(sched.cancel(blocker.id));
    log.waitCount(3);
    // Highest priority first, then FIFO among equals.
    EXPECT_EQ(log.order[0], ids[1]);
    EXPECT_EQ(log.order[1], ids[0]);
    EXPECT_EQ(log.order[2], ids[2]);
}

TEST(Scheduler, BackpressureRejectsBeyondMaxQueued)
{
    Scheduler sched(schedOpts(1, 1));
    const auto blocker = sched.submit(blockerJob("c", 3));
    ASSERT_TRUE(blocker.accepted);
    waitRunning(sched, blocker.id);

    const auto queued = sched.submit(blockerJob("c", 4));
    ASSERT_TRUE(queued.accepted);
    const auto rejected = sched.submit(blockerJob("c", 5));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reason, "backpressure");
    EXPECT_EQ(sched.stats().rejected, 1u);

    // A cache hit bypasses the queue even under backpressure.
    JobInfo info;
    sched.cancel(blocker.id);
    sched.cancel(queued.id);
    ASSERT_TRUE(sched.wait(blocker.id, &info));
}

TEST(Scheduler, CancelMidCampaignAndCancelQueued)
{
    Scheduler sched(schedOpts(1));
    const auto running = sched.submit(blockerJob("c", 6, 200000));
    ASSERT_TRUE(running.accepted);
    const auto queued = sched.submit(blockerJob("c", 7, 200000));
    ASSERT_TRUE(queued.accepted);
    waitRunning(sched, running.id);

    // Cancelling the queued job is immediate; cancelling the running
    // one takes effect at the next per-fault poll.
    ASSERT_TRUE(sched.cancel(queued.id));
    ASSERT_TRUE(sched.cancel(running.id));
    JobInfo ri, qi;
    ASSERT_TRUE(sched.wait(running.id, &ri));
    ASSERT_TRUE(sched.wait(queued.id, &qi));
    EXPECT_EQ(ri.state, JobState::Cancelled);
    EXPECT_EQ(qi.state, JobState::Cancelled);
    EXPECT_FALSE(sched.cancel(12345)); // unknown id
    EXPECT_EQ(sched.stats().cancelled, 2u);
}

TEST(Scheduler, SubscribeStreamsProgressThenExactlyOneTerminal)
{
    Scheduler::Options o = schedOpts(1);
    o.progressInterval = std::chrono::milliseconds(5);
    Scheduler sched(o);

    const auto out = sched.submit(blockerJob("c", 8, 500000));
    ASSERT_TRUE(out.accepted);

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> kinds;
    ASSERT_TRUE(sched.subscribe(out.id, [&](const jsonl::Value &ev) {
        std::lock_guard<std::mutex> lock(mu);
        kinds.push_back(ev.find("event")->asString());
        cv.notify_all();
    }));
    {
        // Wait for at least one progress snapshot before cancelling.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !kinds.empty(); });
    }
    ASSERT_TRUE(sched.cancel(out.id));
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock,
                [&] { return !kinds.empty() && kinds.back() == "terminal"; });
    }
    JobInfo info;
    ASSERT_TRUE(sched.wait(out.id, &info));
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(kinds.size(), 2u);
    // Exactly one terminal, and it is last.
    EXPECT_EQ(std::count(kinds.begin(), kinds.end(), "terminal"), 1);
    for (std::size_t i = 0; i + 1 < kinds.size(); ++i)
        EXPECT_EQ(kinds[i], "progress");

    // Subscribing after the fact synthesizes the terminal event.
    std::vector<std::string> late;
    ASSERT_TRUE(sched.subscribe(out.id, [&](const jsonl::Value &ev) {
        late.push_back(ev.find("event")->asString());
    }));
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late[0], "terminal");
}

// ----------------------------------------------------------- protocol

class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        static int counter = 0;
        path_ = "/tmp/scal_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++) + ".sock";
        Server::Options o;
        o.socketPath = path_;
        o.scheduler.maxInflight = 2;
        o.scheduler.jobsPerCampaign = 1;
        server_ = std::make_unique<Server>(std::move(o));
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
    }

    static jsonl::Value
    combSubmit(const netlist::Netlist &net, std::uint64_t seed,
               int lanes = 0)
    {
        jsonl::Object cfg;
        cfg.emplace_back("seed", jsonl::Value(seed));
        if (lanes)
            cfg.emplace_back("lanes", jsonl::Value(lanes));
        jsonl::Object req;
        req.emplace_back("op", jsonl::Value("submit"));
        req.emplace_back("kind", jsonl::Value("comb"));
        req.emplace_back("client", jsonl::Value("test"));
        req.emplace_back(
            "circuit", jsonl::Value(netlist::writeNetlistToString(net)));
        req.emplace_back("format", jsonl::Value("scal"));
        req.emplace_back("config", jsonl::Value(std::move(cfg)));
        return jsonl::Value(std::move(req));
    }

    std::string path_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, SubmitResultAndCacheHitOverTheWire)
{
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    Client client(path_);
    const jsonl::Value cold = client.submitAndWait(combSubmit(net, 3));
    ASSERT_TRUE(cold.find("ok")->asBool());
    EXPECT_EQ(cold.find("state")->asString(), "done");
    EXPECT_FALSE(cold.find("cache_hit")->asBool());

    // Same submission from a fresh connection: served from cache,
    // byte-identical verdict.
    Client again(path_);
    const jsonl::Value warm = again.submitAndWait(combSubmit(net, 3));
    EXPECT_TRUE(warm.find("cache_hit")->asBool());
    EXPECT_EQ(warm.find("verdict")->asString(),
              cold.find("verdict")->asString());

    // Inline library agreement (jobs=1 — verdicts are jobs-invariant).
    fault::CampaignOptions opts;
    opts.seed = 3;
    opts.jobs = 1;
    const auto res = fault::runAlternatingCampaign(net, opts);
    EXPECT_EQ(cold.find("verdict")->asString(),
              fault::campaignVerdictJson(net, res));

    const jsonl::Value stats = client.request(
        jsonl::Value(jsonl::Object{{"op", jsonl::Value("stats")}}));
    EXPECT_EQ(stats.find("cache")->find("hits")->asUint64(), 1u);
    const jsonl::Value list = client.request(
        jsonl::Value(jsonl::Object{{"op", jsonl::Value("list")}}));
    EXPECT_EQ(list.find("jobs")->asArray().size(), 2u);
}

TEST_F(ServerTest, CombWarmSubmitAtOtherLanesHitsColdEntry)
{
    const netlist::Netlist net =
        roundTripped(netlist::circuits::rippleCarryAdder(4));
    Client client(path_);
    const jsonl::Value cold = client.submitAndWait(combSubmit(net, 4, 64));
    ASSERT_EQ(cold.find("state")->asString(), "done");
    EXPECT_FALSE(cold.find("cache_hit")->asBool());

    // The lane width is not part of the canonical config, so a
    // 512-lane request is served from the entry the 64-lane run wrote.
    Client again(path_);
    const jsonl::Value warm = again.submitAndWait(combSubmit(net, 4, 512));
    ASSERT_EQ(warm.find("state")->asString(), "done");
    EXPECT_TRUE(warm.find("cache_hit")->asBool());
    EXPECT_EQ(warm.find("verdict")->asString(),
              cold.find("verdict")->asString());
}

TEST_F(ServerTest, SeqSubmitMatchesInlineVerdict)
{
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    const std::string phiName =
        net.gate(net.inputs()[static_cast<std::size_t>(sm.phiInput)])
            .name;

    const auto listValue = [](const std::vector<int> &v) {
        jsonl::Array arr;
        for (int i : v)
            arr.emplace_back(i);
        return jsonl::Value(std::move(arr));
    };
    jsonl::Object cfg;
    cfg.emplace_back("symbols", jsonl::Value(48));
    cfg.emplace_back("seed", jsonl::Value(5));
    cfg.emplace_back("phi", jsonl::Value(phiName));
    cfg.emplace_back("hold", listValue(spec.holdInputs));
    cfg.emplace_back("data", listValue(spec.dataOutputs));
    cfg.emplace_back("alt", listValue(spec.altOutputs));
    cfg.emplace_back("code_pairs", listValue(spec.codePairs));
    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("submit"));
    req.emplace_back("kind", jsonl::Value("seq"));
    req.emplace_back("circuit",
                     jsonl::Value(netlist::writeNetlistToString(net)));
    req.emplace_back("config", jsonl::Value(std::move(cfg)));

    Client client(path_);
    const jsonl::Value res =
        client.submitAndWait(jsonl::Value(std::move(req)));
    ASSERT_EQ(res.find("state")->asString(), "done")
        << (res.find("error") ? res.find("error")->asString() : "");

    fault::SeqCampaignOptions opts;
    opts.symbols = 48;
    opts.seed = 5;
    opts.jobs = 1;
    const auto inlineRes =
        fault::runSequentialCampaign(net, spec, opts);
    EXPECT_EQ(res.find("verdict")->asString(),
              fault::seqCampaignVerdictJson(net, inlineRes));
}

TEST_F(ServerTest, SeqPhiByIndexMatchesInlineVerdict)
{
    // scal_cli --server sends the config server::configJson spells. A
    // φ pinned by index must reach the daemon as that index; sending
    // only the φ name made the daemon run a different φ than the
    // inline command.
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    fault::SeqCampaignConfig cfg = fault::defaultSeqConfig(net);
    cfg.opts.symbols = 16;
    cfg.spec = seq::campaignSpec(sm);
    cfg.spec.phiInput = sm.phiInput == 0 ? 1 : 0;

    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("submit"));
    req.emplace_back("kind", jsonl::Value("seq"));
    req.emplace_back("circuit",
                     jsonl::Value(netlist::writeNetlistToString(net)));
    req.emplace_back("config",
                     server::configJson(fault::optionRows(cfg)));
    Client client(path_);
    const jsonl::Value res =
        client.submitAndWait(jsonl::Value(std::move(req)));
    ASSERT_EQ(res.find("state")->asString(), "done")
        << (res.find("error") ? res.find("error")->asString() : "");

    fault::SeqCampaignOptions opts = cfg.opts;
    opts.jobs = 1;
    const std::string pinned = fault::seqCampaignVerdictJson(
        net, fault::runSequentialCampaign(net, cfg.spec, opts));
    EXPECT_EQ(res.find("verdict")->asString(), pinned);
    // The pin matters: the machine's own φ gives another verdict.
    EXPECT_NE(pinned, fault::seqCampaignVerdictJson(
                          net, fault::runSequentialCampaign(
                                   net, seq::campaignSpec(sm), opts)));
}

TEST_F(ServerTest, SeqWindowOutsideTheStreamFails)
{
    // The daemon runs the campaign's own window check: a window past
    // the stream's 32 periods fails the job with the campaign's
    // message instead of returning an all-Untestable verdict.
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    fault::SeqCampaignConfig cfg = fault::defaultSeqConfig(net);
    cfg.spec = seq::campaignSpec(sm);
    cfg.opts.symbols = 16;
    cfg.opts.faultStart = 40;
    cfg.opts.faultEnd = 50;

    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("submit"));
    req.emplace_back("kind", jsonl::Value("seq"));
    req.emplace_back("circuit",
                     jsonl::Value(netlist::writeNetlistToString(net)));
    req.emplace_back("config",
                     server::configJson(fault::optionRows(cfg)));
    Client client(path_);
    const jsonl::Value res =
        client.submitAndWait(jsonl::Value(std::move(req)));
    EXPECT_EQ(res.find("state")->asString(), "failed");
    ASSERT_NE(res.find("error"), nullptr);
    EXPECT_EQ(res.find("error")->asString(),
              "fault window 40:50 does not overlap the 32-period stream "
              "0:32");
}

TEST_F(ServerTest, SystemSubmitRunsItsDefaults)
{
    // No config at all: the sum8 workload, the ADD datapath, the SCAL
    // CPU — the same verdict as the inline campaign.
    Client client(path_);
    const jsonl::Value res = client.submitAndWait(jsonl::Value(
        jsonl::Object{{"op", jsonl::Value("submit")},
                      {"kind", jsonl::Value("system")}}));
    EXPECT_EQ(res.find("state")->asString(), "done");
    system::SystemCampaignOptions opts;
    opts.jobs = 1;
    EXPECT_EQ(res.find("verdict")->asString(),
              system::systemResultJson(system::runSystemCampaign(
                  system::findWorkload("sum8"), system::AluOp::Add,
                  /*checked=*/true, opts)));
}

TEST_F(ServerTest, SystemSubmitRefusesUnknownWorkloadAndOp)
{
    // The refusal names what would have been accepted.
    Client client(path_);
    const auto submit = [&](const char *key, const char *value) {
        return client.request(jsonl::Value(jsonl::Object{
            {"op", jsonl::Value("submit")},
            {"kind", jsonl::Value("system")},
            {"config",
             jsonl::Value(jsonl::Object{{key, jsonl::Value(value)}})}}));
    };
    const jsonl::Value wl = submit("workload", "sum");
    EXPECT_FALSE(wl.find("ok")->asBool());
    EXPECT_EQ(wl.find("error")->asString(),
              "unknown workload 'sum' (known: sum8, fib12, mul5, "
              "logicmix, copycheck, arraysum)");
    const jsonl::Value op = submit("alu_op", "add");
    EXPECT_FALSE(op.find("ok")->asBool());
    EXPECT_EQ(op.find("error")->asString(),
              "unknown ALU op 'add' (known: ADD, SUB, AND, OR, XOR, SHL, "
              "SHR, PASSB)");
}

TEST_F(ServerTest, SeqBatchKnobTogglesHitTheSameCacheEntry)
{
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    const fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    const std::string phiName =
        net.gate(net.inputs()[static_cast<std::size_t>(sm.phiInput)])
            .name;
    const std::string circuit = netlist::writeNetlistToString(net);

    const auto seqSubmit = [&](bool seqdom) {
        const auto listValue = [](const std::vector<int> &v) {
            jsonl::Array arr;
            for (int i : v)
                arr.emplace_back(i);
            return jsonl::Value(std::move(arr));
        };
        jsonl::Object cfg;
        cfg.emplace_back("symbols", jsonl::Value(48));
        cfg.emplace_back("seed", jsonl::Value(9));
        cfg.emplace_back("seq_dominance", jsonl::Value(seqdom));
        cfg.emplace_back("phi", jsonl::Value(phiName));
        cfg.emplace_back("hold", listValue(spec.holdInputs));
        cfg.emplace_back("data", listValue(spec.dataOutputs));
        cfg.emplace_back("alt", listValue(spec.altOutputs));
        cfg.emplace_back("code_pairs", listValue(spec.codePairs));
        jsonl::Object req;
        req.emplace_back("op", jsonl::Value("submit"));
        req.emplace_back("kind", jsonl::Value("seq"));
        req.emplace_back("circuit", jsonl::Value(circuit));
        req.emplace_back("config", jsonl::Value(std::move(cfg)));
        return jsonl::Value(std::move(req));
    };

    Client client(path_);
    const jsonl::Value cold =
        client.submitAndWait(seqSubmit(true));
    ASSERT_EQ(cold.find("state")->asString(), "done")
        << (cold.find("error") ? cold.find("error")->asString() : "");
    EXPECT_FALSE(cold.find("cache_hit")->asBool());

    // The opposite knob setting from a fresh connection: the knob is
    // not part of the canonical config, so this is a cache hit with
    // the identical verdict bytes.
    Client again(path_);
    const jsonl::Value warm =
        again.submitAndWait(seqSubmit(false));
    ASSERT_EQ(warm.find("state")->asString(), "done");
    EXPECT_TRUE(warm.find("cache_hit")->asBool());
    EXPECT_EQ(warm.find("verdict")->asString(),
              cold.find("verdict")->asString());
}

TEST_F(ServerTest, MalformedRequestsGetLineNumberedErrors)
{
    // Raw socket: feed broken and valid lines and check each error
    // carries the 1-based line number it arrived on.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    // A misspelled config key is refused, not run with the default.
    jsonl::Object misspelled;
    misspelled.emplace_back("op", jsonl::Value("submit"));
    misspelled.emplace_back("kind", jsonl::Value("comb"));
    misspelled.emplace_back(
        "circuit", jsonl::Value(netlist::writeNetlistToString(
                       netlist::circuits::rippleCarryAdder(2))));
    misspelled.emplace_back(
        "config", jsonl::Value(jsonl::Object{{"max_pattern", jsonl::Value(16)},
                                             {"seeed", jsonl::Value(3)}}));
    const std::string lines =
        "this is not json\n"
        "{\"no_op\":1}\n"
        "{\"op\":\"warp\"}\n"
        "{\"op\":\"submit\",\"kind\":\"comb\"}\n"
        "{\"op\":\"status\",\"id\":42}\n" +
        jsonl::Value(std::move(misspelled)).dump() + "\n";
    ASSERT_EQ(::send(fd, lines.data(), lines.size(), 0),
              static_cast<ssize_t>(lines.size()));

    jsonl::LineBuffer buf;
    std::vector<jsonl::Value> responses;
    char chunk[4096];
    while (responses.size() < 6) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        ASSERT_GT(n, 0);
        buf.feed(chunk, static_cast<std::size_t>(n));
        std::string line;
        while (buf.pop(&line))
            responses.push_back(jsonl::parse(line));
    }
    ::close(fd);

    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_FALSE(responses[i].find("ok")->asBool()) << i;
        EXPECT_EQ(responses[i].find("line")->asUint64(), i + 1) << i;
    }
    EXPECT_NE(responses[0].find("error")->asString().find("bad JSON"),
              std::string::npos);
    EXPECT_NE(responses[2].find("error")->asString().find("unknown op"),
              std::string::npos);
    EXPECT_NE(responses[3].find("error")->asString().find("circuit"),
              std::string::npos);
    EXPECT_NE(
        responses[4].find("error")->asString().find("no such job"),
        std::string::npos);
    EXPECT_NE(responses[5].find("error")->asString().find(
                  "unknown config key 'max_pattern'"),
              std::string::npos)
        << responses[5].find("error")->asString();
}

/** A raw client socket connected to @p path. */
int
connectRaw(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                             sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Read up to @p count response lines; fewer when the peer closes. */
std::vector<jsonl::Value>
readResponses(int fd, std::size_t count)
{
    jsonl::LineBuffer buf;
    std::vector<jsonl::Value> out;
    char chunk[4096];
    while (out.size() < count) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;
        buf.feed(chunk, static_cast<std::size_t>(n));
        std::string line;
        while (buf.pop(&line))
            out.push_back(jsonl::parse(line));
    }
    return out;
}

TEST_F(ServerTest, HostileLinesGetErrorsAndOnlyTheirConnectionCloses)
{
    const std::string stats = "{\"op\":\"stats\"}\n";

    // 100,000 '[' on one line: a parse error, and the same connection
    // goes on serving.
    const int deep = connectRaw(path_);
    ASSERT_GE(deep, 0);
    ASSERT_TRUE(sendAll(deep, std::string(100000, '[') + "\n" + stats));
    const std::vector<jsonl::Value> r = readResponses(deep, 2);
    ::close(deep);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_FALSE(r[0].find("ok")->asBool());
    EXPECT_EQ(r[0].find("line")->asUint64(), 1u);
    EXPECT_NE(r[0].find("error")->asString().find("nesting deeper than"),
              std::string::npos)
        << r[0].find("error")->asString();
    EXPECT_NE(r[1].find("cache"), nullptr);

    // An unterminated line past the cap gets an error, then its
    // connection closes; a second connection is unaffected.
    const int bystander = connectRaw(path_);
    const int hog = connectRaw(path_);
    ASSERT_GE(bystander, 0);
    ASSERT_GE(hog, 0);
    ASSERT_TRUE(sendAll(hog, std::string(jsonl::kMaxLineBytes + 1, ' ')));
    const std::vector<jsonl::Value> h = readResponses(hog, 2);
    ::close(hog);
    ASSERT_EQ(h.size(), 1u); // the error, then end of stream
    EXPECT_FALSE(h[0].find("ok")->asBool());
    EXPECT_NE(h[0].find("error")->asString().find("longer than"),
              std::string::npos);
    ASSERT_TRUE(sendAll(bystander, stats));
    const std::vector<jsonl::Value> b = readResponses(bystander, 1);
    ::close(bystander);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_NE(b[0].find("cache"), nullptr);
}

TEST_F(ServerTest, ShutdownOpStopsTheDaemon)
{
    Client client(path_);
    const jsonl::Value res = client.request(
        jsonl::Value(jsonl::Object{{"op", jsonl::Value("shutdown")}}));
    EXPECT_TRUE(res.find("ok")->asBool());
    server_->waitShutdown(); // returns because the op set the flag
}

} // namespace
} // namespace scal
