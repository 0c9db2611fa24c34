/**
 * @file
 * The campaign option tables (fault/options.hh) are the one spelling
 * of campaign options. Over a grid of combinational and sequential
 * configs — defaults, every row at a non-default value, unsorted and
 * duplicated index lists, a window, no-drop, φ by name and by index —
 * the CLI argv, the shard worker argv and the daemon's config object
 * all give the same options, and the canonical keys equal the strings
 * the hand-written encoders produced before the tables existed, so
 * existing checkpoints, partials and cache entries stay valid.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/options.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "netlist/io.hh"
#include "server/protocol.hh"
#include "sim/simd.hh"

namespace scal
{
namespace
{

using fault::CampaignOptions;
using fault::SeqCampaignConfig;
using sim::SimdTarget;

/** Inputs a, b and φ (index 2, named "phi"); outputs o and s. */
netlist::Netlist
machine()
{
    netlist::Netlist raw;
    const netlist::GateId a = raw.addInput("a");
    const netlist::GateId b = raw.addInput("b");
    const netlist::GateId q = raw.addDff(raw.addConst(false), "q");
    const netlist::GateId x = raw.addXor({a, q}, "x");
    raw.replaceFanin(q, 0, x);
    raw.addOutput(raw.addOr({x, b}, "o"), "o");
    raw.addOutput(q, "s");
    return ingest::hardenNetlist(raw).net;
}

/** A default T changed by @p edit. */
template <class T, class F>
T
edited(F edit)
{
    T t;
    edit(t);
    return t;
}

/** A sequential config whose φ is input @p phi, changed by @p edit. */
template <class F>
SeqCampaignConfig
seqWith(int phi, F edit)
{
    SeqCampaignConfig c;
    c.spec.phiInput = phi;
    edit(c);
    return c;
}

/** Apply @p args to @p cfg the way scal_cli does; every arg must be
 *  a table flag. */
template <class T>
T
parsed(T cfg, const std::vector<std::string> &args,
       const netlist::Netlist &net)
{
    for (std::size_t i = 0; i < args.size(); ++i)
        EXPECT_TRUE(
            fault::applyOptionFlag(fault::optionRows(cfg), args, &i, net))
            << "not a table flag: " << args[i];
    return cfg;
}

/** What the daemon makes of @p config for kind @p kind on @p net. */
server::JobConfig
submitted(const char *kind, server::jsonl::Value config,
          const netlist::Netlist &net)
{
    using server::jsonl::Value;
    server::jsonl::Object req;
    req.emplace_back("kind", Value(kind));
    req.emplace_back("circuit", Value(netlist::writeNetlistToString(net)));
    req.emplace_back("format", Value("scal"));
    req.emplace_back("config", std::move(config));
    return server::buildJobConfig(Value(std::move(req)));
}

void
expectSame(const CampaignOptions &got, const CampaignOptions &want,
           const std::string &where)
{
    EXPECT_EQ(got.maxPatterns, want.maxPatterns) << where;
    EXPECT_EQ(got.seed, want.seed) << where;
    EXPECT_EQ(got.keepUnsafeExamples, want.keepUnsafeExamples) << where;
    EXPECT_EQ(got.checkAlternating, want.checkAlternating) << where;
    EXPECT_EQ(got.lanes, want.lanes) << where;
    EXPECT_EQ(got.simd, want.simd) << where;
}

void
expectSame(const SeqCampaignConfig &got, const SeqCampaignConfig &want,
           const std::string &where)
{
    EXPECT_EQ(got.opts.symbols, want.opts.symbols) << where;
    EXPECT_EQ(got.opts.lanes, want.opts.lanes) << where;
    EXPECT_EQ(got.opts.simd, want.opts.simd) << where;
    EXPECT_EQ(got.opts.seed, want.opts.seed) << where;
    EXPECT_EQ(got.opts.faultStart, want.opts.faultStart) << where;
    EXPECT_EQ(got.opts.faultEnd, want.opts.faultEnd) << where;
    EXPECT_EQ(got.opts.dropDetected, want.opts.dropDetected) << where;
    EXPECT_EQ(got.opts.seqDominance, want.opts.seqDominance) << where;
    EXPECT_EQ(got.opts.seqDominanceForce, want.opts.seqDominanceForce)
        << where;
    EXPECT_EQ(got.spec.phiInput, want.spec.phiInput) << where;
    EXPECT_EQ(got.spec.holdInputs, want.spec.holdInputs) << where;
    EXPECT_EQ(got.spec.dataOutputs, want.spec.dataOutputs) << where;
    EXPECT_EQ(got.spec.altOutputs, want.spec.altOutputs) << where;
    EXPECT_EQ(got.spec.codePairs, want.spec.codePairs) << where;
}

TEST(OptionTable, CombSurfacesAgreeAndKeysArePinned)
{
    struct Point
    {
        const char *label;
        std::vector<std::string> argv;
        CampaignOptions want;
        const char *key; ///< from the encoder the table replaced
    };
    const Point grid[] = {
        {"defaults", {}, {},
         "comb;max_patterns=1048576;seed=1;keep_unsafe=4;"
         "check_alternating=1"},
        {"every row set",
         {"--max-patterns", "4096", "--seed", "42", "--keep-unsafe", "2",
          "--no-check-alternating", "--lanes", "256", "--simd",
          "portable"},
         edited<CampaignOptions>([](CampaignOptions &o) {
             o.maxPatterns = 4096;
             o.seed = 42;
             o.keepUnsafeExamples = 2;
             o.checkAlternating = false;
             o.lanes = 256;
             o.simd = SimdTarget::Portable;
         }),
         "comb;max_patterns=4096;seed=42;keep_unsafe=2;"
         "check_alternating=0"},
        {"bool spelled on, widest seed",
         {"--check-alternating", "--seed", "18446744073709551615",
          "--lanes", "512", "--simd", "auto"},
         edited<CampaignOptions>([](CampaignOptions &o) {
             o.seed = std::numeric_limits<std::uint64_t>::max();
             o.lanes = 512;
         }),
         "comb;max_patterns=1048576;seed=18446744073709551615;"
         "keep_unsafe=4;check_alternating=1"},
    };
    const netlist::Netlist net = machine();
    for (const Point &p : grid) {
        const CampaignOptions cli = parsed(CampaignOptions{}, p.argv, net);
        expectSame(cli, p.want, std::string(p.label) + ": argv");
        EXPECT_EQ(fault::canonicalCampaignConfig(cli), p.key) << p.label;

        const CampaignOptions worker = parsed(
            CampaignOptions{}, fault::campaignWorkerArgs(cli), net);
        expectSame(worker, p.want, std::string(p.label) + ": worker argv");
        EXPECT_EQ(fault::canonicalCampaignConfig(worker), p.key)
            << p.label;

        CampaignOptions sent = cli;
        const server::JobConfig job = submitted(
            "comb", server::configJson(fault::optionRows(sent)), net);
        expectSame(job.copts, p.want, std::string(p.label) + ": protocol");
        EXPECT_EQ(job.configKey, p.key) << p.label;
    }
}

TEST(OptionTable, SeqSurfacesAgreeAndKeysArePinned)
{
    struct Point
    {
        const char *label;
        std::vector<std::string> argv;
        SeqCampaignConfig want;
        const char *key; ///< from the encoder the table replaced
    };
    const Point grid[] = {
        {"defaults (phi by its default name)", {}, seqWith(2, [](auto &) {}),
         "seq;symbols=256;seed=1;lanes=64;window=0:9223372036854775807;"
         "drop=1;phi=2;hold=;data=;alt=;pairs="},
        {"every row set",
         {"--symbols", "64", "--seed", "9", "--lanes", "256", "--window",
          "3:40", "--no-drop", "--phi-index", "1", "--hold", "0", "--data",
          "1", "--alt", "0", "--code-pairs", "0,1", "--simd", "portable",
          "--seq-dominance"},
         seqWith(1,
                 [](SeqCampaignConfig &c) {
                     c.opts.symbols = 64;
                     c.opts.lanes = 256;
                     c.opts.simd = SimdTarget::Portable;
                     c.opts.seed = 9;
                     c.opts.faultStart = 3;
                     c.opts.faultEnd = 40;
                     c.opts.dropDetected = false;
                     c.opts.seqDominanceForce = true;
                     c.spec.holdInputs = {0};
                     c.spec.dataOutputs = {1};
                     c.spec.altOutputs = {0};
                     c.spec.codePairs = {0, 1};
                 }),
         "seq;symbols=64;seed=9;lanes=256;window=3:40;drop=0;phi=1;"
         "hold=0;data=1;alt=0;pairs=0,1"},
        {"unsorted and duplicated lists",
         {"--hold", "1,0,1", "--data", "1,0,1", "--alt", "1,1,0",
          "--code-pairs", "1,0"},
         seqWith(2,
                 [](SeqCampaignConfig &c) {
                     c.spec.holdInputs = {1, 0, 1};
                     c.spec.dataOutputs = {1, 0, 1};
                     c.spec.altOutputs = {1, 1, 0};
                     c.spec.codePairs = {1, 0};
                 }),
         "seq;symbols=256;seed=1;lanes=64;window=0:9223372036854775807;"
         "drop=1;phi=2;hold=0,1;data=0,1;alt=0,1;pairs=1,0"},
        {"phi by name", {"--phi", "a"}, seqWith(0, [](auto &) {}),
         "seq;symbols=256;seed=1;lanes=64;window=0:9223372036854775807;"
         "drop=1;phi=0;hold=;data=;alt=;pairs="},
        {"phi by index", {"--phi-index", "0"}, seqWith(0, [](auto &) {}),
         "seq;symbols=256;seed=1;lanes=64;window=0:9223372036854775807;"
         "drop=1;phi=0;hold=;data=;alt=;pairs="},
        {"window, no-drop, seq dominance off",
         {"--window", "5:9", "--no-drop", "--no-seq-dominance"},
         seqWith(2,
                 [](SeqCampaignConfig &c) {
                     c.opts.faultStart = 5;
                     c.opts.faultEnd = 9;
                     c.opts.dropDetected = false;
                     c.opts.seqDominance = false;
                 }),
         "seq;symbols=256;seed=1;lanes=64;window=5:9;drop=0;phi=2;hold=;"
         "data=;alt=;pairs="},
        {"no phi", {"--phi-index", "-1"}, seqWith(-1, [](auto &) {}),
         "seq;symbols=256;seed=1;lanes=64;window=0:9223372036854775807;"
         "drop=1;phi=-1;hold=;data=;alt=;pairs="},
    };
    const netlist::Netlist net = machine();
    const SeqCampaignConfig dflt = fault::defaultSeqConfig(net);
    const auto key = [](const SeqCampaignConfig &c) {
        return fault::canonicalSeqCampaignConfig(c.opts, c.spec);
    };
    for (const Point &p : grid) {
        const SeqCampaignConfig cli = parsed(dflt, p.argv, net);
        expectSame(cli, p.want, std::string(p.label) + ": argv");
        EXPECT_EQ(key(cli), p.key) << p.label;

        const SeqCampaignConfig worker = parsed(
            dflt, fault::seqCampaignWorkerArgs(cli.opts, cli.spec), net);
        expectSame(worker, p.want, std::string(p.label) + ": worker argv");
        EXPECT_EQ(key(worker), p.key) << p.label;

        SeqCampaignConfig sent = cli;
        const server::JobConfig job = submitted(
            "seq", server::configJson(fault::optionRows(sent)), net);
        expectSame({job.sopts, job.spec}, p.want,
                   std::string(p.label) + ": protocol");
        EXPECT_EQ(job.configKey, p.key) << p.label;
    }
}

TEST(OptionTable, SeqLanesZeroKeysTheResolvedWidth)
{
    // Lanes 0 runs the widest block of the resolved SIMD target, and
    // simd is not in the key, so the key must name the resolved width:
    // otherwise a 64-lane and a 512-lane verdict share one entry.
    const fault::SeqCampaignSpec spec;
    for (const SimdTarget simd : {SimdTarget::Portable, SimdTarget::Auto}) {
        fault::SeqCampaignOptions zero;
        zero.lanes = 0;
        zero.simd = simd;
        fault::SeqCampaignOptions resolved = zero;
        resolved.lanes =
            64 * sim::defaultLaneWords(sim::resolveSimdTarget(simd));
        EXPECT_EQ(fault::canonicalSeqCampaignConfig(zero, spec),
                  fault::canonicalSeqCampaignConfig(resolved, spec))
            << sim::simdTargetName(simd);
        EXPECT_EQ(fault::resolveSeqLanes(zero), resolved.lanes);
    }
    fault::SeqCampaignOptions portable;
    portable.lanes = 0;
    portable.simd = SimdTarget::Portable;
    EXPECT_NE(fault::canonicalSeqCampaignConfig(portable, spec)
                  .find(";lanes=64;"),
              std::string::npos);
}

TEST(OptionTable, BadValuesNameTheirOption)
{
    const netlist::Netlist net = machine();
    const auto cliError = [&](std::vector<std::string> args) {
        SeqCampaignConfig cfg = fault::defaultSeqConfig(net);
        try {
            parsed(cfg, args, net);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(cliError({"--window", "a:5"}),
              "--window needs a number, got 'a'");
    EXPECT_EQ(cliError({"--window", "5"}),
              "--window needs START:END in periods, got '5'");
    EXPECT_EQ(cliError({"--data", "1x"}), "--data needs a number, got '1x'");
    EXPECT_EQ(cliError({"--seed", "-3"}),
              "--seed needs a non-negative number, got '-3'");
    EXPECT_EQ(cliError({"--lanes", "99999999999"}),
              "--lanes is out of range: 99999999999");
    EXPECT_EQ(cliError({"--phi", "nope"}), "--phi: no input named 'nope'");
    EXPECT_EQ(cliError({"--simd", "sse9"}),
              "--simd needs auto|portable|avx2|avx512, got 'sse9'");
    EXPECT_EQ(cliError({"--symbols"}), "--symbols needs a value");

    // The lane width picks the replay route; no flag or key does.
    SeqCampaignConfig seq = fault::defaultSeqConfig(net);
    for (const char *retired : {"--seq-fault-batch", "--no-seq-fault-batch"}) {
        std::size_t i = 0;
        EXPECT_FALSE(fault::applyOptionFlag(fault::optionRows(seq),
                                            {retired}, &i, net))
            << retired;
    }

    const auto protocolError = [&](const char *kind, const char *key,
                                   server::jsonl::Value v) {
        server::jsonl::Object cfg;
        cfg.emplace_back(key, std::move(v));
        try {
            submitted(kind, server::jsonl::Value(std::move(cfg)), net);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    using server::jsonl::Value;
    EXPECT_EQ(protocolError("comb", "max_patterns", Value(-1)),
              "max_patterns needs a non-negative number, got '-1'");
    EXPECT_EQ(protocolError("comb", "seed", Value(1.5)),
              "seed needs a non-negative number, got '1.5'");
    EXPECT_EQ(protocolError("seq", "hold", Value("1,2")),
              "hold must be an array of indices");
    EXPECT_EQ(protocolError("seq", "hold", server::jsonl::parse("[1,\"x\"]")),
              "hold needs a number, got '\"x\"'");
    EXPECT_EQ(protocolError("seq", "window", Value("x:1")),
              "window needs a number, got 'x'");
    EXPECT_EQ(protocolError("seq", "drop", Value(1)), "drop must be a bool");
    EXPECT_EQ(protocolError("seq", "symbols", Value("64")),
              "symbols must be a number");
    EXPECT_EQ(protocolError("seq", "phi", Value(2)), "phi must be a string");
    EXPECT_EQ(protocolError("comb", "symbols", Value(8)),
              "unknown config key 'symbols'");
    EXPECT_EQ(protocolError("seq", "seq_fault_batch", Value(false)),
              "unknown config key 'seq_fault_batch'");
    EXPECT_EQ(protocolError("system", "seed", Value(8)),
              "unknown config key 'seed'");
}

TEST(OptionTable, ShardsKeyIsBounded)
{
    // A daemon started with --shard-exec forks one worker per shard at
    // once, so `shards` has the CLI's bound on shard counts; 0 and 1
    // run inline. Nothing is truncated to an int on the way.
    using server::jsonl::Value;
    const netlist::Netlist net = machine();
    for (const char *kind : {"comb", "seq"}) {
        const auto shards = [&](Value v) {
            server::jsonl::Object cfg;
            cfg.emplace_back("shards", std::move(v));
            try {
                return std::to_string(
                    submitted(kind, Value(std::move(cfg)), net).shards);
            } catch (const std::runtime_error &e) {
                return std::string(e.what());
            }
        };
        EXPECT_EQ(shards(Value(0)), "0") << kind;
        EXPECT_EQ(shards(Value(4096)), "4096") << kind;
        EXPECT_EQ(shards(Value(4097)), "shards must be 0..4096, got 4097")
            << kind;
        EXPECT_EQ(shards(Value(4294967298LL)),
                  "shards must be 0..4096, got 4294967298")
            << kind;
        EXPECT_EQ(shards(Value(-3)), "shards must be 0..4096, got -3")
            << kind;
    }
}

} // namespace
} // namespace scal
