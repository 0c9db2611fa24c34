/**
 * @file
 * The daemon's memo of decoded inline circuits (server/circuit_memo.hh):
 * a memoized JobConfig equals a fresh decode in every format with and
 * without hardening, and eviction keeps the bound. The end-to-end
 * cases (failed decodes, exact-text keys, path submits, concurrent
 * connections, stats) are ServerTest cases in test_server.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "netlist/circuits.hh"
#include "netlist/io.hh"
#include "server/circuit_memo.hh"
#include "server/jsonl.hh"
#include "server/protocol.hh"

namespace scal
{
namespace
{

using namespace server;

const char *const kBench = R"(# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

const char *const kSeqBench = R"(INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(d)
d = NAND(a, q)
z = NOR(q, b)
)";

const char *const kBlif = R"(.model golden
.inputs a b c
.outputs f g h
.names a b ab
11 1
.names ab c f
1- 1
01 1
.names a g
0 1
.names a b h
11 0
.end
)";

const char *const kVerilog = R"(// a 2-bit AND stage
module m(input [1:0] a, input [1:0] b, output [1:0] y, output z);
  wire t;
  and a0 (y[0], a[0], b[0]), a1 (y[1], a[1], b[1]);
  nor (t, a[0], b[1]);
  buf (z, t);
endmodule
)";

jsonl::Value
submit(const std::string &kind, const std::string &text,
       const std::string &format, bool harden, std::uint64_t seed = 1)
{
    jsonl::Object cfg;
    cfg.emplace_back("seed", jsonl::Value(seed));
    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("submit"));
    req.emplace_back("kind", jsonl::Value(kind));
    req.emplace_back("circuit", jsonl::Value(text));
    req.emplace_back("format", jsonl::Value(format));
    req.emplace_back("harden", jsonl::Value(harden));
    req.emplace_back("config", jsonl::Value(std::move(cfg)));
    return jsonl::Value(std::move(req));
}

void
expectSameJob(const JobConfig &got, const JobConfig &want)
{
    EXPECT_EQ(netlist::writeNetlistToString(got.net),
              netlist::writeNetlistToString(want.net));
    EXPECT_EQ(got.netHash, want.netHash);
    EXPECT_EQ(got.configKey, want.configKey);
    EXPECT_EQ(got.costEstimate, want.costEstimate);
}

TEST(CircuitMemo, MemoizedJobEqualsFreshDecodeInEveryFormat)
{
    struct Case
    {
        std::string kind, text, format;
    };
    const std::vector<Case> cases = {
        {"comb", kBench, "bench"},
        {"comb", kBlif, "blif"},
        {"comb", kVerilog, "verilog"},
        {"comb",
         netlist::writeNetlistToString(netlist::circuits::rippleCarryAdder(2)),
         "scal"},
        {"seq", kSeqBench, "bench"},
        {"comb", kBench, "auto"},
    };
    CircuitMemo memo;
    std::uint64_t lookups = 0;
    for (const Case &c : cases)
        for (const bool harden : {false, true}) {
            SCOPED_TRACE(c.format + (harden ? " hardened" : ""));
            const jsonl::Value req = submit(c.kind, c.text, c.format, harden);
            const JobConfig fresh = buildJobConfig(req);
            const JobConfig miss = buildJobConfig(req, &memo);
            const JobConfig hit = buildJobConfig(req, &memo);
            lookups += 2;
            expectSameJob(miss, fresh);
            expectSameJob(hit, fresh);
        }
    // Every (text, format, harden) is its own entry, "auto" included.
    const CircuitMemo::Stats s = memo.stats();
    EXPECT_EQ(s.entries, 2 * cases.size());
    EXPECT_EQ(s.hits, 2 * cases.size());
    EXPECT_EQ(s.hits + s.misses, lookups);
    EXPECT_GT(s.residentBytes, 0u);
}

TEST(CircuitMemo, EvictionKeepsTheBoundLeastRecentlyUsedFirst)
{
    // Texts of one length that differ in a comment: one netlist, so
    // every entry has the same resident size.
    const auto text = [](std::size_t i) {
        char tag[16];
        std::snprintf(tag, sizeof tag, "# %04zu\n", i);
        return tag + std::string(kBench);
    };
    const auto req = [&](std::size_t i) {
        return submit("comb", text(i), "bench", false);
    };
    CircuitMemo memo;
    buildJobConfig(req(0), &memo);
    const std::size_t entryBytes = memo.stats().residentBytes;
    ASSERT_GT(entryBytes, std::string(kBench).size());
    for (std::size_t i = 1; i < CircuitMemo::kMaxEntries; ++i)
        buildJobConfig(req(i), &memo);
    EXPECT_EQ(memo.stats().entries, CircuitMemo::kMaxEntries);

    // Touch entry 0, then overflow by four: entries 1..4 go.
    buildJobConfig(req(0), &memo);
    for (std::size_t i = 0; i < 4; ++i)
        buildJobConfig(req(CircuitMemo::kMaxEntries + i), &memo);
    CircuitMemo::Stats s = memo.stats();
    EXPECT_EQ(s.entries, CircuitMemo::kMaxEntries);
    EXPECT_EQ(s.residentBytes, CircuitMemo::kMaxEntries * entryBytes);
    EXPECT_LE(s.residentBytes, CircuitMemo::kMaxBytes);
    const std::uint64_t hits = s.hits;
    buildJobConfig(req(0), &memo);
    buildJobConfig(req(5), &memo);
    EXPECT_EQ(memo.stats().hits, hits + 2);
    buildJobConfig(req(1), &memo); // evicted: decoded again
    EXPECT_EQ(memo.stats().hits, hits + 2);
    EXPECT_EQ(memo.stats().entries, CircuitMemo::kMaxEntries);
}

} // namespace
} // namespace scal
