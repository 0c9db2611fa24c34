/**
 * @file
 * Bit-identity of the width-generic SIMD kernels (sim/wide.hh): the
 * same circuit, patterns and faults must produce identical line
 * values, alternating masks and campaign verdicts at every (lane
 * width, dispatch target, jobs) combination — portable one-word,
 * portable multi-word, AVX2 and AVX-512 where the CPU supports them.
 * On machines without a vector ISA the explicit targets clamp to the
 * widest available build, so every case still runs (it just compares
 * a build against itself).
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "netlist/circuits.hh"
#include "netlist/structure.hh"
#include "oracle/seq_fault_simulator.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "seq/registers.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "sim/gate_eval.hh"
#include "sim/seq_fault_sim.hh"
#include "sim/simd.hh"
#include "sim/wide.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using namespace netlist;

const sim::SimdTarget kTargets[] = {sim::SimdTarget::Portable,
                                    sim::SimdTarget::Avx2,
                                    sim::SimdTarget::Avx512};
const int kWidths[] = {1, 4, 8};

std::string
caseName(int lane_words, sim::SimdTarget t)
{
    return std::string(sim::simdTargetName(t)) + "/W" +
           std::to_string(lane_words);
}

/** Random ni*W input block, one draw per word. */
std::vector<std::uint64_t>
randomBlock(int ni, int lane_words, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::uint64_t> in(
        static_cast<std::size_t>(ni) * lane_words);
    for (auto &w : in)
        w = rng.next();
    return in;
}

/** Word @p w of every input of a wide block, as a 1-word block. */
std::vector<std::uint64_t>
narrowBlock(const std::vector<std::uint64_t> &wide, int ni,
            int lane_words, int w)
{
    std::vector<std::uint64_t> in(static_cast<std::size_t>(ni));
    for (int i = 0; i < ni; ++i)
        in[static_cast<std::size_t>(i)] =
            wide[static_cast<std::size_t>(i) * lane_words + w];
    return in;
}

TEST(SimdPolicy, ParseNamesAndLaneMath)
{
    sim::SimdTarget t;
    EXPECT_TRUE(sim::parseSimdTarget("auto", &t));
    EXPECT_EQ(t, sim::SimdTarget::Auto);
    EXPECT_TRUE(sim::parseSimdTarget("portable", &t));
    EXPECT_EQ(t, sim::SimdTarget::Portable);
    EXPECT_TRUE(sim::parseSimdTarget("avx2", &t));
    EXPECT_EQ(t, sim::SimdTarget::Avx2);
    EXPECT_TRUE(sim::parseSimdTarget("avx512", &t));
    EXPECT_EQ(t, sim::SimdTarget::Avx512);
    EXPECT_FALSE(sim::parseSimdTarget("sse9", &t));
    EXPECT_FALSE(sim::parseSimdTarget(nullptr, &t));

    for (const sim::SimdTarget x : kTargets) {
        sim::SimdTarget back;
        ASSERT_TRUE(sim::parseSimdTarget(sim::simdTargetName(x), &back));
        EXPECT_EQ(back, x);
    }

    EXPECT_EQ(sim::laneWordsForLanes(1), 1);
    EXPECT_EQ(sim::laneWordsForLanes(64), 1);
    EXPECT_EQ(sim::laneWordsForLanes(65), 4);
    EXPECT_EQ(sim::laneWordsForLanes(256), 4);
    EXPECT_EQ(sim::laneWordsForLanes(257), 8);
    EXPECT_EQ(sim::laneWordsForLanes(512), 8);
    EXPECT_THROW(sim::laneWordsForLanes(0), std::invalid_argument);
    EXPECT_THROW(sim::laneWordsForLanes(513), std::invalid_argument);

    EXPECT_EQ(sim::defaultLaneWords(sim::SimdTarget::Portable), 1);
    EXPECT_EQ(sim::defaultLaneWords(sim::SimdTarget::Avx2), 4);
    EXPECT_EQ(sim::defaultLaneWords(sim::SimdTarget::Avx512), 8);
}

TEST(SimdPolicy, ResolveClampsToNative)
{
    const sim::SimdTarget native = sim::nativeSimdTarget();
    EXPECT_GE(native, sim::SimdTarget::Portable);
    EXPECT_EQ(sim::resolveSimdTarget(sim::SimdTarget::Portable),
              sim::SimdTarget::Portable);
    EXPECT_EQ(sim::resolveSimdTarget(native), native);
    // An explicit request wider than the CPU clamps down, never up.
    EXPECT_LE(sim::resolveSimdTarget(sim::SimdTarget::Avx512), native);
    if (native < sim::SimdTarget::Avx512) {
        EXPECT_EQ(sim::resolveSimdTarget(sim::SimdTarget::Avx512), native);
    }
}

TEST(SimdKernels, TablesResolveForEveryWidth)
{
    for (const int W : kWidths) {
        for (const sim::SimdTarget t : kTargets) {
            const sim::detail::WideKernels &k = sim::wideKernels(W, t);
            EXPECT_EQ(k.laneWords, W);
            // The table only falls back toward narrower builds.
            EXPECT_LE(k.target, sim::resolveSimdTarget(t));
        }
    }
    EXPECT_THROW(sim::wideKernels(2), std::invalid_argument);
    EXPECT_THROW(sim::wideKernels(0), std::invalid_argument);
    EXPECT_THROW(sim::wideKernels(16), std::invalid_argument);
}

/** The event-driven replay kernel, called directly on a hand-built
 *  netlist: it recomputes only gates with a changed fan-in or an
 *  injection, each at most once, never a forced gate or a flip-flop,
 *  and leaves its event bitset all zero. */
TEST(SimdKernels, ReplayEventsRecomputesOnlyEventGates)
{
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId b = net.addInput("b");
    const GateId x = net.addInput("x");
    const GateId y = net.addInput("y");
    const GateId n1 = net.addNot(a, "n1");
    const GateId n2 = net.addAnd({n1, b}, "n2"); // b = 0 blocks n1
    const GateId n3 = net.addBuf(n2, "n3");
    const GateId u = net.addBuf(x, "u");
    const GateId v = net.addBuf(y, "v");
    const GateId s = net.addOr({u, v}, "s"); // shared by x and y
    const GateId t = net.addNot(s, "t");
    const GateId ff = net.addDff(t, "ff");
    const GateId q = net.addBuf(ff, "q");
    net.addOutput(n3, "o1");
    net.addOutput(t, "o2");
    net.addOutput(q, "o3");
    const GateId z = net.addInput("z");
    constexpr int kChain = 150;
    std::vector<GateId> chain{z};
    for (int i = 0; i < kChain; ++i)
        chain.push_back(net.addBuf(chain.back()));
    net.addOutput(chain.back(), "o4");
    const sim::FlatNetlist flat(net);
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    const std::uint64_t kPattern = 0xf0f0f0f00ff00ff0ull;

    for (const int W : kWidths) {
        for (const sim::SimdTarget target : kTargets) {
            const sim::detail::WideKernels &k = sim::wideKernels(W, target);
            SCOPED_TRACE(caseName(W, k.target));
            const std::size_t Ws = static_cast<std::size_t>(W);
            // a random, b = x = y = z = 0, flip-flop state 0.
            std::vector<std::uint64_t> in(5 * Ws, 0);
            util::Rng rng(0x5eed);
            for (std::size_t w = 0; w < Ws; ++w)
                in[w] = rng.next();
            const std::vector<std::uint64_t> state(Ws, 0);
            sim::WordVec good(n * Ws), faulty(n * Ws);
            k.evalLines(flat, in.data(), state.data(), -1, 0, good.data());
            std::vector<std::uint32_t> stamp(n, 0), forced(n, 0);
            std::vector<std::uint64_t> events(sim::detail::eventWords(flat),
                                              0);
            std::vector<const std::uint64_t *> ptrs(
                static_cast<std::size_t>(flat.maxArity()));
            std::uint32_t epoch = 0;

            const auto word = [&](GateId g, std::size_t w) {
                return (stamp[g] == epoch ? faulty : good)
                    [static_cast<std::size_t>(g) * Ws + w];
            };
            // Force @p g to @p value in every word, stamping it where
            // that differs from the good line.
            const auto force = [&](GateId g, std::uint64_t value) {
                forced[g] = epoch;
                bool diff = false;
                for (std::size_t w = 0; w < Ws; ++w) {
                    faulty[static_cast<std::size_t>(g) * Ws + w] = value;
                    diff |=
                        value != good[static_cast<std::size_t>(g) * Ws + w];
                }
                if (diff)
                    stamp[g] = epoch;
            };
            const auto replay = [&](const std::vector<GateId> &seeds) {
                const std::size_t r = k.replayEvents(
                    flat, good.data(), faulty.data(), stamp.data(),
                    forced.data(), epoch, nullptr, seeds.data(),
                    seeds.size(), nullptr, 0, nullptr, 0, events.data(),
                    ptrs.data());
                for (const std::uint64_t e : events)
                    EXPECT_EQ(e, 0u);
                return r;
            };

            // A stem fault on n1, blocked in every lane by b = 0 at its
            // only consumer: n2 is recomputed and nothing is stamped.
            ++epoch;
            forced[n1] = stamp[n1] = epoch;
            for (std::size_t w = 0; w < Ws; ++w)
                faulty[static_cast<std::size_t>(n1) * Ws + w] =
                    ~good[static_cast<std::size_t>(n1) * Ws + w];
            EXPECT_EQ(replay({n1}), 1u);
            EXPECT_NE(stamp[n2], epoch);
            EXPECT_NE(stamp[n3], epoch);

            // Two flipped seeds whose cones share s and t: u, v, s and
            // t are each recomputed once; the flip-flop fed by t and
            // its consumer q are neither recomputed nor stamped.
            ++epoch;
            force(x, ~std::uint64_t{0});
            force(y, ~std::uint64_t{0});
            EXPECT_EQ(replay({x, y}), 4u);
            for (const GateId g : {u, v, s, t})
                EXPECT_EQ(stamp[g], epoch) << "gate " << g;
            EXPECT_NE(stamp[ff], epoch);
            EXPECT_NE(stamp[q], epoch);
            for (std::size_t w = 0; w < Ws; ++w)
                EXPECT_EQ(word(t, w), 0u);

            // A forced seed downstream of another: s keeps its forced
            // value (recomputing it would give all-ones), so only u
            // and t are recomputed and t reads the forced s.
            ++epoch;
            force(x, ~std::uint64_t{0});
            force(s, kPattern);
            EXPECT_EQ(replay({x, s}), 2u);
            for (std::size_t w = 0; w < Ws; ++w) {
                EXPECT_EQ(word(s, w), kPattern);
                EXPECT_EQ(word(t, w), ~kPattern);
            }
            EXPECT_NE(stamp[v], epoch);
            EXPECT_NE(stamp[ff], epoch);

            // A flip that crosses several bitset words: every gate of
            // the buffer chain is recomputed once.
            ++epoch;
            force(z, ~std::uint64_t{0});
            EXPECT_EQ(replay({z}), static_cast<std::size_t>(kChain));
            EXPECT_EQ(stamp[chain.back()], epoch);
        }
    }
}

/** The skip mask, called directly on the replay kernel: a masked
 *  gate is neither recomputed nor stamped, and it marks no consumer,
 *  also when it is a seed the caller stamped or sits where the sweep
 *  crosses bitset words; the pending bitset comes back all zero and
 *  a null mask skips nothing. */
TEST(SimdKernels, ReplayEventsSkipsMaskedGates)
{
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId x = net.addInput("x");
    const GateId z = net.addInput("z");
    const GateId u = net.addBuf(x, "u");
    const GateId m = net.addAnd({u, a}, "m"); // the masked gate
    const GateId o = net.addBuf(m, "o");
    net.addOutput(o, "o1");
    constexpr int kChain = 150;
    constexpr int kMaskedLink = 100;
    std::vector<GateId> chain{z};
    for (int i = 0; i < kChain; ++i)
        chain.push_back(net.addBuf(chain.back()));
    net.addOutput(chain.back(), "o2");
    const sim::FlatNetlist flat(net);
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    ASSERT_NE(flat.topoPos(chain[kMaskedLink]) / 64,
              flat.topoPos(chain.back()) / 64);
    std::vector<std::uint8_t> skip(n, 0);
    skip[static_cast<std::size_t>(m)] = 1;
    skip[static_cast<std::size_t>(chain[kMaskedLink])] = 1;

    for (const int W : kWidths) {
        for (const sim::SimdTarget target : kTargets) {
            const sim::detail::WideKernels &k = sim::wideKernels(W, target);
            SCOPED_TRACE(caseName(W, k.target));
            const std::size_t Ws = static_cast<std::size_t>(W);
            // a = 1 so that m follows u; x = z = 0.
            std::vector<std::uint64_t> in(3 * Ws, 0);
            for (std::size_t w = 0; w < Ws; ++w)
                in[w] = ~std::uint64_t{0};
            sim::WordVec good(n * Ws), faulty(n * Ws);
            k.evalLines(flat, in.data(), nullptr, -1, 0, good.data());
            std::vector<std::uint32_t> stamp(n, 0), forced(n, 0);
            std::vector<std::uint64_t> events(sim::detail::eventWords(flat),
                                              0);
            std::vector<const std::uint64_t *> ptrs(
                static_cast<std::size_t>(flat.maxArity()));
            std::uint32_t epoch = 0;
            const auto flip = [&](GateId g) {
                forced[g] = stamp[g] = epoch;
                for (std::size_t w = 0; w < Ws; ++w)
                    faulty[static_cast<std::size_t>(g) * Ws + w] =
                        ~good[static_cast<std::size_t>(g) * Ws + w];
            };
            const auto replay = [&](const std::vector<GateId> &seeds,
                                    const std::uint8_t *mask) {
                const std::size_t r = k.replayEvents(
                    flat, good.data(), faulty.data(), stamp.data(),
                    forced.data(), epoch, mask, seeds.data(), seeds.size(),
                    nullptr, 0, nullptr, 0, events.data(), ptrs.data());
                for (const std::uint64_t e : events)
                    EXPECT_EQ(e, 0u);
                return r;
            };

            // Unmasked, a flip of x reaches u, m and o.
            ++epoch;
            flip(x);
            EXPECT_EQ(replay({x}, nullptr), 3u);
            EXPECT_EQ(stamp[o], epoch);

            // Masked, it stops at m: only u is recomputed.
            ++epoch;
            flip(x);
            EXPECT_EQ(replay({x}, skip.data()), 1u);
            EXPECT_EQ(stamp[u], epoch);
            EXPECT_NE(stamp[m], epoch);
            EXPECT_NE(stamp[o], epoch);

            // A masked seed the caller stamped marks no consumer.
            ++epoch;
            flip(m);
            EXPECT_EQ(replay({m}, skip.data()), 0u);
            EXPECT_EQ(stamp[m], epoch);
            EXPECT_NE(stamp[o], epoch);

            // A masked link of a chain that spans bitset words: the
            // links before it are recomputed, none after it.
            ++epoch;
            flip(z);
            EXPECT_EQ(replay({z}, skip.data()),
                      static_cast<std::size_t>(kMaskedLink - 1));
            EXPECT_EQ(stamp[chain[kMaskedLink - 1]], epoch);
            for (int i = kMaskedLink; i <= kChain; ++i)
                EXPECT_NE(stamp[chain[static_cast<std::size_t>(i)]], epoch)
                    << "link " << i;
            ++epoch;
            flip(z);
            EXPECT_EQ(replay({z}, nullptr),
                      static_cast<std::size_t>(kChain));
        }
    }
}

/** Branch and stem injections, called directly on the replay kernel:
 *  they apply exactly at their target gates, only in their masked
 *  lanes and only when an event reaches the target. The kernel looks
 *  targets up by GateId mod 64, so two targets and one non-target
 *  share a residue, and one stem target has a residue of its own.
 *  Every line and the recompute count must match a plain per-gate
 *  evaluation of the same events. */
TEST(SimdKernels, ReplayEventsAppliesInjectionsOnlyAtTargets)
{
    Netlist net;
    const GateId a = net.addInput("a");
    const GateId b = net.addInput("b");
    const GateId c = net.addInput("c");
    const GateId d = net.addInput("d");
    const GateId e = net.addInput("e");
    const auto padTo = [&](GateId residue_of) {
        GateId last = e;
        while (net.numGates() % 64 != residue_of % 64)
            last = net.addBuf(last);
        return last;
    };
    const GateId stemTarget = net.addAnd({a, b}, "stem_target");
    padTo(stemTarget);
    const GateId branchTarget =
        net.addOr({stemTarget, c}, "branch_target");
    const GateId pad = padTo(stemTarget);
    const GateId shared = net.addXor({branchTarget, d}, "shared");
    const GateId both = net.addNand({shared, c}, "both");
    const GateId unreached = net.addNor({d, e}, "unreached");
    const GateId lone = net.addNot(a, "lone_stem");
    net.addOutput(both, "o1");
    net.addOutput(unreached, "o2");
    net.addOutput(pad, "o3");
    net.addOutput(lone, "o4");
    ASSERT_EQ(branchTarget % 64, stemTarget % 64);
    ASSERT_EQ(shared % 64, stemTarget % 64);
    ASSERT_NE(lone % 64, stemTarget % 64);
    ASSERT_NE(lone % 64, both % 64);
    const sim::FlatNetlist flat(net);
    const std::size_t n = static_cast<std::size_t>(flat.numGates());

    for (const int W : kWidths) {
        for (const sim::SimdTarget target : kTargets) {
            const sim::detail::WideKernels &k = sim::wideKernels(W, target);
            SCOPED_TRACE(caseName(W, k.target));
            const std::size_t Ws = static_cast<std::size_t>(W);
            util::Rng rng(0x1a7e5 + static_cast<std::uint64_t>(W));
            const auto block = [&] {
                std::vector<std::uint64_t> v(Ws);
                for (auto &x : v)
                    x = rng.next();
                return v;
            };
            const auto in = block(), in2 = block(), in3 = block(),
                       in4 = block(), in5 = block();
            std::vector<std::uint64_t> inputs(5 * Ws);
            for (std::size_t w = 0; w < Ws; ++w) {
                inputs[0 * Ws + w] = in[w];
                inputs[1 * Ws + w] = in2[w];
                inputs[2 * Ws + w] = in3[w];
                inputs[3 * Ws + w] = in4[w];
                inputs[4 * Ws + w] = in5[w];
            }
            sim::WordVec good(n * Ws), faulty(n * Ws);
            k.evalLines(flat, inputs.data(), nullptr, -1, 0, good.data());
            std::vector<std::uint32_t> stamp(n, 0), forced(n, 0);
            std::vector<std::uint64_t> events(sim::detail::eventWords(flat),
                                              0);
            std::vector<const std::uint64_t *> ptrs(
                static_cast<std::size_t>(flat.maxArity()));
            const std::uint32_t epoch = 1;

            // Input a flips in the lanes of one random mask.
            const auto flip = block();
            forced[a] = stamp[a] = epoch;
            for (std::size_t w = 0; w < Ws; ++w)
                faulty[static_cast<std::size_t>(a) * Ws + w] =
                    good[static_cast<std::size_t>(a) * Ws + w] ^ flip[w];

            // Lane-masked injections: a stem on stem_target, a branch
            // on branch_target's pin 0, a branch and a stem on both, a
            // stem on unreached, which no event reaches, and a stem on
            // lone_stem, the only target with its residue.
            const auto v1 = block(), m1 = block(), v2 = block(),
                       m2 = block(), v3 = block(), m3 = block(),
                       v4 = block(), m4 = block(), v5 = block(),
                       m5 = block(), v6 = block(), m6 = block();
            const std::vector<sim::detail::WideBranchInj> binj = {
                {branchTarget, stemTarget, 0, v2.data(), m2.data()},
                {both, c, 1, v3.data(), m3.data()}};
            const std::vector<sim::detail::WideStemInj> sinj = {
                {stemTarget, v1.data(), m1.data()},
                {both, v4.data(), m4.data()},
                {unreached, v5.data(), m5.data()},
                {lone, v6.data(), m6.data()}};
            const std::vector<GateId> seeds = {a, branchTarget, both};

            // Reference: one gate at a time in topological order. A
            // gate is recomputed when it is a seed or reads a changed
            // fan-in, word by word with its injections applied.
            std::vector<std::uint64_t> ref(good.begin(), good.end());
            std::vector<char> changed(n, 0), seeded(n, 0);
            for (const GateId s : seeds)
                seeded[static_cast<std::size_t>(s)] = 1;
            std::size_t want = 0;
            std::vector<std::uint64_t> pins(
                static_cast<std::size_t>(flat.maxArity()));
            for (const GateId g : flat.topoOrder()) {
                const std::size_t at = static_cast<std::size_t>(g) * Ws;
                if (forced[g] == epoch) {
                    for (std::size_t w = 0; w < Ws; ++w) {
                        ref[at + w] = faulty[at + w];
                        changed[g] |= ref[at + w] != good[at + w];
                    }
                    continue;
                }
                const GateId *fi = flat.fanins(g);
                const int ar = flat.arity(g);
                bool reached = seeded[g] != 0;
                for (int p = 0; p < ar; ++p)
                    reached |= changed[fi[p]] != 0;
                if (!reached)
                    continue;
                ++want;
                for (std::size_t w = 0; w < Ws; ++w) {
                    for (int p = 0; p < ar; ++p)
                        pins[p] = ref[static_cast<std::size_t>(fi[p]) * Ws +
                                      w];
                    for (const auto &bi : binj)
                        if (bi.consumer == g)
                            pins[bi.pin] = (pins[bi.pin] & ~bi.mask[w]) |
                                           (bi.value[w] & bi.mask[w]);
                    std::uint64_t v = sim::detail::evalGateWord(
                        flat.kind(g), pins.data(), ar);
                    for (const auto &si : sinj)
                        if (si.gate == g)
                            v = (v & ~si.mask[w]) |
                                (si.value[w] & si.mask[w]);
                    ref[at + w] = v;
                    changed[g] |= v != good[at + w];
                }
            }
            ASSERT_TRUE(changed[static_cast<std::size_t>(shared)]);
            ASSERT_FALSE(seeded[static_cast<std::size_t>(unreached)]);

            const std::size_t got = k.replayEvents(
                flat, good.data(), faulty.data(), stamp.data(),
                forced.data(), epoch, nullptr, seeds.data(), seeds.size(),
                binj.data(), binj.size(), sinj.data(), sinj.size(),
                events.data(), ptrs.data());
            EXPECT_EQ(got, want);
            for (const std::uint64_t ev : events)
                EXPECT_EQ(ev, 0u);
            for (std::size_t g = 0; g < n; ++g)
                for (std::size_t w = 0; w < Ws; ++w)
                    ASSERT_EQ(
                        (stamp[g] == epoch ? faulty : good)[g * Ws + w],
                        ref[g * Ws + w])
                        << "gate " << g << " word " << w;
        }
    }
}

/** Fault-free line values: every (width, target) pair must agree with
 *  the portable one-word build word for word, on random netlists over
 *  the full gate alphabet. */
TEST(SimdKernels, GoodLinesIdenticalAcrossWidthsAndTargets)
{
    util::Rng rng(0xd15f);
    for (int round = 0; round < 6; ++round) {
        const Netlist net =
            testing::randomNetlist(4 + static_cast<int>(rng.below(4)),
                                   12 + static_cast<int>(rng.below(20)),
                                   rng);
        const sim::FlatNetlist flat(net);
        const int ni = net.numInputs();
        const auto wide = randomBlock(ni, 8, rng.next());

        // Reference: one-word portable runs, one per 64-lane word.
        sim::FaultSimulator ref(flat, 1, sim::SimdTarget::Portable);
        std::vector<std::vector<std::uint64_t>> refLines(8);
        for (int w = 0; w < 8; ++w) {
            ref.setBaseline(narrowBlock(wide, ni, 8, w));
            refLines[w].assign(ref.goodLines().begin(),
                               ref.goodLines().end());
        }

        for (const int W : kWidths) {
            // The W-word block reuses the first W words of the wide one.
            std::vector<std::uint64_t> in(
                static_cast<std::size_t>(ni) * W);
            for (int i = 0; i < ni; ++i)
                for (int w = 0; w < W; ++w)
                    in[static_cast<std::size_t>(i) * W + w] =
                        wide[static_cast<std::size_t>(i) * 8 + w];
            for (const sim::SimdTarget t : kTargets) {
                SCOPED_TRACE(caseName(W, t));
                sim::FaultSimulator fs(flat, W, t);
                fs.setBaseline(in);
                const auto &lines = fs.goodLines();
                for (int g = 0; g < flat.numGates(); ++g)
                    for (int w = 0; w < W; ++w)
                        ASSERT_EQ(
                            lines[static_cast<std::size_t>(g) * W + w],
                            refLines[w][static_cast<std::size_t>(g)])
                            << "gate " << g << " word " << w;
            }
        }
    }
}

/** Per-fault alternating masks: word w of a wide classification must
 *  equal the one-word portable classification fed word w's patterns,
 *  for every width and dispatch target. */
TEST(SimdKernels, AlternatingMasksIdenticalAcrossWidthsAndTargets)
{
    std::vector<std::pair<std::string, Netlist>> nets;
    nets.emplace_back("selfDualFullAdder", circuits::selfDualFullAdder());
    nets.emplace_back("xorTree5", circuits::xorTree(5));

    for (auto &[name, net] : nets) {
        SCOPED_TRACE(name);
        const sim::FlatNetlist flat(net);
        const int ni = net.numInputs();
        const auto wide = randomBlock(ni, 8, 0xabcd + ni);
        const std::vector<Fault> faults = net.allFaults();

        sim::FaultSimulator ref(flat, 1, sim::SimdTarget::Portable);
        std::vector<std::vector<sim::WideMasks>> refMasks(8);
        for (int w = 0; w < 8; ++w) {
            ref.setAlternatingBlock(narrowBlock(wide, ni, 8, w));
            for (const Fault &f : faults)
                refMasks[w].push_back(ref.classifyAlternatingWide(f));
        }

        for (const int W : kWidths) {
            std::vector<std::uint64_t> in(
                static_cast<std::size_t>(ni) * W);
            for (int i = 0; i < ni; ++i)
                for (int w = 0; w < W; ++w)
                    in[static_cast<std::size_t>(i) * W + w] =
                        wide[static_cast<std::size_t>(i) * 8 + w];
            for (const sim::SimdTarget t : kTargets) {
                SCOPED_TRACE(caseName(W, t));
                sim::FaultSimulator fs(flat, W, t);
                fs.setAlternatingBlock(in);
                for (std::size_t k = 0; k < faults.size(); ++k) {
                    const sim::WideMasks m =
                        fs.classifyAlternatingWide(faults[k]);
                    for (int w = 0; w < W; ++w) {
                        const sim::WideMasks &r = refMasks[w][k];
                        ASSERT_EQ(m.anyErr[w], r.anyErr[0]);
                        ASSERT_EQ(m.nonAlt[w], r.nonAlt[0]);
                        ASSERT_EQ(m.incorrect[w], r.incorrect[0]);
                        ASSERT_EQ(m.unsafeWord(w), r.unsafeWord(0));
                    }
                    // Inactive words must stay zero.
                    for (int w = W; w < sim::kMaxLaneWords; ++w) {
                        ASSERT_EQ(m.anyErr[w], 0u);
                        ASSERT_EQ(m.incorrect[w], 0u);
                    }
                }
            }
        }
    }
}

/** Full combinational campaigns must be bit-identical across lanes,
 *  dispatch targets and jobs counts. */
TEST(Campaign, VerdictsIdenticalAcrossLanesSimdJobs)
{
    std::vector<std::pair<std::string, Netlist>> nets;
    nets.emplace_back("selfDualFullAdder", circuits::selfDualFullAdder());
    nets.emplace_back("xorTree7", circuits::xorTree(7));

    for (auto &[name, net] : nets) {
        SCOPED_TRACE(name);
        fault::CampaignOptions base;
        base.seed = 11;
        base.maxPatterns = 1 << 10;
        base.jobs = 1;
        base.lanes = 64;
        base.simd = sim::SimdTarget::Portable;
        const auto ref = fault::runAlternatingCampaign(net, base);

        for (const int lanes : {64, 256, 512}) {
            for (const sim::SimdTarget t : kTargets) {
                for (const int jobs : {1, 2, 8}) {
                    SCOPED_TRACE(caseName(lanes / 64, t) + "/j" +
                                 std::to_string(jobs));
                    fault::CampaignOptions opts = base;
                    opts.lanes = lanes;
                    opts.simd = t;
                    opts.jobs = jobs;
                    const auto res =
                        fault::runAlternatingCampaign(net, opts);
                    EXPECT_EQ(res.lanes, lanes);
                    EXPECT_EQ(res.numDetected, ref.numDetected);
                    EXPECT_EQ(res.numUnsafe, ref.numUnsafe);
                    EXPECT_EQ(res.numUntestable, ref.numUntestable);
                    ASSERT_EQ(res.faults.size(), ref.faults.size());
                    for (std::size_t k = 0; k < ref.faults.size(); ++k) {
                        ASSERT_EQ(res.faults[k].outcome,
                                  ref.faults[k].outcome)
                            << faultToString(net, ref.faults[k].fault);
                        ASSERT_EQ(res.faults[k].unsafePatterns,
                                  ref.faults[k].unsafePatterns)
                            << faultToString(net, ref.faults[k].fault);
                    }
                }
            }
        }
    }
}

/** Per-period faulty output matrix: trace outputs overwritten by every
 *  delivered divergence row (undelivered periods are bit-identical to
 *  the good machine by the kernel's contract). */
std::vector<std::uint64_t>
faultyMatrix(const sim::SeqGoodTrace &trace, const Fault &f)
{
    const int no = trace.flat().numOutputs();
    const int W = trace.laneWords();
    const std::size_t row = static_cast<std::size_t>(no) * W;
    const long T = trace.numPeriods();
    std::vector<std::uint64_t> m(static_cast<std::size_t>(T) * row);
    for (long t = 0; t < T; ++t)
        std::copy(trace.outputs(t), trace.outputs(t) + row,
                  m.begin() + static_cast<std::size_t>(t) * row);
    oracle::SeqFaultSimulator fs(trace);
    fs.runFault(f, [&](long t, std::uint64_t,
                       const std::uint64_t *outs) {
        std::copy(outs, outs + row,
                  m.begin() + static_cast<std::size_t>(t) * row);
        return true;
    });
    return m;
}

/** Sequential kernel word-embedding: word w of a wide trace (and of
 *  every fault replay over it) evolves exactly as an independent
 *  one-word trace fed word w of every input — across all dispatch
 *  targets. */
TEST(SeqSimd, WideTraceAndReplayMatchNarrowWordStreams)
{
    struct Machine
    {
        std::string name;
        Netlist net;
        int phiInput;
    };
    std::vector<Machine> ms;
    {
        auto sm = seq::reynoldsDetector();
        ms.push_back({"reynolds", std::move(sm.net), sm.phiInput});
    }
    {
        auto sm = seq::translatorDetector();
        ms.push_back({"translator", std::move(sm.net), sm.phiInput});
    }

    constexpr long kPeriods = 20;
    constexpr int W = 8;
    for (Machine &m : ms) {
        SCOPED_TRACE(m.name);
        const sim::FlatNetlist flat(m.net);
        const int ni = m.net.numInputs();
        const int no = m.net.numOutputs();
        const int nff = flat.numFlipFlops();

        // One wide stream: periods x (ni * W) words.
        util::Rng rng(0x5eed + ni);
        std::vector<std::vector<std::uint64_t>> in(
            kPeriods, std::vector<std::uint64_t>(
                          static_cast<std::size_t>(ni) * W));
        for (auto &p : in)
            for (auto &w : p)
                w = rng.next();

        // Narrow references, one per word.
        std::vector<sim::SeqGoodTrace> narrow;
        narrow.reserve(W);
        for (int w = 0; w < W; ++w) {
            narrow.emplace_back(flat, m.phiInput, 1,
                                sim::SimdTarget::Portable);
            for (long t = 0; t < kPeriods; ++t)
                narrow[w].stepPeriod(
                    narrowBlock(in[t], ni, W, w).data());
        }

        for (const sim::SimdTarget tgt : kTargets) {
            SCOPED_TRACE(caseName(W, tgt));
            sim::SeqGoodTrace wide(flat, m.phiInput, W, tgt);
            for (long t = 0; t < kPeriods; ++t)
                wide.stepPeriod(in[t].data());

            for (long t = 0; t < kPeriods; ++t)
                for (int w = 0; w < W; ++w) {
                    for (int j = 0; j < no; ++j)
                        ASSERT_EQ(
                            wide.outputs(t)[j * W + w],
                            narrow[w].outputs(t)[j])
                            << "t=" << t << " out=" << j << " w=" << w;
                    for (int i = 0; i < nff; ++i)
                        ASSERT_EQ(wide.state(t)[i * W + w],
                                  narrow[w].state(t)[i])
                            << "t=" << t << " ff=" << i << " w=" << w;
                }

            for (const Fault &f : m.net.allFaults()) {
                const auto wm = faultyMatrix(wide, f);
                for (int w = 0; w < W; ++w) {
                    const auto nm = faultyMatrix(narrow[w], f);
                    for (long t = 0; t < kPeriods; ++t)
                        for (int j = 0; j < no; ++j)
                            ASSERT_EQ(
                                wm[(static_cast<std::size_t>(t) * no +
                                    j) *
                                       W +
                                   w],
                                nm[static_cast<std::size_t>(t) * no + j])
                                << faultToString(m.net, f) << " t=" << t
                                << " out=" << j << " w=" << w;
                }
            }
        }
    }
}

/** Sequential campaigns must be bit-identical across dispatch targets
 *  and jobs counts at any fixed lane count (including widths above 64
 *  and partial final words). */
TEST(SeqSimd, SeqCampaignIdenticalAcrossSimdAndJobs)
{
    struct Case
    {
        std::string name;
        Netlist net;
        fault::SeqCampaignSpec spec;
    };
    std::vector<Case> cases;
    {
        auto sm = seq::translatorDetector();
        auto spec = seq::campaignSpec(sm);
        cases.push_back({"translator", std::move(sm.net), spec});
    }
    {
        auto sm = seq::selfDualAccumulator(4);
        auto spec = seq::campaignSpec(sm);
        cases.push_back({"accumulator4", std::move(sm.net), spec});
    }

    for (auto &c : cases) {
        SCOPED_TRACE(c.name);
        for (const int lanes : {64, 100, 512}) {
            fault::SeqCampaignOptions base;
            base.symbols = 16;
            base.lanes = lanes;
            base.seed = 3;
            base.jobs = 1;
            base.simd = sim::SimdTarget::Portable;
            const auto ref =
                fault::runSequentialCampaign(c.net, c.spec, base);
            EXPECT_EQ(ref.lanes, lanes);

            for (const sim::SimdTarget t : kTargets) {
                for (const int jobs : {1, 2, 8}) {
                    SCOPED_TRACE(std::string(sim::simdTargetName(t)) +
                                 "/l" + std::to_string(lanes) + "/j" +
                                 std::to_string(jobs));
                    fault::SeqCampaignOptions opts = base;
                    opts.simd = t;
                    opts.jobs = jobs;
                    const auto res =
                        fault::runSequentialCampaign(c.net, c.spec, opts);
                    EXPECT_EQ(res.numDetected, ref.numDetected);
                    EXPECT_EQ(res.numUnsafe, ref.numUnsafe);
                    EXPECT_EQ(res.numUntestable, ref.numUntestable);
                    EXPECT_EQ(res.latencyHistogram, ref.latencyHistogram);
                    EXPECT_EQ(res.alarmLaneCount, ref.alarmLaneCount);
                    EXPECT_EQ(res.meanAlarmPeriod, ref.meanAlarmPeriod);
                    ASSERT_EQ(res.faults.size(), ref.faults.size());
                    for (std::size_t k = 0; k < ref.faults.size(); ++k) {
                        ASSERT_EQ(res.faults[k].outcome,
                                  ref.faults[k].outcome)
                            << faultToString(c.net, ref.faults[k].fault);
                        ASSERT_EQ(res.faults[k].firstAlarmPeriod,
                                  ref.faults[k].firstAlarmPeriod);
                        ASSERT_EQ(res.faults[k].firstEscapePeriod,
                                  ref.faults[k].firstEscapePeriod);
                    }
                }
            }
        }
    }
}

/** The multi-word accumulator agrees with W independent single-word
 *  accumulators over the same symbol stream. */
TEST(SeqSimd, WideAccumulatorMatchesNarrowAccumulators)
{
    constexpr int W = 4;
    util::Rng rng(77);
    std::array<std::uint64_t, sim::kMaxLaneWords> mask{};
    for (int w = 0; w < W; ++w)
        mask[w] = w == W - 1 ? 0x00ffffffffffffffull : ~std::uint64_t{0};

    for (int round = 0; round < 20; ++round) {
        fault::SeqVerdictAccumulator wide(mask.data(), W,
                                          /*drop_detected=*/true);
        std::vector<fault::SeqVerdictAccumulator> narrow;
        for (int w = 0; w < W; ++w)
            narrow.emplace_back(&mask[w], 1, true);

        for (long s = 0; s < 40; ++s) {
            std::uint64_t alarm[W], wrong[W];
            for (int w = 0; w < W; ++w) {
                // Sparse alarms/escapes so all outcomes get exercised.
                alarm[w] = rng.next() & rng.next() & rng.next();
                wrong[w] = rng.next() & rng.next() & rng.next() &
                           rng.next() & rng.next();
            }
            bool narrow_any = false;
            for (int w = 0; w < W; ++w)
                if (narrow[w].addSymbol(s, &alarm[w], &wrong[w]))
                    narrow_any = true;
            const bool wide_more = wide.addSymbol(s, alarm, wrong);
            bool narrow_escape = false;
            for (int w = 0; w < W; ++w)
                narrow_escape |=
                    narrow[w].outcome() == fault::Outcome::Unsafe;
            if (narrow_escape) {
                // The wide accumulator stops the whole fault on any
                // escape; the per-word runs only stop their word.
                EXPECT_FALSE(wide_more);
                EXPECT_EQ(wide.outcome(), fault::Outcome::Unsafe);
                break;
            }
            EXPECT_EQ(wide_more, narrow_any);
            for (int w = 0; w < W; ++w) {
                ASSERT_EQ(wide.alarmedWord(w), narrow[w].alarmedWord(0))
                    << "s=" << s << " w=" << w;
                for (int l = 0; l < 64; ++l)
                    ASSERT_EQ(wide.laneFirstAlarm(64 * w + l),
                              narrow[w].laneFirstAlarm(l));
            }
        }
    }
}

} // namespace
} // namespace scal
