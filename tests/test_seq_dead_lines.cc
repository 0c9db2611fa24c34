/**
 * @file
 * The dead-line masks of the sequential replay (sim/seq_batch_sim.hh).
 * Complementing a line that a phase's mask names, in every lane of a
 * traced period of that phase, changes no output and no D line of a
 * flip-flop that latches after the period. This is checked by
 * re-evaluating the combinational logic, on every bundled sequential
 * circuit hardened, the paper's sequence detectors, and random
 * sequential netlists raw (mixed latch modes) and hardened. The
 * hardened masks are pinned non-empty. Lane batches that put the stem
 * and branch faults of the clock lines beside ordinary faults, which
 * void the shared masks' premise, must still give the per-fault
 * oracle's verdicts, first-alarm periods and latency histograms.
 */

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/seq_campaign.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/netlist.hh"
#include "oracle/per_fault_campaign.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "seq/registers.hh"
#include "sim/flat.hh"
#include "sim/gate_eval.hh"
#include "sim/seq_batch_sim.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

constexpr long kPeriods = 4;

/** A 64-lane trace of @p kPeriods periods over random inputs. */
sim::SeqGoodTrace
randomTrace(const sim::FlatNetlist &flat, int phi, std::uint64_t seed)
{
    sim::SeqGoodTrace trace(flat, phi, 1);
    util::Rng rng(seed);
    std::vector<std::uint64_t> in(
        static_cast<std::size_t>(flat.numInputs()));
    for (long t = 0; t < kPeriods; ++t) {
        for (auto &w : in)
            w = rng.next();
        trace.stepPeriod(in.data());
    }
    return trace;
}

/**
 * For every traced period, complement each line the period's phase
 * marks dead and re-evaluate the combinational logic above it: every
 * output and every latching flip-flop's D line must keep its traced
 * value. Clock lines are left alone: the masks rest on their holding
 * the netlist's values (a clock line at its controlling value counts
 * as blocking itself), and a batch whose faults can break that builds
 * other masks. Returns the dead lines of each phase.
 */
std::array<int, 2>
checkDeadLines(const Netlist &net, int phi, const std::string &name,
               std::uint64_t seed)
{
    SCOPED_TRACE(name);
    const sim::FlatNetlist flat(net);
    const sim::SeqGoodTrace trace = randomTrace(flat, phi, seed);
    const sim::SeqDeadLines d = sim::seqDeadLines(trace);
    const auto n = static_cast<std::size_t>(flat.numGates());
    const std::vector<GateId> &topo = flat.topoOrder();
    std::vector<std::uint64_t> v(n), in(
        static_cast<std::size_t>(std::max(1, flat.maxArity())));
    std::array<int, 2> count{};
    for (int p = 0; p < 2; ++p)
        count[static_cast<std::size_t>(p)] = static_cast<int>(
            std::count(d.dead[static_cast<std::size_t>(p)].begin(),
                       d.dead[static_cast<std::size_t>(p)].end(), 1));
    for (long t = 0; t < kPeriods; ++t) {
        const bool phase = trace.phaseAt(t);
        const std::uint8_t *dead = d.mask(phase);
        const std::uint8_t *elig = trace.latchEligibleTable(phase);
        const std::uint64_t *good = trace.lines(t);
        for (GateId g = 0; g < static_cast<GateId>(n); ++g) {
            if (!dead[g] || d.clock[g])
                continue;
            std::copy(good, good + n, v.begin());
            v[g] = ~good[g];
            for (auto i = static_cast<std::size_t>(flat.topoPos(g)) + 1;
                 i < topo.size(); ++i) {
                const GateId c = topo[i];
                const int a = flat.arity(c);
                if (a == 0 || flat.kind(c) == GateKind::Dff)
                    continue;
                for (int k = 0; k < a; ++k)
                    in[static_cast<std::size_t>(k)] = v[flat.fanins(c)[k]];
                v[c] = sim::detail::evalGateWord(flat.kind(c), in.data(), a);
            }
            for (int j = 0; j < flat.numOutputs(); ++j)
                if (v[flat.output(j)] != good[flat.output(j)]) {
                    ADD_FAILURE() << "dead line " << g << " reaches output "
                                  << j << " in period " << t;
                    return count;
                }
            for (int i = 0; i < flat.numFlipFlops(); ++i)
                if (elig[i] && v[flat.ffDriver(i)] != good[flat.ffDriver(i)]) {
                    ADD_FAILURE() << "dead line " << g
                                  << " reaches flip-flop " << i
                                  << " in period " << t;
                    return count;
                }
        }
    }
    return count;
}

ingest::HardenedCircuit
hardenedBundled(const std::string &file)
{
    return ingest::hardenNetlist(
        ingest::importCircuit(scal::testing::bundledCircuitPath(file)).net);
}

TEST(SeqDeadLines, HardenedBundledCircuitsHideNothingTheyMask)
{
    for (const char *file :
         {"s27.bench", "lfsr8.v", "s298.bench", "s344.bench", "s386.bench",
          "s1488-class.bench", "s5378-class.bench"}) {
        const ingest::HardenedCircuit hard = hardenedBundled(file);
        const std::array<int, 2> dead =
            checkDeadLines(hard.net, hard.phiInput, file, 0xdead);
        // The Yamamoto mux switches one copy of F off in each period,
        // so neither phase's mask may be empty.
        EXPECT_GT(dead[0], 0) << file;
        EXPECT_GT(dead[1], 0) << file;
        if (std::string(file) == "s1488-class.bench") {
            EXPECT_EQ(hard.net.numGates(), 1547);
            EXPECT_EQ(dead[0], 725);
            EXPECT_EQ(dead[1], 726);
        }
    }
}

TEST(SeqDeadLines, SequenceDetectorsHideNothingTheyMask)
{
    // The accumulator's flip-flops latch on φ's fall only: one that
    // holds after a phase's period does not make its D line live in
    // that phase.
    const std::pair<std::string, seq::SynthesizedMachine> machines[] = {
        {"reynolds", seq::reynoldsDetector()},
        {"translator", seq::translatorDetector()},
        {"accumulator4", seq::selfDualAccumulator(4)},
    };
    for (const auto &[name, sm] : machines)
        checkDeadLines(sm.net, seq::campaignSpec(sm).phiInput, name, 0x5eed);
}

TEST(SeqDeadLines, RandomSequentialNetlistsHideNothingTheyMask)
{
    util::Rng rng(0xd1ce);
    int hardened_dead = 0;
    for (int it = 0; it < 60; ++it) {
        const Netlist net = scal::testing::randomSeqNetlist(rng, true);
        const std::string tag = std::to_string(it);
        // Raw: input 0 plays φ, so the constants and the lines fed by
        // x0 alone are the clock lines.
        checkDeadLines(net, 0, "random raw " + tag, rng.next());
        const ingest::HardenedCircuit hard = ingest::hardenNetlist(net);
        const std::array<int, 2> dead = checkDeadLines(
            hard.net, hard.phiInput, "random hardened " + tag, rng.next());
        hardened_dead += dead[0] + dead[1];
    }
    EXPECT_GT(hardened_dead, 0);
}

/** One fault's verdict as the batch replay folds it. */
struct Folded
{
    fault::Outcome outcome = fault::Outcome::Untestable;
    long firstAlarm = -1;
    long firstEscape = -1;
};

TEST(SeqDeadLines, ClockFaultBatchesMatchPerFaultOracle)
{
    for (const char *file : {"s27.bench", "s298.bench", "s386.bench"}) {
        const ingest::HardenedCircuit hard = hardenedBundled(file);
        const fault::SeqCampaignSpec spec = hard.campaignSpec();
        const sim::FlatNetlist flat(hard.net);
        const std::vector<Fault> faults = hard.net.allFaults();
        const int ni = flat.numInputs();
        const int no = flat.numOutputs();
        const GateId phi = hard.net.inputs()[static_cast<std::size_t>(
            hard.phiInput)];

        for (const int lanes : {64, 256, 512}) {
            SCOPED_TRACE(std::string(file) + " lanes=" +
                         std::to_string(lanes));
            fault::SeqCampaignOptions opts;
            opts.symbols = 16;
            opts.lanes = lanes;
            opts.seed = 5;
            const fault::SeqCampaignResult want =
                oracle::runPerFaultSeqCampaign(hard.net, spec, opts);

            // The campaign's trace: full width, the stream replicated
            // into every Wg-word lane group, X then X̄ per symbol.
            const int Wg = sim::laneWordsForLanes(lanes);
            const int Wb = sim::kMaxLaneWords;
            sim::SeqGoodTrace trace(flat, spec.phiInput, Wb);
            const auto words = fault::buildSymbolWords(
                ni, spec.phiInput, opts.symbols, opts.seed, Wg);
            std::vector<std::uint64_t> x(static_cast<std::size_t>(ni) * Wb);
            std::vector<std::uint64_t> xbar(x.size());
            for (const std::vector<std::uint64_t> &sym : words) {
                for (int i = 0; i < ni; ++i)
                    for (int w = 0; w < Wb; ++w) {
                        const std::size_t at =
                            static_cast<std::size_t>(i) * Wb + w;
                        x[at] = sym[static_cast<std::size_t>(i) * Wg +
                                    w % Wg];
                        xbar[at] = i == spec.phiInput ? x[at] : ~x[at];
                    }
                trace.stepPeriod(x.data());
                trace.stepPeriod(xbar.data());
            }
            const sim::SeqDeadLines shared = sim::seqDeadLines(trace);

            // Every clock fault leads a batch of its own, filled up
            // with ordinary faults; the rest follow in fault order.
            std::vector<sim::SeqFaultSite> sites;
            std::vector<std::size_t> clockFaults, others;
            bool phiStem = false, phiBarStem = false, muxBranch = false,
                 clockConsumerBranch = false;
            for (std::size_t k = 0; k < faults.size(); ++k) {
                const sim::SeqFaultSite s =
                    sim::decodeSeqFaultSite(flat, faults[k]);
                sites.push_back(s);
                if (!shared.taints(s)) {
                    others.push_back(k);
                    continue;
                }
                clockFaults.push_back(k);
                const bool fromPhi = s.driver == phi;
                const bool isStem = s.kind == sim::SeqFaultSite::Kind::Stem;
                phiStem |= isStem && fromPhi;
                phiBarStem |= isStem && !fromPhi &&
                              flat.kind(s.driver) == GateKind::Not;
                if (!isStem && fromPhi) {
                    const GateKind ck = flat.kind(s.consumer);
                    muxBranch |= ck == GateKind::And || ck == GateKind::Or ||
                                 ck == GateKind::Nand || ck == GateKind::Nor;
                    clockConsumerBranch |= shared.clock[s.consumer] != 0;
                }
            }
            ASSERT_TRUE(phiStem && phiBarStem && muxBranch &&
                        clockConsumerBranch);
            sim::SeqFaultBatchSimulator bsim(trace, Wg, shared);
            const auto F = static_cast<std::size_t>(bsim.groupsPerBatch());
            std::vector<std::vector<std::size_t>> batches;
            std::size_t next = 0;
            for (const std::size_t c : clockFaults) {
                batches.push_back({c});
                while (batches.back().size() < F && next < others.size())
                    batches.back().push_back(others[next++]);
            }
            for (; next < others.size(); ++next) {
                if (batches.back().size() == F)
                    batches.emplace_back();
                batches.back().push_back(others[next]);
            }

            std::vector<int> all(static_cast<std::size_t>(no));
            for (int j = 0; j < no; ++j)
                all[static_cast<std::size_t>(j)] = j;
            sim::SeqFaultBatchSimulator::FoldSpec fold;
            fold.alt = fold.data = all.data();
            fold.nalt = fold.ndata = no;
            std::uint64_t laneMask[sim::kMaxLaneWords] = {};
            for (int w = 0; w < Wg; ++w)
                laneMask[w] = lanes - 64 * w >= 64
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (lanes - 64 * w)) - 1;

            std::vector<Folded> got(faults.size());
            std::array<std::uint64_t, fault::kLatencyBuckets> hist{};
            long alarmLanes = 0;
            std::vector<sim::SeqFaultSite> bs(F);
            std::vector<fault::SeqVerdictAccumulator> accs;
            for (const std::vector<std::size_t> &b : batches) {
                accs.clear();
                for (std::size_t i = 0; i < b.size(); ++i) {
                    bs[i] = sites[b[i]];
                    accs.emplace_back(laneMask, Wg, opts.dropDetected);
                }
                bsim.beginBatch(bs.data(), static_cast<int>(b.size()),
                                opts.faultStart, opts.faultEnd);
                bsim.run(fold, [&](int f, long sym, const std::uint64_t *a,
                                   const std::uint64_t *w) {
                    return accs[static_cast<std::size_t>(f)].addSymbol(sym,
                                                                       a, w);
                });
                for (std::size_t i = 0; i < b.size(); ++i) {
                    const fault::SeqVerdictAccumulator &acc = accs[i];
                    got[b[i]] = {acc.outcome(), acc.firstAlarmPeriod(),
                                 acc.firstEscapePeriod()};
                    for (int l = 0; l < lanes; ++l) {
                        const long p = acc.laneFirstAlarm(l);
                        if (p < 0)
                            continue;
                        ++hist[static_cast<std::size_t>(
                            fault::latencyBucket(p))];
                        ++alarmLanes;
                    }
                }
            }

            for (std::size_t k = 0; k < faults.size(); ++k) {
                SCOPED_TRACE("fault " + std::to_string(k));
                EXPECT_EQ(got[k].outcome, want.faults[k].outcome);
                EXPECT_EQ(got[k].firstAlarm,
                          want.faults[k].firstAlarmPeriod);
                EXPECT_EQ(got[k].firstEscape,
                          want.faults[k].firstEscapePeriod);
            }
            EXPECT_EQ(hist, want.latencyHistogram);
            EXPECT_EQ(alarmLanes, want.alarmLaneCount);
        }
    }
}

} // namespace
