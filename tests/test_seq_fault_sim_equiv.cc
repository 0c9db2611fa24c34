/**
 * @file
 * The packed cone-restricted sequential kernel against the scalar
 * SeqSimulator oracle: fault-free traces, every stuck-at fault under
 * permanent and transient windows across all three latch modes, the
 * campaign verdicts, and bit-identity of campaign results across jobs
 * counts.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/seq_campaign.hh"
#include "netlist/structure.hh"
#include "oracle/seq_fault_simulator.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "seq/registers.hh"
#include "sim/flat.hh"
#include "sim/seq_fault_sim.hh"
#include "sim/sequential.hh"
#include "util/rng.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

/** A small mixed-latch net: one PhiRise and one PhiFall flip-flop
 *  (the latch modes the Chapter 4 machines don't already cover are
 *  exercised here). Not an alternating machine — the kernel must
 *  agree with the oracle on any sequential net. */
struct PhiRiseNet
{
    Netlist net;
    int phiInput = 1;
};

PhiRiseNet
phiRiseNet()
{
    PhiRiseNet m;
    Netlist &net = m.net;
    GateId a = net.addInput("a");
    net.addInput("phi");
    const GateId placeholder = net.addConst(false);
    GateId rise = net.addDff(placeholder, "rise", LatchMode::PhiRise,
                             /*init=*/false);
    GateId fall = net.addDff(rise, "fall", LatchMode::PhiFall,
                             /*init=*/true);
    GateId x = net.addXor({a, fall}, "x");
    net.replaceFanin(rise, 0, x);
    GateId o = net.addOr({x, rise}, "o");
    net.addOutput(o, "o");
    net.addOutput(rise, "q");
    return m;
}

struct Machine
{
    std::string name;
    Netlist net;
    int phiInput;
};

std::vector<Machine>
machines()
{
    std::vector<Machine> ms;
    {
        auto sm = seq::reynoldsDetector();
        ms.push_back({"reynolds", std::move(sm.net), sm.phiInput});
    }
    {
        auto sm = seq::translatorDetector();
        ms.push_back({"translator", std::move(sm.net), sm.phiInput});
    }
    {
        auto m = phiRiseNet();
        ms.push_back({"phirise", std::move(m.net), m.phiInput});
    }
    return ms;
}

/** Random packed inputs, one word per input per period. */
std::vector<std::vector<std::uint64_t>>
randomPeriods(const Netlist &net, long periods, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> in(
        periods, std::vector<std::uint64_t>(net.numInputs()));
    for (long t = 0; t < periods; ++t)
        for (int i = 0; i < net.numInputs(); ++i)
            in[t][i] = rng.next();
    return in;
}

std::vector<bool>
laneInputs(const std::vector<std::uint64_t> &words, int lane)
{
    std::vector<bool> in(words.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        in[i] = (words[i] >> lane) & 1;
    return in;
}

constexpr int kLanes = 8;
constexpr long kPeriods = 24;

TEST(SeqGoodTrace, MatchesScalarSimulator)
{
    for (const Machine &m : machines()) {
        SCOPED_TRACE(m.name);
        const sim::FlatNetlist flat(m.net);
        sim::SeqGoodTrace trace(flat, m.phiInput);
        const auto words = randomPeriods(m.net, kPeriods, 11);
        trace.reservePeriods(kPeriods);
        for (long t = 0; t < kPeriods; ++t)
            trace.stepPeriod(words[t].data());

        for (int lane = 0; lane < kLanes; ++lane) {
            sim::SeqSimulator sim(m.net, m.phiInput);
            for (long t = 0; t < kPeriods; ++t) {
                const auto out = sim.stepPeriod(laneInputs(words[t], lane));
                for (int j = 0; j < m.net.numOutputs(); ++j) {
                    ASSERT_EQ(out[j],
                              ((trace.outputs(t)[j] >> lane) & 1) != 0)
                        << "lane " << lane << " period " << t
                        << " output " << j;
                }
            }
        }
    }
}

TEST(SeqFaultSimulator, EveryFaultEveryWindowMatchesScalar)
{
    const std::vector<std::pair<long, long>> windows = {
        {0, oracle::SeqFaultSimulator::kForever}, // permanent
        {3, 7},                                   // transient burst
        {5, 6},                                   // single period
    };
    for (const Machine &m : machines()) {
        SCOPED_TRACE(m.name);
        const sim::FlatNetlist flat(m.net);
        sim::SeqGoodTrace trace(flat, m.phiInput);
        const auto words = randomPeriods(m.net, kPeriods, 23);
        trace.reservePeriods(kPeriods);
        for (long t = 0; t < kPeriods; ++t)
            trace.stepPeriod(words[t].data());

        const int no = m.net.numOutputs();
        oracle::SeqFaultSimulator fsim(trace);
        for (const Fault &fault : m.net.allFaults()) {
            for (const auto &[ws, we] : windows) {
                SCOPED_TRACE(faultToString(m.net, fault) + " window [" +
                             std::to_string(ws) + "," +
                             std::to_string(we) + ")");
                // Packed faulty outputs: trace plus sink overrides.
                std::vector<std::uint64_t> fout(
                    static_cast<std::size_t>(kPeriods) * no);
                for (long t = 0; t < kPeriods; ++t)
                    for (int j = 0; j < no; ++j)
                        fout[t * no + j] = trace.outputs(t)[j];
                fsim.runFault(
                    fault,
                    [&](long t, std::uint64_t, const std::uint64_t *o) {
                        for (int j = 0; j < no; ++j)
                            fout[t * no + j] = o[j];
                        return true;
                    },
                    ws, we);

                for (int lane = 0; lane < kLanes; ++lane) {
                    sim::SeqSimulator sim(m.net, m.phiInput);
                    sim.setFault(fault);
                    sim.setFaultWindow(ws, we);
                    for (long t = 0; t < kPeriods; ++t) {
                        const auto out =
                            sim.stepPeriod(laneInputs(words[t], lane));
                        for (int j = 0; j < no; ++j) {
                            ASSERT_EQ(
                                out[j],
                                ((fout[t * no + j] >> lane) & 1) != 0)
                                << "lane " << lane << " period " << t
                                << " output " << j;
                        }
                    }
                }
            }
        }
    }
}

/** The scalar campaign oracle: per-lane SeqSimulators, symbol-major,
 *  folded through the shared SeqVerdictAccumulator. */
struct OracleVerdict
{
    fault::Outcome outcome;
    long firstAlarm;
    long firstEscape;
    std::array<long, 64> laneAlarm;
};

std::vector<OracleVerdict>
scalarOracle(const Netlist &net, const fault::SeqCampaignSpec &spec,
             const fault::SeqCampaignOptions &opts)
{
    const auto words = fault::buildSymbolWords(
        net.numInputs(), spec.phiInput, opts.symbols, opts.seed);
    const int ni = net.numInputs(), no = net.numOutputs();
    const std::uint64_t lane_mask =
        opts.lanes == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << opts.lanes) - 1;

    std::vector<int> data = spec.dataOutputs, alt = spec.altOutputs;
    if (data.empty())
        for (int j = 0; j < no; ++j)
            data.push_back(j);
    if (alt.empty())
        for (int j = 0; j < no; ++j)
            alt.push_back(j);
    std::vector<char> hold(ni, 0);
    for (int i : spec.holdInputs)
        hold[i] = 1;

    const auto inputsAt = [&](long s, bool ph2, int lane) {
        std::vector<bool> in(ni, false);
        for (int i = 0; i < ni; ++i) {
            bool v = (words[s][i] >> lane) & 1;
            if (ph2 && i != spec.phiInput && !hold[i])
                v = !v;
            in[i] = v;
        }
        return in;
    };

    // Fault-free outputs per lane per period.
    std::vector<std::uint8_t> good(static_cast<std::size_t>(opts.lanes) *
                                   2 * opts.symbols * no);
    const auto goodAt = [&](int l, long t) {
        return good.data() +
               (static_cast<std::size_t>(l) * 2 * opts.symbols + t) * no;
    };
    std::vector<std::unique_ptr<sim::SeqSimulator>> sims;
    for (int l = 0; l < opts.lanes; ++l)
        sims.push_back(
            std::make_unique<sim::SeqSimulator>(net, spec.phiInput));
    for (int l = 0; l < opts.lanes; ++l)
        for (long s = 0; s < opts.symbols; ++s)
            for (int ph = 0; ph < 2; ++ph) {
                const auto out = sims[l]->stepPeriod(inputsAt(s, ph, l));
                for (int j = 0; j < no; ++j)
                    goodAt(l, 2 * s + ph)[j] = out[j];
            }

    std::vector<OracleVerdict> verdicts;
    for (const Fault &fault : net.allFaults()) {
        for (int l = 0; l < opts.lanes; ++l) {
            sims[l]->reset();
            sims[l]->setFault(fault);
            sims[l]->setFaultWindow(opts.faultStart, opts.faultEnd);
        }
        fault::SeqVerdictAccumulator acc(&lane_mask, 1, opts.dropDetected);
        for (long s = 0; s < opts.symbols; ++s) {
            std::uint64_t alarm = 0, wrong = 0;
            for (int l = 0; l < opts.lanes; ++l) {
                const auto o0 = sims[l]->stepPeriod(inputsAt(s, 0, l));
                const auto o1 = sims[l]->stepPeriod(inputsAt(s, 1, l));
                bool a = false;
                for (int j : alt)
                    a |= o0[j] == o1[j];
                for (std::size_t c = 0; c + 1 < spec.codePairs.size();
                     c += 2) {
                    a |= o0[spec.codePairs[c]] ==
                         o0[spec.codePairs[c + 1]];
                    a |= o1[spec.codePairs[c]] ==
                         o1[spec.codePairs[c + 1]];
                }
                bool w = false;
                for (int j : data)
                    w |= o0[j] != static_cast<bool>(goodAt(l, 2 * s)[j]);
                if (a)
                    alarm |= std::uint64_t{1} << l;
                if (w)
                    wrong |= std::uint64_t{1} << l;
            }
            if (!acc.addSymbol(s, &alarm, &wrong))
                break;
        }
        OracleVerdict v{acc.outcome(), acc.firstAlarmPeriod(),
                        acc.firstEscapePeriod(), {}};
        for (int l = 0; l < 64; ++l)
            v.laneAlarm[l] = acc.laneFirstAlarm(l);
        verdicts.push_back(v);
    }
    return verdicts;
}

struct CampaignCase
{
    std::string name;
    Netlist net;
    fault::SeqCampaignSpec spec;
};

std::vector<CampaignCase>
campaignCases()
{
    std::vector<CampaignCase> cs;
    {
        auto sm = seq::reynoldsDetector();
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"reynolds", std::move(sm.net), spec});
    }
    {
        auto sm = seq::translatorDetector();
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"translator", std::move(sm.net), spec});
    }
    {
        auto sm = seq::selfDualAccumulator(4);
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"accumulator4", std::move(sm.net), spec});
    }
    return cs;
}

TEST(SeqCampaign, VerdictsMatchScalarOracle)
{
    for (auto &c : campaignCases()) {
        SCOPED_TRACE(c.name);
        fault::SeqCampaignOptions opts;
        opts.symbols = 24;
        opts.lanes = 8;
        opts.seed = 5;
        opts.jobs = 1;

        const auto oracle = scalarOracle(c.net, c.spec, opts);
        const auto res = fault::runSequentialCampaign(c.net, c.spec, opts);
        ASSERT_EQ(res.faults.size(), oracle.size());

        std::array<std::uint64_t, fault::kLatencyBuckets> hist{};
        std::uint64_t alarm_lanes = 0;
        for (std::size_t k = 0; k < oracle.size(); ++k) {
            SCOPED_TRACE(faultToString(c.net, res.faults[k].fault));
            EXPECT_EQ(res.faults[k].outcome, oracle[k].outcome);
            EXPECT_EQ(res.faults[k].firstAlarmPeriod,
                      oracle[k].firstAlarm);
            EXPECT_EQ(res.faults[k].firstEscapePeriod,
                      oracle[k].firstEscape);
            for (int l = 0; l < opts.lanes; ++l)
                if (oracle[k].laneAlarm[l] >= 0) {
                    ++hist[fault::latencyBucket(oracle[k].laneAlarm[l])];
                    ++alarm_lanes;
                }
        }
        EXPECT_EQ(res.latencyHistogram, hist);
        EXPECT_EQ(res.alarmLaneCount, alarm_lanes);
    }
}

TEST(SeqCampaign, TransientWindowMatchesScalarOracle)
{
    auto sm = seq::reynoldsDetector();
    const auto spec = seq::campaignSpec(sm);
    fault::SeqCampaignOptions opts;
    opts.symbols = 24;
    opts.lanes = 8;
    opts.seed = 9;
    opts.jobs = 1;
    opts.faultStart = 6;
    opts.faultEnd = 14;

    const auto oracle = scalarOracle(sm.net, spec, opts);
    const auto res = fault::runSequentialCampaign(sm.net, spec, opts);
    ASSERT_EQ(res.faults.size(), oracle.size());
    for (std::size_t k = 0; k < oracle.size(); ++k) {
        SCOPED_TRACE(faultToString(sm.net, res.faults[k].fault));
        EXPECT_EQ(res.faults[k].outcome, oracle[k].outcome);
        EXPECT_EQ(res.faults[k].firstAlarmPeriod, oracle[k].firstAlarm);
        EXPECT_EQ(res.faults[k].firstEscapePeriod,
                  oracle[k].firstEscape);
    }
}

TEST(SeqCampaign, BitIdenticalAcrossJobs)
{
    // 64 lanes replay 8 faults per lane batch, 512 lanes one.
    // Verdicts and the work counters must not depend on the chunk
    // plan, which changes with the jobs count.
    for (const int lanes : {64, 512}) {
        for (auto &c : campaignCases()) {
            SCOPED_TRACE(c.name + " lanes=" + std::to_string(lanes));
            fault::SeqCampaignOptions opts;
            opts.symbols = 32;
            opts.lanes = lanes;
            opts.seed = 3;

            std::vector<fault::SeqCampaignResult> results;
            for (int jobs : {1, 2, 8}) {
                opts.jobs = jobs;
                results.push_back(
                    fault::runSequentialCampaign(c.net, c.spec, opts));
            }
            const auto &ref = results[0];
            for (std::size_t r = 1; r < results.size(); ++r) {
                const auto &res = results[r];
                EXPECT_EQ(res.periodsSimulated, ref.periodsSimulated);
                EXPECT_EQ(res.periodsSkipped, ref.periodsSkipped);
                EXPECT_EQ(res.retiredEarly, ref.retiredEarly);
                EXPECT_EQ(res.batches, ref.batches);
                EXPECT_EQ(res.batchedClasses, ref.batchedClasses);
                EXPECT_EQ(res.classes, ref.classes);
                EXPECT_EQ(res.prunedClasses, ref.prunedClasses);
                ASSERT_EQ(res.faults.size(), ref.faults.size());
                for (std::size_t k = 0; k < ref.faults.size(); ++k) {
                    ASSERT_EQ(res.faults[k].fault, ref.faults[k].fault);
                    ASSERT_EQ(res.faults[k].outcome, ref.faults[k].outcome);
                    ASSERT_EQ(res.faults[k].firstAlarmPeriod,
                              ref.faults[k].firstAlarmPeriod);
                    ASSERT_EQ(res.faults[k].firstEscapePeriod,
                              ref.faults[k].firstEscapePeriod);
                }
                EXPECT_EQ(res.numDetected, ref.numDetected);
                EXPECT_EQ(res.numUnsafe, ref.numUnsafe);
                EXPECT_EQ(res.numUntestable, ref.numUntestable);
                EXPECT_EQ(res.latencyHistogram, ref.latencyHistogram);
                EXPECT_EQ(res.alarmLaneCount, ref.alarmLaneCount);
                EXPECT_EQ(res.meanAlarmPeriod, ref.meanAlarmPeriod);
            }
        }
    }
}

TEST(SeqCampaign, RejectsNonAlternatingMachine)
{
    // The phirise toy net is not an alternating machine: the campaign
    // must refuse rather than silently misclassify.
    auto m = phiRiseNet();
    fault::SeqCampaignSpec spec;
    spec.phiInput = m.phiInput;
    fault::SeqCampaignOptions opts;
    opts.symbols = 4;
    opts.jobs = 1;
    EXPECT_THROW(fault::runSequentialCampaign(m.net, spec, opts),
                 std::invalid_argument);
}

} // namespace
