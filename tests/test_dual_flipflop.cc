#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "netlist/structure.hh"
#include "oracle/seq_fault_simulator.hh"
#include "seq/kohavi.hh"
#include "sim/flat.hh"
#include "sim/seq_fault_sim.hh"
#include "test_helpers.hh"

namespace scal
{
namespace
{

using namespace netlist;
using seq::StateTable;
using seq::SynthesizedMachine;

std::vector<int>
randomBits(int n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<int> bits;
    for (int i = 0; i < n; ++i)
        bits.push_back(static_cast<int>(rng.below(2)));
    return bits;
}

TEST(DualFlipFlop, MatchesTableOnRandomStreams)
{
    const StateTable table = seq::kohaviDetectorTable();
    const SynthesizedMachine sm = seq::synthesizeDualFlipFlop(table);
    sm.net.validate();

    const auto bits = randomBits(2000, 81);
    const auto run = seq::runAlternating(sm, bits);
    EXPECT_EQ(run.outputs, table.run(bits));
    EXPECT_TRUE(run.allAlternated);
}

TEST(DualFlipFlop, DoublesTheFlipFlops)
{
    const SynthesizedMachine std_m =
        seq::synthesizeStandard(seq::kohaviDetectorTable());
    const SynthesizedMachine dff_m = seq::reynoldsDetector();
    EXPECT_EQ(dff_m.net.cost().flipFlops,
              2 * std_m.net.cost().flipFlops);
}

TEST(DualFlipFlop, ExposesZAndYOutputs)
{
    const SynthesizedMachine sm = seq::reynoldsDetector();
    EXPECT_EQ(sm.zOutputs.size(), 1u);
    EXPECT_EQ(sm.yOutputs.size(), 2u);
    EXPECT_GE(sm.phiInput, 0);
}

TEST(DualFlipFlop, EveryLineOutputAlternatesFaultFree)
{
    // All checked outputs (Z and Y) must alternate on every symbol.
    const SynthesizedMachine sm = seq::reynoldsDetector();
    const auto run = seq::runAlternating(sm, randomBits(500, 82));
    EXPECT_TRUE(run.allAlternated);
    EXPECT_EQ(run.firstErrorSymbol, -1);
}

TEST(DualFlipFlop, SingleFaultsNeverEscapeSilently)
{
    // Sequential fault security: under every single stuck-at fault,
    // a wrong Z at some symbol must be preceded (or accompanied) by a
    // non-alternating checked output.
    const StateTable table = seq::kohaviDetectorTable();
    const SynthesizedMachine sm = seq::synthesizeDualFlipFlop(table);
    const auto bits = randomBits(400, 83);
    const auto golden = table.run(bits);

    int detected = 0, masked = 0;
    for (const Fault &fault : sm.net.allFaults()) {
        const auto run = seq::runAlternating(sm, bits, &fault);
        long first_wrong = -1;
        for (std::size_t i = 0; i < bits.size(); ++i) {
            if (run.outputs[i] != golden[i]) {
                first_wrong = static_cast<long>(i);
                break;
            }
        }
        if (first_wrong >= 0) {
            ASSERT_FALSE(run.allAlternated)
                << faultToString(sm.net, fault);
            ASSERT_LE(run.firstErrorSymbol, first_wrong)
                << faultToString(sm.net, fault);
            ++detected;
        } else if (!run.allAlternated) {
            ++detected;
        } else {
            ++masked;
        }
    }
    EXPECT_GT(detected, 0);
}

TEST(DualFlipFlop, RandomTablesStayFaultSecure)
{
    util::Rng rng(84);
    for (int trial = 0; trial < 3; ++trial) {
        const StateTable table =
            testing::randomStateTable(4, 1, 1, rng);
        const SynthesizedMachine sm =
            seq::synthesizeDualFlipFlop(table);
        std::vector<int> bits;
        for (int i = 0; i < 200; ++i)
            bits.push_back(static_cast<int>(rng.below(2)));
        const auto golden = table.run(bits);
        const auto faults = sm.net.allFaults();
        for (std::size_t k = 0; k < faults.size(); k += 3) {
            const auto run = seq::runAlternating(sm, bits, &faults[k]);
            for (std::size_t i = 0; i < bits.size(); ++i) {
                if (run.outputs[i] != golden[i]) {
                    ASSERT_FALSE(run.allAlternated);
                    ASSERT_LE(run.firstErrorSymbol,
                              static_cast<long>(i));
                    break;
                }
            }
        }
    }
}

/**
 * The packed reference for runAlternating, which shares no code with
 * the scalar SeqSimulator: every lane of a one-word SeqGoodTrace
 * carries the stream, oracle::SeqFaultSimulator replays the fault over
 * it, and lane 0 is read back.
 */
seq::AlternatingRun
packedRunAlternating(const SynthesizedMachine &sm,
                     const std::vector<int> &symbols, const Fault *fault)
{
    const sim::FlatNetlist flat(sm.net);
    sim::SeqGoodTrace trace(flat, sm.phiInput);
    const long nsym = static_cast<long>(symbols.size());
    trace.reservePeriods(2 * nsym);
    std::vector<std::uint64_t> in(sm.net.numInputs(), 0);
    for (int sym : symbols) {
        for (int i = 0; i < sm.dataInputs; ++i)
            in[i] = ((sym >> i) & 1) ? ~std::uint64_t{0} : 0;
        trace.stepPeriod(in.data());
        for (int i = 0; i < sm.dataInputs; ++i)
            in[i] = ~in[i];
        trace.stepPeriod(in.data());
    }

    // Faulty outputs default to the trace; the sink fires only on
    // periods that diverge.
    const std::size_t no = static_cast<std::size_t>(sm.net.numOutputs());
    std::vector<std::uint64_t> fout(static_cast<std::size_t>(2 * nsym) * no);
    for (long t = 0; t < 2 * nsym; ++t)
        std::copy(trace.outputs(t), trace.outputs(t) + no,
                  fout.begin() + static_cast<std::size_t>(t) * no);
    if (fault) {
        oracle::SeqFaultSimulator fsim(trace);
        fsim.runFault(*fault,
                      [&](long t, std::uint64_t, const std::uint64_t *o) {
                          std::copy(o, o + no,
                                    fout.begin() +
                                        static_cast<std::size_t>(t) * no);
                          return true;
                      });
    }

    seq::AlternatingRun run;
    const auto bit = [&](long t, int j) {
        return (fout[static_cast<std::size_t>(t) * no + j] & 1) != 0;
    };
    for (long s = 0; s < nsym; ++s) {
        const long t1 = 2 * s, t2 = 2 * s + 1;
        unsigned z = 0;
        for (std::size_t j = 0; j < sm.zOutputs.size(); ++j)
            if (bit(t1, sm.zOutputs[j]))
                z |= 1u << j;
        run.outputs.push_back(z);

        bool ok = true;
        for (int j : sm.zOutputs)
            ok &= bit(t1, j) != bit(t2, j);
        for (int j : sm.yOutputs)
            ok &= bit(t1, j) != bit(t2, j);
        for (std::size_t c = 0; c + 1 < sm.checkOutputs.size(); c += 2) {
            ok &= bit(t1, sm.checkOutputs[c]) !=
                  bit(t1, sm.checkOutputs[c + 1]);
            ok &= bit(t2, sm.checkOutputs[c]) !=
                  bit(t2, sm.checkOutputs[c + 1]);
        }
        if (!ok && run.allAlternated) {
            run.allAlternated = false;
            run.firstErrorSymbol = s;
        }
    }
    return run;
}

TEST(DualFlipFlop, RunAlternatingMatchesPackedReplay)
{
    // bench_fig4_10_seqdet's single-fault sweep: the first 400 symbols
    // of its Rng(2026) stream, on the Figure 4.9 and 4.10 machines.
    util::Rng rng(2026);
    std::vector<int> bits;
    for (int i = 0; i < 400; ++i)
        bits.push_back(static_cast<int>(rng.below(2)));
    const auto golden = seq::kohaviDetectorTable().run(bits);

    struct Sweep
    {
        const char *name;
        SynthesizedMachine sm;
        int faults, detected, alarmed, masked, silent;
    };
    const Sweep sweeps[] = {
        {"dual flip-flop (Fig 4.9)", seq::reynoldsDetector(), 106, 66, 38,
         2, 0},
        {"code conversion (Fig 4.10)", seq::translatorDetector(), 128, 72,
         54, 2, 0},
    };
    for (const Sweep &want : sweeps) {
        SCOPED_TRACE(want.name);
        const SynthesizedMachine &sm = want.sm;
        const auto expectSameRun = [&](const Fault *fault) {
            const auto run = seq::runAlternating(sm, bits, fault);
            const auto ref = packedRunAlternating(sm, bits, fault);
            EXPECT_EQ(run.outputs, ref.outputs);
            EXPECT_EQ(run.allAlternated, ref.allAlternated);
            EXPECT_EQ(run.firstErrorSymbol, ref.firstErrorSymbol);
            return run;
        };
        expectSameRun(nullptr);

        // The bench's table: a wrong output alarmed at or before its
        // symbol is detected, one never alarmed in time is silent.
        int faults = 0, detected = 0, alarmed = 0, masked = 0, silent = 0;
        for (const Fault &fault : sm.net.allFaults()) {
            SCOPED_TRACE(faultToString(sm.net, fault));
            const auto run = expectSameRun(&fault);
            const auto wrong =
                std::mismatch(run.outputs.begin(), run.outputs.end(),
                              golden.begin())
                    .first;
            ++faults;
            if (wrong != run.outputs.end()) {
                if (!run.allAlternated &&
                    run.firstErrorSymbol <= wrong - run.outputs.begin())
                    ++detected;
                else
                    ++silent;
            } else if (!run.allAlternated) {
                ++alarmed;
            } else {
                ++masked;
            }
        }
        EXPECT_EQ(faults, want.faults);
        EXPECT_EQ(detected, want.detected);
        EXPECT_EQ(alarmed, want.alarmed);
        EXPECT_EQ(masked, want.masked);
        EXPECT_EQ(silent, want.silent);
    }
}

} // namespace
} // namespace scal
