#include <gtest/gtest.h>

#include "netlist/circuits.hh"
#include "oracle/packed_evaluator.hh"
#include "sim/evaluator.hh"
#include "sim/line_functions.hh"
#include "test_helpers.hh"

namespace scal
{
namespace
{

using namespace netlist;
using testing::patternOf;

TEST(Evaluator, AdderIsCorrect)
{
    const Netlist net = circuits::selfDualFullAdder();
    sim::Evaluator ev(net);
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = m & 2, c = m & 4;
        const auto out = ev.evalOutputs({a, b, c});
        const int sum = a + b + c;
        EXPECT_EQ(out[0], sum & 1) << m;
        EXPECT_EQ(out[1], sum >= 2) << m;
    }
}

TEST(Evaluator, RippleAdderAddition)
{
    const Netlist net = circuits::rippleCarryAdder(4);
    sim::Evaluator ev(net);
    for (int a = 0; a < 16; ++a) {
        for (int b = 0; b < 16; ++b) {
            std::vector<bool> in(9, false);
            for (int i = 0; i < 4; ++i) {
                in[i] = (a >> i) & 1;
                in[4 + i] = (b >> i) & 1;
            }
            const auto out = ev.evalOutputs(in);
            int got = 0;
            for (int i = 0; i < 4; ++i)
                got |= out[i] << i;
            got |= out[4] << 4;
            ASSERT_EQ(got, a + b);
        }
    }
}

TEST(Evaluator, InputSizeMismatchThrows)
{
    const Netlist net = circuits::selfDualFullAdder();
    sim::Evaluator ev(net);
    EXPECT_THROW(ev.evalOutputs({true}), std::invalid_argument);
}

TEST(Evaluator, StemFaultAffectsAllConsumers)
{
    Netlist net;
    GateId a = net.addInput("a");
    GateId b = net.addInput("b");
    GateId g = net.addAnd({a, b}, "g");
    GateId p = net.addBuf(g);
    GateId q = net.addNot(g);
    net.addOutput(p, "p");
    net.addOutput(q, "q");

    sim::Evaluator ev(net);
    const Fault stem{{g, FaultSite::kStem, -1}, true};
    const auto out = ev.evalOutputs({false, false}, &stem);
    EXPECT_TRUE(out[0]);  // p sees the stuck 1
    EXPECT_FALSE(out[1]); // q sees it too
}

TEST(Evaluator, BranchFaultAffectsOnlyItsConsumer)
{
    Netlist net;
    GateId a = net.addInput("a");
    GateId b = net.addInput("b");
    GateId g = net.addAnd({a, b}, "g");
    GateId p = net.addBuf(g);
    GateId q = net.addNot(g);
    net.addOutput(p, "p");
    net.addOutput(q, "q");

    sim::Evaluator ev(net);
    const Fault branch{{g, p, 0}, true};
    const auto out = ev.evalOutputs({false, false}, &branch);
    EXPECT_TRUE(out[0]);  // only p's branch is stuck
    EXPECT_TRUE(out[1]);  // q still sees the true 0
}

TEST(Evaluator, OutputTapFault)
{
    Netlist net;
    GateId a = net.addInput("a");
    GateId g = net.addNot(a, "g");
    GateId h = net.addNot(g);
    net.addOutput(g, "g");
    net.addOutput(h, "h");

    sim::Evaluator ev(net);
    const Fault tap{{g, FaultSite::kOutputTap, 0}, false};
    const auto out = ev.evalOutputs({false}, &tap);
    EXPECT_FALSE(out[0]); // the tap branch is stuck at 0
    EXPECT_FALSE(out[1]); // downstream logic saw the true value 1
}

TEST(Evaluator, DffStateConsumed)
{
    Netlist net;
    GateId x = net.addInput("x");
    GateId ff = net.addDff(x, "s");
    GateId g = net.addXor({x, ff});
    net.addOutput(g, "f");

    sim::Evaluator ev(net);
    std::vector<bool> state{true};
    EXPECT_TRUE(ev.evalOutputs({false}, nullptr, &state)[0]);
    state[0] = false;
    EXPECT_FALSE(ev.evalOutputs({false}, nullptr, &state)[0]);
    EXPECT_THROW(ev.evalOutputs({false}), std::invalid_argument);
}

TEST(Packed, MatchesScalarOnRandomNetlists)
{
    util::Rng rng(31);
    for (int trial = 0; trial < 25; ++trial) {
        const Netlist net = testing::randomNetlist(5, 14, rng);
        sim::Evaluator ev(net);
        oracle::PackedEvaluator pe(net);

        // All 32 patterns in one packed call.
        std::vector<std::uint64_t> packed(5, 0);
        for (std::uint64_t m = 0; m < 32; ++m)
            for (int i = 0; i < 5; ++i)
                if ((m >> i) & 1)
                    packed[i] |= std::uint64_t{1} << m;
        const auto packed_out = pe.evalOutputs(packed);

        for (std::uint64_t m = 0; m < 32; ++m) {
            const auto scalar_out = ev.evalOutputs(patternOf(m, 5));
            for (int j = 0; j < net.numOutputs(); ++j) {
                ASSERT_EQ(static_cast<bool>((packed_out[j] >> m) & 1),
                          scalar_out[j])
                    << "trial " << trial << " m " << m << " out " << j;
            }
        }
    }
}

TEST(Packed, MatchesScalarUnderFaults)
{
    util::Rng rng(32);
    for (int trial = 0; trial < 10; ++trial) {
        const Netlist net = testing::randomNetlist(4, 10, rng);
        sim::Evaluator ev(net);
        oracle::PackedEvaluator pe(net);
        const auto faults = net.allFaults();
        const Fault &fault = faults[rng.below(faults.size())];

        std::vector<std::uint64_t> packed(4, 0);
        for (std::uint64_t m = 0; m < 16; ++m)
            for (int i = 0; i < 4; ++i)
                if ((m >> i) & 1)
                    packed[i] |= std::uint64_t{1} << m;
        const auto packed_out = pe.evalOutputs(packed, &fault);
        for (std::uint64_t m = 0; m < 16; ++m) {
            const auto scalar_out =
                ev.evalOutputs(patternOf(m, 4), &fault);
            for (int j = 0; j < net.numOutputs(); ++j)
                ASSERT_EQ(static_cast<bool>((packed_out[j] >> m) & 1),
                          scalar_out[j]);
        }
    }
}

TEST(Packed, WideThresholdGates)
{
    // A 9-input minority: check the bit-sliced counter logic.
    Netlist net;
    std::vector<GateId> ins;
    for (int i = 0; i < 9; ++i)
        ins.push_back(net.addInput("x" + std::to_string(i)));
    net.addOutput(net.addMin(ins), "m");
    net.addOutput(net.addMaj(ins), "M");

    sim::Evaluator ev(net);
    oracle::PackedEvaluator pe(net);
    util::Rng rng(33);
    for (int block = 0; block < 4; ++block) {
        std::vector<std::uint64_t> packed(9);
        for (auto &w : packed)
            w = rng.next();
        const auto packed_out = pe.evalOutputs(packed);
        for (int lane = 0; lane < 64; ++lane) {
            std::vector<bool> x(9);
            int ones = 0;
            for (int i = 0; i < 9; ++i) {
                x[i] = (packed[i] >> lane) & 1;
                ones += x[i];
            }
            const auto scalar = ev.evalOutputs(x);
            ASSERT_EQ(static_cast<bool>((packed_out[0] >> lane) & 1),
                      ones < 5);
            ASSERT_EQ(scalar[0], ones < 5);
            ASSERT_EQ(static_cast<bool>((packed_out[1] >> lane) & 1),
                      ones > 4);
        }
    }
}

} // namespace
} // namespace scal
