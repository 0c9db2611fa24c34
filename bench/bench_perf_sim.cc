/**
 * @file
 * Experiment E14 — methodology performance: scalar vs 64-way packed
 * gate simulation, exhaustive alternating fault campaigns, and the
 * symbolic analyzer, measured with google-benchmark.
 */

#include <benchmark/benchmark.h>

#include "core/algorithm31.hh"
#include "fault/campaign.hh"
#include "netlist/circuits.hh"
#include "oracle/packed_evaluator.hh"
#include "sim/evaluator.hh"
#include "system/alu.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

void
BM_ScalarEval(benchmark::State &state)
{
    const Netlist net =
        circuits::rippleCarryAdder(static_cast<int>(state.range(0)));
    sim::Evaluator ev(net);
    std::vector<bool> in(net.numInputs(), false);
    std::uint64_t pattern = 0x12345;
    for (auto _ : state) {
        for (int i = 0; i < net.numInputs(); ++i)
            in[i] = (pattern >> (i % 17)) & 1;
        benchmark::DoNotOptimize(ev.evalOutputs(in));
        ++pattern;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarEval)->Arg(4)->Arg(8)->Arg(16);

void
BM_PackedEval(benchmark::State &state)
{
    const Netlist net =
        circuits::rippleCarryAdder(static_cast<int>(state.range(0)));
    oracle::PackedEvaluator pe(net);
    std::vector<std::uint64_t> in(net.numInputs(), 0);
    std::uint64_t pattern = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        for (int i = 0; i < net.numInputs(); ++i)
            in[i] = pattern * (i + 1);
        benchmark::DoNotOptimize(pe.evalOutputs(in));
        ++pattern;
    }
    // 64 patterns per call.
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PackedEval)->Arg(4)->Arg(8)->Arg(16);

void
BM_AlternatingCampaign(benchmark::State &state)
{
    const Netlist net =
        circuits::rippleCarryAdder(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(fault::runAlternatingCampaign(net));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(net.allFaults().size()));
}
BENCHMARK(BM_AlternatingCampaign)->Arg(2)->Arg(4)->Arg(6);

void
BM_Algorithm31(benchmark::State &state)
{
    const Netlist net = circuits::section36Network();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runAlgorithm31(net));
}
BENCHMARK(BM_Algorithm31);

void
BM_AluNetlistSynthesis(benchmark::State &state)
{
    // Dominated by the two-level minimization of the zero-flag cone
    // (memoized in production; measured cold here via width cycling).
    int width = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            system::aluNetlist(system::AluOp::Add, width));
        width = width == 4 ? 8 : 4; // alternate cached entries
    }
}
BENCHMARK(BM_AluNetlistSynthesis);

void
BM_ScalAluTwoPeriodOp(benchmark::State &state)
{
    const Netlist net = system::aluNetlist(system::AluOp::Add);
    sim::Evaluator ev(net);
    std::vector<bool> in(net.numInputs(), false);
    std::uint64_t x = 1;
    for (auto _ : state) {
        for (int i = 0; i < net.numInputs() - 1; ++i)
            in[i] = (x >> (i % 16)) & 1;
        in.back() = false;
        benchmark::DoNotOptimize(ev.evalOutputs(in));
        for (int i = 0; i < net.numInputs(); ++i)
            in[i] = !in[i];
        benchmark::DoNotOptimize(ev.evalOutputs(in));
        ++x;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalAluTwoPeriodOp);

} // namespace
