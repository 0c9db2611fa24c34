#include "seq/dual_flipflop.hh"

#include "netlist/circuits.hh"
#include "sim/sequential.hh"

namespace scal::seq
{

using namespace netlist;
using logic::TruthTable;

SynthesizedMachine
synthesizeDualFlipFlop(const StateTable &table)
{
    const MachineFunctions mf = machineFunctions(table);
    SynthesizedMachine sm;
    Netlist &net = sm.net;
    sm.dataInputs = mf.inputBits;

    std::vector<GateId> ins;
    for (int i = 0; i < mf.inputBits; ++i)
        ins.push_back(net.addInput("x" + std::to_string(i)));
    const GateId phi = net.addInput("phi");
    sm.phiInput = mf.inputBits;

    // Two flip-flops per state variable double the feedback delay so
    // the state lines alternate along with the inputs (Figure 4.2a).
    // At reset the first rank holds the complement of the initial
    // state (the value the period-2 evaluation expects).
    const GateId placeholder = net.addConst(false);
    std::vector<GateId> rank1, rank2;
    for (int i = 0; i < mf.stateBits; ++i) {
        GateId d1 = net.addDff(placeholder, "d1_" + std::to_string(i),
                               LatchMode::EveryPeriod, /*init=*/true);
        GateId d2 = net.addDff(d1, "d2_" + std::to_string(i),
                               LatchMode::EveryPeriod, /*init=*/false);
        rank1.push_back(d1);
        rank2.push_back(d2);
        ins.push_back(d2);
    }
    ins.push_back(phi);

    std::vector<GateId> inverters(ins.size(), kNoGate);
    for (std::size_t j = 0; j < mf.output.size(); ++j) {
        GateId z = circuits::emitSopCone(net, mf.output[j].selfDualize(),
                                         ins, inverters,
                                         "Z" + std::to_string(j));
        sm.zOutputs.push_back(net.numOutputs());
        net.addOutput(z, "Z" + std::to_string(j));
    }
    for (int i = 0; i < mf.stateBits; ++i) {
        GateId y = circuits::emitSopCone(net,
                                         mf.excitation[i].selfDualize(),
                                         ins, inverters,
                                         "Y" + std::to_string(i));
        net.replaceFanin(rank1[i], 0, y);
        sm.yOutputs.push_back(net.numOutputs());
        net.addOutput(y, "Y" + std::to_string(i));
    }
    return sm;
}

AlternatingRun
runAlternating(const SynthesizedMachine &sm, const std::vector<int> &symbols,
               const Fault *fault)
{
    // The scalar SeqSimulator applies each symbol as (X, φ=0) then
    // (X̄, φ=1), with the fault (if any) active in every period.
    sim::SeqSimulator simulator(sm.net, sm.phiInput);
    if (fault)
        simulator.setFault(*fault);

    AlternatingRun run;
    run.outputs.reserve(symbols.size());
    std::vector<bool> in(static_cast<std::size_t>(sm.net.numInputs()));
    std::vector<bool> y1;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
        for (int i = 0; i < sm.dataInputs; ++i)
            in[i] = ((symbols[s] >> i) & 1) != 0;
        y1 = simulator.stepPeriod(in); // the next step reuses the buffer
        for (int i = 0; i < sm.dataInputs; ++i)
            in[i] = !in[i];
        const std::vector<bool> &y2 = simulator.stepPeriod(in);

        unsigned z = 0;
        for (std::size_t j = 0; j < sm.zOutputs.size(); ++j)
            if (y1[sm.zOutputs[j]])
                z |= 1u << j;
        run.outputs.push_back(z);

        bool ok = true;
        for (int j : sm.zOutputs)
            ok &= y1[j] != y2[j];
        for (int j : sm.yOutputs)
            ok &= y1[j] != y2[j];
        // Checker code outputs come in (p, q) pairs; each period must
        // carry a 1-out-of-2 word.
        for (std::size_t c = 0; c + 1 < sm.checkOutputs.size(); c += 2) {
            ok &= y1[sm.checkOutputs[c]] != y1[sm.checkOutputs[c + 1]];
            ok &= y2[sm.checkOutputs[c]] != y2[sm.checkOutputs[c + 1]];
        }
        if (!ok && run.allAlternated) {
            run.allAlternated = false;
            run.firstErrorSymbol = static_cast<long>(s);
        }
    }
    return run;
}

fault::SeqCampaignSpec
campaignSpec(const SynthesizedMachine &sm)
{
    fault::SeqCampaignSpec spec;
    spec.phiInput = sm.phiInput;
    spec.dataOutputs = sm.zOutputs;
    spec.altOutputs = sm.zOutputs;
    spec.altOutputs.insert(spec.altOutputs.end(), sm.yOutputs.begin(),
                           sm.yOutputs.end());
    spec.codePairs = sm.checkOutputs;
    return spec;
}

} // namespace scal::seq
