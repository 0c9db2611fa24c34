#include "analysis/report.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "analysis/cycle_detector.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "util/json.hh"

namespace scal::analysis
{

using namespace netlist;

GateId
findNet(const Netlist &net, const std::string &name)
{
    for (GateId g = 0; g < net.numGates(); ++g)
        if (net.gate(g).name == name)
            return g;
    for (int i = 0; i < net.numOutputs(); ++i)
        if (net.outputName(i) == name)
            return net.outputs()[static_cast<std::size_t>(i)];
    return kNoGate;
}

NetlistStats
computeStats(const Netlist &net)
{
    NetlistStats s;
    s.inputs = net.numInputs();
    s.outputs = net.numOutputs();
    s.combLoops = static_cast<int>(findCombLoops(net).size());
    s.kindCounts.assign(static_cast<std::size_t>(GateKind::Dff) + 1, 0);

    // Own fanout counts (raw fanin edges + output taps), usable even
    // when the netlist's topological caches would throw on a cycle.
    std::vector<int> fanout(static_cast<std::size_t>(net.numGates()), 0);
    for (GateId g = 0; g < net.numGates(); ++g) {
        const Gate &gate = net.gate(g);
        ++s.kindCounts[static_cast<std::size_t>(gate.kind)];
        if (gate.kind == GateKind::Dff)
            ++s.flipFlops;
        for (const GateId d : gate.fanin)
            if (d != kNoGate)
                ++fanout[static_cast<std::size_t>(d)];
    }
    for (const GateId out : net.outputs())
        ++fanout[static_cast<std::size_t>(out)];
    for (const int f : fanout) {
        s.maxFanout = std::max(s.maxFanout, f);
        if (static_cast<std::size_t>(f) >= s.fanoutHistogram.size())
            s.fanoutHistogram.resize(static_cast<std::size_t>(f) + 1, 0);
        ++s.fanoutHistogram[static_cast<std::size_t>(f)];
    }

    const Netlist::Cost cost = net.cost();
    s.gates = cost.gates;
    s.gateInputs = cost.gateInputs;

    if (s.combLoops == 0) {
        // Depth DP over a self-built Kahn order (Dffs are sources).
        std::vector<int> depth(static_cast<std::size_t>(net.numGates()),
                               0);
        for (const GateId g : net.topoOrder()) {
            const Gate &gate = net.gate(g);
            if (gate.kind == GateKind::Input ||
                gate.kind == GateKind::Const0 ||
                gate.kind == GateKind::Const1 ||
                gate.kind == GateKind::Dff)
                continue;
            int best = 0;
            for (const GateId d : gate.fanin)
                best = std::max(best,
                                depth[static_cast<std::size_t>(d)]);
            depth[static_cast<std::size_t>(g)] = best + 1;
        }
        for (const int d : depth)
            s.logicDepth = std::max(s.logicDepth, d);
        for (const GateId out : net.outputs())
            s.outputDepths.push_back(
                depth[static_cast<std::size_t>(out)]);
        s.contentHash = contentHash(net);
        s.faultSites = static_cast<int>(net.faultSites().size());
    }
    return s;
}

std::string
statsJson(const NetlistStats &stats, const std::string &name,
          const std::string &format)
{
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(stats.contentHash));
    std::ostringstream out;
    out << "{\n"
        << "  \"name\": \"" << util::jsonEscape(name) << "\",\n"
        << "  \"format\": \"" << util::jsonEscape(format) << "\",\n"
        << "  \"content_hash\": \"" << hash << "\",\n"
        << "  \"inputs\": " << stats.inputs << ",\n"
        << "  \"outputs\": " << stats.outputs << ",\n"
        << "  \"flip_flops\": " << stats.flipFlops << ",\n"
        << "  \"gates\": " << stats.gates << ",\n"
        << "  \"gate_inputs\": " << stats.gateInputs << ",\n"
        << "  \"logic_depth\": " << stats.logicDepth << ",\n"
        << "  \"fault_sites\": " << stats.faultSites << ",\n"
        << "  \"comb_loops\": " << stats.combLoops << ",\n"
        << "  \"max_fanout\": " << stats.maxFanout << ",\n";
    out << "  \"gate_counts\": {";
    bool first = true;
    for (std::size_t k = 0; k < stats.kindCounts.size(); ++k) {
        if (stats.kindCounts[k] == 0)
            continue;
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << kindName(static_cast<GateKind>(k))
            << "\": " << stats.kindCounts[k];
    }
    out << "},\n";
    out << "  \"fanout_histogram\": [";
    for (std::size_t f = 0; f < stats.fanoutHistogram.size(); ++f)
        out << (f ? ", " : "") << stats.fanoutHistogram[f];
    out << "],\n";
    out << "  \"output_depths\": [";
    for (std::size_t i = 0; i < stats.outputDepths.size(); ++i)
        out << (i ? ", " : "") << stats.outputDepths[i];
    out << "]\n"
        << "}\n";
    return out.str();
}

void
printReport(std::ostream &out, const Netlist &net,
            const NetlistStats &stats)
{
    out << "inputs " << stats.inputs << ", outputs " << stats.outputs
        << ", flip-flops " << stats.flipFlops << ", gates "
        << stats.gates << " (" << stats.gateInputs
        << " gate inputs), logic depth " << stats.logicDepth
        << ", fault sites " << stats.faultSites << "\n";

    out << "gate census:";
    for (std::size_t k = 0; k < stats.kindCounts.size(); ++k)
        if (stats.kindCounts[k] != 0)
            out << " " << kindName(static_cast<GateKind>(k)) << "="
                << stats.kindCounts[k];
    out << "\n";

    out << "fanout histogram (fanout=count):";
    for (std::size_t f = 0; f < stats.fanoutHistogram.size(); ++f)
        if (stats.fanoutHistogram[f] != 0)
            out << " " << f << "=" << stats.fanoutHistogram[f];
    out << "  max " << stats.maxFanout << "\n";

    if (stats.combLoops != 0) {
        out << "COMBINATIONAL LOOPS: " << stats.combLoops << "\n";
        for (const CombLoop &loop : findCombLoops(net))
            out << "  " << cycleToString(net, loop) << "\n";
        return; // drivers/depths are meaningless on a cyclic net
    }

    out << "output depths:";
    for (int i = 0; i < stats.outputs; ++i)
        out << " " << net.outputName(i) << "="
            << stats.outputDepths[static_cast<std::size_t>(i)];
    out << "\n";

    out << "drivers:\n";
    for (int i = 0; i < net.numOutputs(); ++i)
        out << "  " << net.outputName(i) << " <- "
            << net.describe(net.outputs()[static_cast<std::size_t>(i)])
            << "\n";
}

} // namespace scal::analysis
