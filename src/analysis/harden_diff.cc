#include "analysis/harden_diff.hh"

#include <algorithm>
#include <deque>
#include <sstream>

#include "analysis/report.hh"
#include "netlist/structure.hh"
#include "util/json.hh"

namespace scal::analysis
{

using namespace netlist;

namespace
{

/** True when @p drv is a Yamamoto mux selected by input @p phi:
 *  OR of two 2-input ANDs, one containing NOT(φ), the other φ.
 *  On success *trueLeg gets the φ̄ (first-period) AND and *dualLeg
 *  the φ-selected one. */
bool
matchMux(const Netlist &net, GateId drv, GateId phi, GateId *trueLeg,
         GateId *dualLeg)
{
    const Gate &g = net.gate(drv);
    if (g.kind != GateKind::Or || g.fanin.size() != 2)
        return false;
    auto legSelect = [&](GateId legId, bool *hasPhi, bool *hasPhiN) {
        const Gate &leg = net.gate(legId);
        *hasPhi = *hasPhiN = false;
        if (leg.kind != GateKind::And || leg.fanin.size() != 2)
            return false;
        for (const GateId f : leg.fanin) {
            if (f == phi)
                *hasPhi = true;
            const Gate &fg = net.gate(f);
            if (fg.kind == GateKind::Not && fg.fanin[0] == phi)
                *hasPhiN = true;
        }
        return true;
    };
    bool aPhi, aPhiN, bPhi, bPhiN;
    if (!legSelect(g.fanin[0], &aPhi, &aPhiN) ||
        !legSelect(g.fanin[1], &bPhi, &bPhiN))
        return false;
    if (aPhiN && bPhi) {
        *trueLeg = g.fanin[0];
        *dualLeg = g.fanin[1];
        return true;
    }
    if (bPhiN && aPhi) {
        *trueLeg = g.fanin[1];
        *dualLeg = g.fanin[0];
        return true;
    }
    return false;
}

/** Backward reachability from @p seeds over fanin edges, stopping at
 *  sources (inputs, consts, Dff outputs). */
std::vector<bool>
backwardCone(const Netlist &net, const std::vector<GateId> &seeds)
{
    std::vector<bool> in(static_cast<std::size_t>(net.numGates()),
                         false);
    std::deque<GateId> queue;
    for (const GateId s : seeds)
        if (!in[static_cast<std::size_t>(s)]) {
            in[static_cast<std::size_t>(s)] = true;
            queue.push_back(s);
        }
    while (!queue.empty()) {
        const GateId g = queue.front();
        queue.pop_front();
        const Gate &gate = net.gate(g);
        if (gate.kind == GateKind::Dff)
            continue; // state lines are shared sources for both cones
        for (const GateId d : gate.fanin)
            if (d != kNoGate && !in[static_cast<std::size_t>(d)]) {
                in[static_cast<std::size_t>(d)] = true;
                queue.push_back(d);
            }
    }
    return in;
}

bool
isLogicGate(const Gate &g)
{
    switch (g.kind) {
      case GateKind::Input:
      case GateKind::Const0:
      case GateKind::Const1:
      case GateKind::Buf:
      case GateKind::Dff:
        return false;
      default:
        return true;
    }
}

} // namespace

HardenDiff
diffHardened(const Netlist &orig, const Netlist &hardened, int phiInput)
{
    HardenDiff d;
    if (phiInput < 0)
        phiInput = hardened.numInputs() - 1;
    const GateId phi =
        hardened.inputs()[static_cast<std::size_t>(phiInput)];

    // Every observable sink driver: primary outputs plus Dff D lines,
    // deduplicated (hardenNetlist builds one mux per distinct driver).
    std::vector<GateId> sinks;
    for (const GateId out : hardened.outputs())
        sinks.push_back(out);
    for (const GateId ff : hardened.flipFlops()) {
        const GateId dIn = hardened.gate(ff).fanin[0];
        if (dIn != kNoGate)
            sinks.push_back(dIn);
    }
    std::sort(sinks.begin(), sinks.end());
    sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());

    std::vector<GateId> trueLegs, dualLegs;
    for (const GateId s : sinks) {
        GateId trueLeg, dualLeg;
        if (matchMux(hardened, s, phi, &trueLeg, &dualLeg)) {
            ++d.muxCount;
            trueLegs.push_back(trueLeg);
            dualLegs.push_back(dualLeg);
        }
    }

    const std::vector<bool> trueCone = backwardCone(hardened, trueLegs);
    const std::vector<bool> dualCone = backwardCone(hardened, dualLegs);
    int logicGates = 0;
    for (GateId g = 0; g < hardened.numGates(); ++g) {
        if (!isLogicGate(hardened.gate(g)))
            continue;
        ++logicGates;
        const std::size_t i = static_cast<std::size_t>(g);
        if (dualCone[i] && !trueCone[i])
            ++d.dualOnlyGates;
        else if (dualCone[i] && trueCone[i])
            ++d.sharedGates;
    }
    d.dualConeShare =
        logicGates ? static_cast<double>(d.dualOnlyGates) / logicGates
                   : 0.0;

    d.gatesBefore = orig.cost().gates;
    d.gatesAfter = hardened.cost().gates;
    d.depthBefore = logicDepth(orig);
    d.depthAfter = logicDepth(hardened);

    // Match outputs by name; hardening preserves output names.
    const NetlistStats before = computeStats(orig);
    const NetlistStats after = computeStats(hardened);
    for (int i = 0; i < orig.numOutputs(); ++i) {
        for (int j = 0; j < hardened.numOutputs(); ++j) {
            if (orig.outputName(i) != hardened.outputName(j))
                continue;
            HardenDiff::OutputDepth od;
            od.name = orig.outputName(i);
            od.before =
                before.outputDepths[static_cast<std::size_t>(i)];
            od.after = after.outputDepths[static_cast<std::size_t>(j)];
            d.outputDepths.push_back(std::move(od));
            break;
        }
    }
    return d;
}

std::string
HardenDiff::toJson() const
{
    std::ostringstream out;
    out << "{\n"
        << "  \"mux_count\": " << muxCount << ",\n"
        << "  \"dual_only_gates\": " << dualOnlyGates << ",\n"
        << "  \"shared_gates\": " << sharedGates << ",\n"
        << "  \"dual_cone_share\": " << dualConeShare << ",\n"
        << "  \"gates_before\": " << gatesBefore << ",\n"
        << "  \"gates_after\": " << gatesAfter << ",\n"
        << "  \"depth_before\": " << depthBefore << ",\n"
        << "  \"depth_after\": " << depthAfter << ",\n"
        << "  \"output_depths\": [";
    for (std::size_t i = 0; i < outputDepths.size(); ++i) {
        const OutputDepth &od = outputDepths[i];
        out << (i ? ", " : "") << "{\"name\": \""
            << util::jsonEscape(od.name) << "\", \"before\": " << od.before
            << ", \"after\": " << od.after << "}";
    }
    out << "]\n"
        << "}\n";
    return out.str();
}

} // namespace scal::analysis
