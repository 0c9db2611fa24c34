#include "core/analysis.hh"

#include <stdexcept>
#include <string>

namespace scal::core
{

using namespace netlist;
using logic::TruthTable;

ScalAnalyzer::ScalAnalyzer(const Netlist &net) : net_(net)
{
    if (!net.isCombinational())
        throw std::invalid_argument(
            "ScalAnalyzer handles combinational networks; analyze a "
            "sequential machine's combinational core instead");
    if (net.numInputs() > kMaxAnalyzerInputs)
        throw std::invalid_argument(
            "exact analysis takes at most " +
            std::to_string(kMaxAnalyzerInputs) +
            " inputs; this network has " + std::to_string(net.numInputs()));
    lf_ = sim::computeLineFunctions(net);
}

bool
ScalAnalyzer::isAlternatingNetwork() const
{
    for (const TruthTable &f : lf_.output)
        if (!f.isSelfDual())
            return false;
    return true;
}

std::vector<TruthTable>
ScalAnalyzer::faultyOutputs(const Fault &fault) const
{
    return sim::faultyOutputFunctions(net_, lf_, fault);
}

FaultAnalysis
ScalAnalyzer::analyzeFault(const Fault &fault) const
{
    FaultAnalysis fa;
    fa.fault = fault;

    const std::vector<TruthTable> faulty = faultyOutputs(fault);
    const int n_out = net_.numOutputs();
    TruthTable any_nonalt(lf_.numVars);
    TruthTable any_bad(lf_.numVars);

    for (int j = 0; j < n_out; ++j) {
        const TruthTable &good = lf_.output[j];
        const TruthTable &bad_fn = faulty[j];
        const TruthTable second = bad_fn.reflect(); // F_f(X̄) as fn of X

        const TruthTable err1 = bad_fn ^ good;
        const TruthTable err2 = second ^ ~good;
        fa.badPerOutput.push_back(err1 & err2);
        fa.nonAltPerOutput.push_back(~(bad_fn ^ second));
        any_bad |= fa.badPerOutput.back();
        any_nonalt |= fa.nonAltPerOutput.back();
        if (!err1.isZero() || !err2.isZero())
            fa.testable = true;
    }
    fa.unsafe = any_bad & ~any_nonalt;
    return fa;
}

bool
ScalAnalyzer::lineAlternates(GateId g) const
{
    return lf_.line[g].isSelfDual();
}

bool
ScalAnalyzer::lineRedundant(GateId g) const
{
    for (bool s : {false, true}) {
        const auto faulty =
            faultyOutputs({FaultSite{g, FaultSite::kStem, -1}, s});
        for (int j = 0; j < net_.numOutputs(); ++j)
            if (!(faulty[j] ^ lf_.output[j]).isZero())
                return false;
    }
    return true;
}

TruthTable
ScalAnalyzer::corollary31(const FaultSite &site, bool s, int output,
                          Corollary31Form form) const
{
    const TruthTable &good = lf_.output[output];
    const TruthTable faulty = faultyOutputs({site, s})[output];
    const TruthTable second = faulty.reflect();
    switch (form) {
      case Corollary31Form::Term1:
        return ~good & faulty & ~second;
      case Corollary31Form::Term2:
        return good & ~faulty & second;
    }
    return TruthTable(lf_.numVars);
}

} // namespace scal::core
