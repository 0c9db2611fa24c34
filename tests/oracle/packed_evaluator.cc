#include "oracle/packed_evaluator.hh"

#include <stdexcept>

#include "sim/gate_eval.hh"

namespace scal::oracle
{

using namespace netlist;
using sim::thresholdWord;

PackedEvaluator::PackedEvaluator(const Netlist &net)
    : net_(net), ffs_(net.flipFlops()), ffIndex_(net.numGates(), -1)
{
    net_.validate();
    for (std::size_t i = 0; i < ffs_.size(); ++i)
        ffIndex_[ffs_[i]] = static_cast<int>(i);
}

std::vector<std::uint64_t>
PackedEvaluator::evalLines(const std::vector<std::uint64_t> &inputs,
                           const Fault *fault,
                           const std::vector<std::uint64_t> *dff_state) const
{
    if (static_cast<int>(inputs.size()) != net_.numInputs())
        throw std::invalid_argument("input vector size mismatch");
    if (!ffs_.empty() &&
        (!dff_state || dff_state->size() != ffs_.size())) {
        throw std::invalid_argument("missing flip-flop state");
    }

    const std::uint64_t ones = ~std::uint64_t{0};
    std::vector<std::uint64_t> value(net_.numGates(), 0);
    std::vector<std::uint64_t> in;
    for (GateId g : net_.topoOrder()) {
        const Gate &gate = net_.gate(g);
        std::uint64_t v = 0;
        switch (gate.kind) {
          case GateKind::Input:
            v = inputs[net_.inputIndex(g)];
            break;
          case GateKind::Dff:
            v = (*dff_state)[ffIndex_[g]];
            break;
          case GateKind::Const0:
            v = 0;
            break;
          case GateKind::Const1:
            v = ones;
            break;
          default: {
            in.assign(gate.fanin.size(), 0);
            for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
                std::uint64_t w = value[gate.fanin[pin]];
                if (fault && !fault->site.isStem() &&
                    fault->site.consumer == g &&
                    fault->site.pin == static_cast<int>(pin) &&
                    fault->site.driver == gate.fanin[pin]) {
                    w = fault->value ? ones : 0;
                }
                in[pin] = w;
            }
            switch (gate.kind) {
              case GateKind::Buf:
                v = in[0];
                break;
              case GateKind::Not:
                v = ~in[0];
                break;
              case GateKind::And:
                v = ones;
                for (auto w : in)
                    v &= w;
                break;
              case GateKind::Nand:
                v = ones;
                for (auto w : in)
                    v &= w;
                v = ~v;
                break;
              case GateKind::Or:
                for (auto w : in)
                    v |= w;
                break;
              case GateKind::Nor:
                for (auto w : in)
                    v |= w;
                v = ~v;
                break;
              case GateKind::Xor:
                for (auto w : in)
                    v ^= w;
                break;
              case GateKind::Xnor:
                for (auto w : in)
                    v ^= w;
                v = ~v;
                break;
              case GateKind::Maj:
                v = thresholdWord(in.data(), in.size(), true);
                break;
              case GateKind::Min:
                v = thresholdWord(in.data(), in.size(), false);
                break;
              default:
                break;
            }
            break;
          }
        }
        if (fault && fault->site.isStem() && fault->site.driver == g)
            v = fault->value ? ones : 0;
        value[g] = v;
    }
    return value;
}

std::vector<std::uint64_t>
PackedEvaluator::evalOutputs(const std::vector<std::uint64_t> &inputs,
                             const Fault *fault,
                             const std::vector<std::uint64_t> *dff_state)
    const
{
    const auto lines = evalLines(inputs, fault, dff_state);
    std::vector<std::uint64_t> out(net_.numOutputs());
    for (int j = 0; j < net_.numOutputs(); ++j) {
        std::uint64_t v = lines[net_.outputs()[j]];
        if (fault && fault->site.consumer == FaultSite::kOutputTap &&
            fault->site.pin == j &&
            fault->site.driver == net_.outputs()[j]) {
            v = fault->value ? ~std::uint64_t{0} : 0;
        }
        out[j] = v;
    }
    return out;
}

} // namespace scal::oracle
