#include "oracle/setup_reference.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "sim/evaluator.hh"
#include "util/rng.hh"

namespace scal::oracle
{

using namespace netlist;

namespace
{

/**
 * True when input @p pin of gate @p c is masked by a controlling
 * structural constant on a sibling pin (an AND sibling at 0, an OR
 * sibling at 1): no value on @p pin can influence the gate output.
 */
bool
maskedPin(const Netlist &net, const std::vector<int> &cst, GateId c,
          int pin)
{
    const Gate &gate = net.gate(c);
    int controlling;
    switch (gate.kind) {
      case GateKind::And:
      case GateKind::Nand:
        controlling = 0;
        break;
      case GateKind::Or:
      case GateKind::Nor:
        controlling = 1;
        break;
      default:
        return false;
    }
    for (std::size_t q = 0; q < gate.fanin.size(); ++q) {
        if (static_cast<int>(q) != pin &&
            cst[gate.fanin[q]] == controlling)
            return true;
    }
    return false;
}

} // namespace

fault::CollapseResult
mapCollapseFaults(const Netlist &net, const fault::CollapseOptions &opts)
{
    const std::vector<Fault> faults = net.allFaults();
    fault::CollapseResult res;
    res.totalFaults = static_cast<int>(faults.size());

    using Key = std::tuple<GateId, GateId, int, bool>;
    std::map<Key, int> index;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const Fault &f = faults[i];
        index[{f.site.driver, f.site.consumer, f.site.pin, f.value}] =
            static_cast<int>(i);
    }

    std::vector<int> parent(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        parent[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
        return parent[x] == x ? x : parent[x] = find(parent[x]);
    };
    auto unite = [&](int a, int b) {
        if (a >= 0 && b >= 0)
            parent[find(a)] = find(b);
    };

    // The fault on the line segment feeding pin `pin` of gate c: the
    // branch site when the driver fans out, its stem otherwise.
    auto input_fault = [&](GateId c, int pin, bool value) -> int {
        const GateId d = net.gate(c).fanin[pin];
        if (net.fanoutCount(d) > 1) {
            const auto it = index.find({d, c, pin, value});
            return it == index.end() ? -1 : it->second;
        }
        const auto it =
            index.find({d, FaultSite::kStem, -1, value});
        return it == index.end() ? -1 : it->second;
    };
    auto stem_fault = [&](GateId g, bool value) -> int {
        const auto it = index.find({g, FaultSite::kStem, -1, value});
        return it == index.end() ? -1 : it->second;
    };

    std::vector<int> cst;
    if (opts.constRefine || opts.dominance)
        cst = fault::propagateConstants(net, opts.seq);

    for (GateId g = 0; g < net.numGates(); ++g) {
        const Gate &gate = net.gate(g);
        switch (gate.kind) {
          case GateKind::And:
          case GateKind::Nand: {
            const bool out = gate.kind == GateKind::Nand;
            for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
                unite(input_fault(g, static_cast<int>(pin), false),
                      stem_fault(g, out));
            }
            break;
          }
          case GateKind::Or:
          case GateKind::Nor: {
            const bool out = gate.kind == GateKind::Or;
            for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
                unite(input_fault(g, static_cast<int>(pin), true),
                      stem_fault(g, out));
            }
            break;
          }
          case GateKind::Buf:
            unite(input_fault(g, 0, false), stem_fault(g, false));
            unite(input_fault(g, 0, true), stem_fault(g, true));
            break;
          case GateKind::Not:
            unite(input_fault(g, 0, false), stem_fault(g, true));
            unite(input_fault(g, 0, true), stem_fault(g, false));
            break;
          default:
            break; // XOR/threshold gates collapse nothing structurally
        }

        if (opts.seqTimeFrame && gate.kind == GateKind::Dff) {
            // A D-pin fault stuck at the power-on value keeps the
            // state — hence the output — at that value for the whole
            // run: exactly the output stem fault. With a single
            // fanout-free driver that is not itself a primary output,
            // the driver's stem realizes the same faulty function.
            // Callers enable this only when the fault window spans
            // the entire campaign (see CollapseOptions).
            const GateId d = gate.fanin[0];
            const bool v = gate.init;
            if (net.fanoutCount(d) > 1)
                unite(input_fault(g, 0, v), stem_fault(g, v));
            else if (net.outputTaps(d).empty())
                unite(stem_fault(d, v), stem_fault(g, v));
        }

        if (!opts.constRefine)
            continue;

        // Const refinement: a gate whose other inputs are all pinned
        // to structural constants degenerates to a buffer or inverter
        // of the one free pin, so the non-controlling-value faults
        // chain onto the stem too.
        const std::size_t arity = gate.fanin.size();
        auto othersAre = [&](std::size_t k, int v) {
            for (std::size_t q = 0; q < arity; ++q)
                if (q != k && cst[gate.fanin[q]] != v)
                    return false;
            return true;
        };
        switch (gate.kind) {
          case GateKind::And:
          case GateKind::Nand: {
            const bool out = gate.kind == GateKind::And;
            for (std::size_t k = 0; k < arity; ++k)
                if (othersAre(k, 1))
                    unite(input_fault(g, static_cast<int>(k), true),
                          stem_fault(g, out));
            break;
          }
          case GateKind::Or:
          case GateKind::Nor: {
            const bool out = gate.kind == GateKind::Nor;
            for (std::size_t k = 0; k < arity; ++k)
                if (othersAre(k, 0))
                    unite(input_fault(g, static_cast<int>(k), false),
                          stem_fault(g, !out));
            break;
          }
          case GateKind::Xor:
          case GateKind::Xnor: {
            for (std::size_t k = 0; k < arity; ++k) {
                bool known = true;
                bool inv = gate.kind == GateKind::Xnor;
                for (std::size_t q = 0; q < arity; ++q) {
                    if (q == k)
                        continue;
                    const int c = cst[gate.fanin[q]];
                    if (c < 0) {
                        known = false;
                        break;
                    }
                    inv ^= c != 0;
                }
                if (!known)
                    continue;
                unite(input_fault(g, static_cast<int>(k), false),
                      stem_fault(g, inv));
                unite(input_fault(g, static_cast<int>(k), true),
                      stem_fault(g, !inv));
            }
            break;
          }
          case GateKind::Maj:
          case GateKind::Min: {
            // With all other pins constant and split evenly around
            // the threshold, the module passes (Maj) or inverts (Min)
            // the free pin. Only the arity-3 case is common enough to
            // matter.
            if (arity != 3)
                break;
            for (std::size_t k = 0; k < arity; ++k) {
                const int a = cst[gate.fanin[(k + 1) % 3]];
                const int b = cst[gate.fanin[(k + 2) % 3]];
                if (a < 0 || b < 0 || a == b)
                    continue;
                const bool inv = gate.kind == GateKind::Min;
                unite(input_fault(g, static_cast<int>(k), false),
                      stem_fault(g, inv));
                unite(input_fault(g, static_cast<int>(k), true),
                      stem_fault(g, !inv));
            }
            break;
          }
          default:
            break;
        }
    }

    // Emit representatives in first-seen order.
    std::map<int, int> class_id;
    res.classOf.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const int root = find(static_cast<int>(i));
        auto [it, fresh] = class_id.try_emplace(
            root, static_cast<int>(res.representatives.size()));
        if (fresh)
            res.representatives.push_back(faults[root]);
        res.classOf[i] = it->second;
    }
    res.pruned.assign(res.representatives.size(), 0);

    if (opts.dominance) {
        const std::vector<std::uint8_t> obs =
            fault::observableLines(net, opts.seq);
        // A fault is structurally forced-Untestable when the stuck
        // value equals the line's constant (faulty == good function),
        // when a sibling controlling constant masks the faulted pin,
        // or when no unmasked path from the fault reaches a primary
        // output. Any forced member forces its whole class: the
        // class members all realize the same faulty network function.
        auto forcedUntestable = [&](const Fault &f) {
            if (cst[f.site.driver] == static_cast<int>(f.value))
                return true;
            if (f.site.isStem())
                return !obs[f.site.driver];
            if (f.site.consumer == FaultSite::kOutputTap)
                return false;
            return maskedPin(net, cst, f.site.consumer, f.site.pin) ||
                   !obs[f.site.consumer];
        };
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (forcedUntestable(faults[i]))
                res.pruned[res.classOf[i]] = 1;
        }
        for (std::uint8_t p : res.pruned)
            res.prunedClasses += p;
        for (int cls : res.classOf)
            res.prunedFaults += res.pruned[cls];
    }
    return res;
}

std::vector<GateId>
dfsFanoutCone(const sim::FlatNetlist &flat, GateId seed)
{
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(flat.numGates()),
                                   0);
    std::vector<GateId> cone, stack{seed};
    seen[seed] = 1;
    while (!stack.empty()) {
        const GateId g = stack.back();
        stack.pop_back();
        cone.push_back(g);
        for (int k = 0; k < flat.fanoutDegree(g); ++k) {
            const GateId c = flat.consumers(g)[k];
            if (!seen[c]) {
                seen[c] = 1;
                stack.push_back(c);
            }
        }
    }
    std::sort(cone.begin(), cone.end());
    return cone;
}

bool
scalarIsAlternatingNetwork(const Netlist &net, std::uint64_t maxPatterns,
                           std::uint64_t seed)
{
    sim::Evaluator ev(net);
    const int n = net.numInputs();
    const bool exhaustive =
        n < 63 && (std::uint64_t{1} << n) <= maxPatterns;
    const std::uint64_t patterns =
        exhaustive ? (std::uint64_t{1} << n) : maxPatterns;
    util::Rng rng(seed);
    std::vector<bool> x(static_cast<std::size_t>(n)),
        xbar(static_cast<std::size_t>(n));
    for (std::uint64_t k = 0; k < patterns; ++k) {
        // Wide inputs draw one 64-bit word per 64 input positions.
        std::uint64_t m = exhaustive ? k : rng.next();
        for (int i = 0; i < n; ++i) {
            if (!exhaustive && i > 0 && i % 64 == 0)
                m = rng.next();
            x[static_cast<std::size_t>(i)] = (m >> (i % 64)) & 1;
            xbar[static_cast<std::size_t>(i)] =
                !x[static_cast<std::size_t>(i)];
        }
        const auto y1 = ev.evalOutputs(x);
        const auto y2 = ev.evalOutputs(xbar);
        for (int j = 0; j < net.numOutputs(); ++j)
            if (y2[j] == y1[j])
                return false;
    }
    return true;
}

} // namespace scal::oracle
