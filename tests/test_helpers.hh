/**
 * @file
 * Shared generators for the property-test sweeps: random netlists,
 * random NAND-only networks, random state tables, and brute-force
 * reference evaluation.
 */

#ifndef SCAL_TESTS_TEST_HELPERS_HH
#define SCAL_TESTS_TEST_HELPERS_HH

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/netlist.hh"
#include "seq/state_table.hh"
#include "util/rng.hh"

namespace scal::testing
{

/**
 * The path of the bundled circuits/@p file, from the repository root
 * or a build tree's test directory; throws when it is not there.
 */
inline std::string
bundledCircuitPath(const std::string &file)
{
    for (const char *dir : {"circuits", "../circuits", "../../circuits"}) {
        const std::string p = std::string(dir) + "/" + file;
        if (std::ifstream(p))
            return p;
    }
    throw std::runtime_error("cannot locate circuits/" + file);
}

/**
 * A random combinational netlist over @p num_inputs inputs with
 * @p num_gates gates drawn from the full gate alphabet (arity 1-3,
 * odd arity for threshold gates) and 1-3 outputs.
 */
inline netlist::Netlist
randomNetlist(int num_inputs, int num_gates, util::Rng &rng,
              bool allow_xor = true)
{
    using namespace netlist;
    Netlist net;
    std::vector<GateId> pool;
    for (int i = 0; i < num_inputs; ++i)
        pool.push_back(net.addInput("x" + std::to_string(i)));

    const GateKind kinds[] = {GateKind::And,  GateKind::Or,
                              GateKind::Nand, GateKind::Nor,
                              GateKind::Not,  GateKind::Xor,
                              GateKind::Maj,  GateKind::Min};
    for (int g = 0; g < num_gates; ++g) {
        GateKind kind;
        do {
            kind = kinds[rng.below(8)];
        } while (!allow_xor && kind == GateKind::Xor);
        int arity;
        switch (kind) {
          case GateKind::Not:
            arity = 1;
            break;
          case GateKind::Maj:
          case GateKind::Min:
            arity = 3;
            break;
          default:
            arity = 2 + static_cast<int>(rng.below(2));
            break;
        }
        std::vector<GateId> fanin;
        for (int k = 0; k < arity; ++k)
            fanin.push_back(pool[rng.below(pool.size())]);
        pool.push_back(net.addGate(kind, std::move(fanin)));
    }
    const int num_outputs = 1 + static_cast<int>(rng.below(3));
    for (int j = 0; j < num_outputs; ++j) {
        // Bias outputs toward late gates so the cones are deep.
        const std::size_t lo = pool.size() > 4 ? pool.size() - 4 : 0;
        const GateId g =
            pool[lo + rng.below(pool.size() - lo)];
        net.addOutput(g, "f" + std::to_string(j));
    }
    return net;
}

/**
 * A random sequential netlist whose fan-ins may be structural
 * constants or flip-flops, so const refinement, dominance and the seq
 * options all have something to act on: 2-5 inputs, two flip-flops,
 * 6-25 gates and 1-3 outputs. With @p mixed_latches each flip-flop
 * draws its latch mode (every period, φ rise or φ fall); without, both
 * latch every period and no draw is made for them.
 */
inline netlist::Netlist
randomSeqNetlist(util::Rng &rng, bool mixed_latches = false)
{
    using namespace netlist;
    Netlist net;
    std::vector<GateId> pool;
    const int ni = 2 + static_cast<int>(rng.below(4));
    for (int i = 0; i < ni; ++i)
        pool.push_back(net.addInput("x" + std::to_string(i)));
    pool.push_back(net.addConst(false));
    pool.push_back(net.addConst(true));
    const LatchMode modes[] = {LatchMode::EveryPeriod, LatchMode::PhiRise,
                               LatchMode::PhiFall};
    std::vector<GateId> ffs;
    for (int k = 0; k < 2; ++k) {
        const LatchMode mode =
            mixed_latches ? modes[rng.below(3)] : LatchMode::EveryPeriod;
        ffs.push_back(net.addDeferredDff("q" + std::to_string(k), mode,
                                         rng.below(2) != 0));
        pool.push_back(ffs.back());
    }
    const GateKind kinds[] = {GateKind::And, GateKind::Or,  GateKind::Nand,
                              GateKind::Nor, GateKind::Not, GateKind::Buf,
                              GateKind::Xor, GateKind::Xnor, GateKind::Maj};
    const int ng = 6 + static_cast<int>(rng.below(20));
    for (int g = 0; g < ng; ++g) {
        const GateKind kind = kinds[rng.below(9)];
        const int arity = kind == GateKind::Not || kind == GateKind::Buf ? 1
                          : kind == GateKind::Maj
                              ? 3
                              : 2 + static_cast<int>(rng.below(2));
        std::vector<GateId> fanin;
        for (int k = 0; k < arity; ++k)
            fanin.push_back(pool[rng.below(pool.size())]);
        pool.push_back(net.addGate(kind, std::move(fanin)));
    }
    for (const GateId ff : ffs)
        net.replaceFanin(ff, 0, pool[rng.below(pool.size())]);
    const int no = 1 + static_cast<int>(rng.below(3));
    for (int j = 0; j < no; ++j)
        net.addOutput(pool[pool.size() - 1 - rng.below(3)],
                      "f" + std::to_string(j));
    return net;
}

/** @p copies disjoint copies of the combinational @p net side by side,
 *  each with its own inputs and outputs (names suffixed _k). */
inline netlist::Netlist
disjointCopies(const netlist::Netlist &net, int copies)
{
    using namespace netlist;
    Netlist out;
    for (int k = 0; k < copies; ++k) {
        const std::string tag = "_" + std::to_string(k);
        std::vector<GateId> map(static_cast<std::size_t>(net.numGates()),
                                kNoGate);
        for (const GateId g : net.topoOrder()) {
            const Gate &gate = net.gate(g);
            if (gate.kind == GateKind::Input) {
                map[g] = out.addInput(gate.name + tag);
                continue;
            }
            std::vector<GateId> fanin;
            for (const GateId d : gate.fanin)
                fanin.push_back(map[d]);
            map[g] = out.addGate(gate.kind, std::move(fanin),
                                 gate.name.empty() ? "" : gate.name + tag);
        }
        for (int j = 0; j < net.numOutputs(); ++j)
            out.addOutput(map[net.outputs()[j]], net.outputName(j) + tag);
    }
    return out;
}

/** A random NAND+NOT network (for the Chapter 6 conversion sweeps). */
inline netlist::Netlist
randomNandNetwork(int num_inputs, int num_gates, util::Rng &rng)
{
    using namespace netlist;
    Netlist net;
    std::vector<GateId> pool;
    for (int i = 0; i < num_inputs; ++i)
        pool.push_back(net.addInput("x" + std::to_string(i)));
    for (int g = 0; g < num_gates; ++g) {
        const int arity =
            rng.chance(0.15) ? 1 : 2 + static_cast<int>(rng.below(2));
        std::vector<GateId> fanin;
        for (int k = 0; k < arity; ++k)
            fanin.push_back(pool[rng.below(pool.size())]);
        pool.push_back(net.addGate(
            arity == 1 ? GateKind::Not : GateKind::Nand,
            std::move(fanin)));
    }
    net.addOutput(pool.back(), "f");
    return net;
}

/** A random complete Mealy table. */
inline seq::StateTable
randomStateTable(int num_states, int input_bits, int output_bits,
                 util::Rng &rng)
{
    seq::StateTable t(num_states, input_bits, output_bits);
    for (int s = 0; s < num_states; ++s) {
        for (int i = 0; i < t.numSymbols(); ++i) {
            t.setTransition(s, i,
                            static_cast<int>(rng.below(num_states)),
                            static_cast<unsigned>(
                                rng.below(1u << output_bits)));
        }
    }
    return t;
}

/** Input vector for minterm @p m over @p n inputs. */
inline std::vector<bool>
patternOf(std::uint64_t m, int n)
{
    std::vector<bool> x(n);
    for (int i = 0; i < n; ++i)
        x[i] = (m >> i) & 1;
    return x;
}

} // namespace scal::testing

#endif // SCAL_TESTS_TEST_HELPERS_HH
