/**
 * @file
 * scal_genbench — deterministic ISCAS-class benchmark generator.
 *
 * The genuine mid-size ISCAS-85/89 netlists are distributed through
 * the benchmark archives, not this repository; the bundled
 * c432/c880/s298/... circuits under circuits/ are *-class stand-ins:
 * random gate-level DAGs with the same primary-input/output/flip-flop
 * dimensions and a comparable gate mix, emitted by this tool from a
 * fixed seed so they are bit-reproducible.
 *
 *   scal_genbench --name c432 --inputs 36 --outputs 7 --gates 160 \
 *                 [--dffs 0] [--seed 1] [--out FILE]
 *
 * Properties the generator guarantees: the circuit is a valid .bench
 * file, combinationally acyclic (flip-flop feedback only), every
 * primary input and every flip-flop output is used, and every gate
 * reaches some primary output or flip-flop (leftover fanout-free
 * gates are folded into the output logic with NAND combiners).
 */

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/number.hh"
#include "util/rng.hh"

using scal::util::checkedNumber;
using scal::util::Rng;

namespace
{

struct Options
{
    std::string name = "gen";
    int inputs = 8;
    int outputs = 2;
    int dffs = 0;
    int gates = 32;
    std::uint64_t seed = 1;
    std::string out;
};

struct GenGate
{
    std::string fn;
    std::vector<int> fanin; ///< signal indices
};

int
usage()
{
    std::cerr << "usage: scal_genbench --name N --inputs I "
                 "--outputs O --gates G [--dffs D] [--seed S] "
                 "[--out FILE]\n";
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        try {
            if (arg == "--name")
                opt.name = val;
            else if (arg == "--inputs")
                opt.inputs = checkedNumber<int>(arg, val);
            else if (arg == "--outputs")
                opt.outputs = checkedNumber<int>(arg, val);
            else if (arg == "--dffs")
                opt.dffs = checkedNumber<int>(arg, val);
            else if (arg == "--gates")
                opt.gates = checkedNumber<int>(arg, val);
            else if (arg == "--seed")
                opt.seed = checkedNumber<std::uint64_t>(arg, val);
            else if (arg == "--out")
                opt.out = val;
            else
                return usage();
        } catch (const std::exception &e) {
            std::cerr << "scal_genbench: " << e.what() << "\n";
            return usage();
        }
    }
    if (opt.inputs < 1 || opt.outputs < 1 || opt.gates < opt.outputs ||
        opt.dffs < 0)
        return usage();

    Rng rng(opt.seed);

    // Signal table: inputs, then flip-flops, then gates. Names are
    // assigned ISCAS-style (G1, G2, ...) in that order.
    const int ni = opt.inputs, nd = opt.dffs;
    int next = 0;
    auto gname = [&] { return "G" + std::to_string(++next); };
    std::vector<std::string> name;
    for (int i = 0; i < ni + nd; ++i)
        name.push_back(gname());

    std::vector<int> uses(static_cast<std::size_t>(ni + nd), 0);
    std::vector<GenGate> gates;
    auto addGate = [&](const std::string &fn, std::vector<int> fanin) {
        for (int f : fanin)
            ++uses[static_cast<std::size_t>(f)];
        name.push_back(gname());
        uses.push_back(0);
        gates.push_back({fn, std::move(fanin)});
        return static_cast<int>(name.size()) - 1;
    };

    // Weighted ISCAS-ish gate mix.
    const struct
    {
        const char *fn;
        int weight;
        int arity; ///< 0 = 2-3 random
    } mix[] = {{"NAND", 4, 0}, {"NOR", 2, 0}, {"AND", 2, 0},
               {"OR", 2, 0},   {"NOT", 1, 1}, {"XOR", 1, 2}};
    int total_weight = 0;
    for (const auto &m : mix)
        total_weight += m.weight;

    for (int k = 0; k < opt.gates; ++k) {
        int pick = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(total_weight)));
        const auto *chosen = &mix[0];
        for (const auto &m : mix) {
            if (pick < m.weight) {
                chosen = &m;
                break;
            }
            pick -= m.weight;
        }
        int arity = chosen->arity;
        if (arity == 0)
            arity = rng.chance(0.25) ? 3 : 2;

        const int navail = static_cast<int>(name.size());
        std::vector<int> fanin;
        while (static_cast<int>(fanin.size()) < arity) {
            int s;
            if (k < ni + nd && fanin.empty()) {
                // Round-robin over sources first so every input and
                // flip-flop output is guaranteed a consumer.
                s = k;
            } else if (rng.chance(0.7) && navail > 8) {
                // Bias toward recent signals: deep, narrow cones.
                s = navail - 1 -
                    static_cast<int>(rng.below(
                        std::min<std::uint64_t>(30, navail)));
            } else {
                s = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(navail)));
            }
            bool dup = false;
            for (int f : fanin)
                dup |= f == s;
            if (!dup)
                fanin.push_back(s);
        }
        addGate(chosen->fn, std::move(fanin));
    }

    // Flip-flop feedback: each D input taps a gate from the deeper
    // half of the array (flip-flops break the cycle, so any gate is
    // legal; deep taps make the state interesting).
    std::vector<int> dffD(static_cast<std::size_t>(nd));
    for (int d = 0; d < nd; ++d) {
        const int half = opt.gates / 2;
        const int g = ni + nd + half +
                      static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(
                              std::max(1, opt.gates - half))));
        dffD[static_cast<std::size_t>(d)] = g;
        ++uses[static_cast<std::size_t>(g)];
    }

    // Everything still fanout-free must reach an output: fold the
    // excess into NAND combiners, then the survivors are the POs.
    std::vector<int> unused;
    for (int s = 0; s < static_cast<int>(name.size()); ++s)
        if (uses[static_cast<std::size_t>(s)] == 0 && s >= ni)
            unused.push_back(s);
    while (static_cast<int>(unused.size()) > opt.outputs) {
        const int a = unused[0], b = unused[1];
        unused.erase(unused.begin(), unused.begin() + 2);
        unused.push_back(addGate("NAND", {a, b}));
    }
    while (static_cast<int>(unused.size()) < opt.outputs) {
        // Degenerate corner: tap extra outputs off random gates.
        unused.push_back(
            ni + nd +
            static_cast<int>(rng.below(
                static_cast<std::uint64_t>(gates.size()))));
    }

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!opt.out.empty()) {
        file.open(opt.out);
        if (!file) {
            std::cerr << "cannot open " << opt.out << "\n";
            return 1;
        }
        os = &file;
    }

    *os << "# " << opt.name << " — ISCAS-class synthetic benchmark\n"
        << "# generated by scal_genbench --name " << opt.name
        << " --inputs " << ni << " --outputs " << opt.outputs
        << " --dffs " << nd << " --gates " << opt.gates << " --seed "
        << opt.seed << "\n";
    for (int i = 0; i < ni; ++i)
        *os << "INPUT(" << name[static_cast<std::size_t>(i)] << ")\n";
    for (int s : unused)
        *os << "OUTPUT(" << name[static_cast<std::size_t>(s)] << ")\n";
    for (int d = 0; d < nd; ++d)
        *os << name[static_cast<std::size_t>(ni + d)] << " = DFF("
            << name[static_cast<std::size_t>(
                   dffD[static_cast<std::size_t>(d)])]
            << ")\n";
    for (std::size_t g = 0; g < gates.size(); ++g) {
        *os << name[static_cast<std::size_t>(ni + nd) + g] << " = "
            << gates[g].fn << "(";
        for (std::size_t j = 0; j < gates[g].fanin.size(); ++j)
            *os << (j ? ", " : "")
                << name[static_cast<std::size_t>(gates[g].fanin[j])];
        *os << ")\n";
    }
    return 0;
}
