#include "netlist/io.hh"

#include <functional>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

namespace scal::netlist
{

namespace
{

const std::map<std::string, GateKind> &
kindByName()
{
    static const std::map<std::string, GateKind> table = {
        {"buf", GateKind::Buf},   {"not", GateKind::Not},
        {"and", GateKind::And},   {"or", GateKind::Or},
        {"nand", GateKind::Nand}, {"nor", GateKind::Nor},
        {"xor", GateKind::Xor},   {"xnor", GateKind::Xnor},
        {"maj", GateKind::Maj},   {"min", GateKind::Min},
    };
    return table;
}

const std::string &
lowerKindName(GateKind kind)
{
    for (const auto &[name, k] : kindByName())
        if (k == kind)
            return name;
    throw std::logic_error("unnamed gate kind");
}

[[noreturn]] void
fail(int line, const std::string &msg)
{
    throw std::runtime_error("netlist line " + std::to_string(line) +
                             ": " + msg);
}

} // namespace

Netlist
readNetlist(std::istream &in)
{
    Netlist net;
    std::map<std::string, GateId> byName;
    struct PendingDff
    {
        GateId ff;
        std::string d;
        int line;
    };
    std::vector<PendingDff> pending;

    auto lookup = [&](const std::string &name, int line) {
        const auto it = byName.find(name);
        if (it == byName.end())
            fail(line, "unknown signal " + name);
        return it->second;
    };
    auto define = [&](const std::string &name, GateId id, int line) {
        if (byName.count(name))
            fail(line, "duplicate signal " + name);
        byName[name] = id;
    };

    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        if (auto pos = raw.find('#'); pos != std::string::npos)
            raw.erase(pos);
        std::istringstream ls(raw);
        std::string word;
        if (!(ls >> word))
            continue;

        if (word == "input") {
            std::string name;
            if (!(ls >> name))
                fail(line_no, "input needs a name");
            define(name, net.addInput(name), line_no);
        } else if (word == "const") {
            std::string name, value;
            if (!(ls >> name >> value) || (value != "0" && value != "1"))
                fail(line_no, "const needs a name and 0/1");
            define(name, net.addConst(value == "1"), line_no);
        } else if (word == "gate") {
            std::string name, kind_name;
            if (!(ls >> name >> kind_name))
                fail(line_no, "gate needs a name and kind");
            const auto it = kindByName().find(kind_name);
            if (it == kindByName().end())
                fail(line_no, "unknown gate kind " + kind_name);
            std::vector<GateId> fanin;
            std::string operand;
            while (ls >> operand)
                fanin.push_back(lookup(operand, line_no));
            if (fanin.empty())
                fail(line_no, "gate needs fanin");
            define(name, net.addGate(it->second, std::move(fanin), name),
                   line_no);
        } else if (word == "dff") {
            std::string name, d;
            if (!(ls >> name >> d))
                fail(line_no, "dff needs a name and data input");
            LatchMode mode = LatchMode::EveryPeriod;
            bool init = false;
            std::string opt;
            while (ls >> opt) {
                if (opt == "everyperiod")
                    mode = LatchMode::EveryPeriod;
                else if (opt == "phirise")
                    mode = LatchMode::PhiRise;
                else if (opt == "phifall")
                    mode = LatchMode::PhiFall;
                else if (opt == "init0")
                    init = false;
                else if (opt == "init1")
                    init = true;
                else
                    fail(line_no, "unknown dff option " + opt);
            }
            // Forward references allowed: wire after parsing. A
            // deferred Dff keeps the gate count honest — the old
            // Const0 placeholder survived the wiring and made every
            // serialize-then-parse round trip grow a dangling const
            // (and a fault site) per flip-flop.
            const GateId ff = net.addDeferredDff(name, mode, init);
            define(name, ff, line_no);
            pending.push_back({ff, d, line_no});
        } else if (word == "output") {
            std::string port, name;
            if (!(ls >> port >> name))
                fail(line_no, "output needs a port and a signal");
            net.addOutput(lookup(name, line_no), port);
        } else {
            fail(line_no, "unknown declaration " + word);
        }
    }

    for (const PendingDff &p : pending)
        net.replaceFanin(p.ff, 0, lookup(p.d, p.line));
    net.validate();
    return net;
}

Netlist
readNetlistFromString(const std::string &text)
{
    std::istringstream in(text);
    return readNetlist(in);
}

std::string
writeNetlistToString(const Netlist &net)
{
    // Two-pass naming: user names are assigned first so a generated
    // n<id> can never steal an identifier the user declared later in
    // gate order, and the suffix loop guarantees uniqueness even when
    // the user's own names look like n<id> or n<id>_<k>.
    std::vector<std::string> names(net.numGates());
    std::unordered_set<std::string> used;
    used.reserve(static_cast<std::size_t>(net.numGates()));
    auto unique = [&](const std::string &base) {
        std::string name = base;
        for (int k = 2; used.count(name); ++k)
            name = base + "_" + std::to_string(k);
        used.insert(name);
        return name;
    };
    for (GateId g = 0; g < net.numGates(); ++g)
        if (!net.gate(g).name.empty())
            names[g] = unique(net.gate(g).name);
    for (GateId g = 0; g < net.numGates(); ++g)
        if (net.gate(g).name.empty())
            names[g] = unique(std::string("n").append(std::to_string(g)));

    std::string out;
    const auto put = [&out](std::initializer_list<std::string_view> parts) {
        for (const std::string_view p : parts)
            out += p;
    };

    // Inputs first, in port order (their indices are the simulator
    // input order and must survive the round trip).
    for (GateId g : net.inputs())
        put({"input ", names[g], "\n"});

    for (GateId g : net.flipFlops()) {
        const Gate &gate = net.gate(g);
        put({"dff ", names[g], " ", names[gate.fanin[0]]});
        switch (gate.latch) {
          case LatchMode::EveryPeriod:
            break;
          case LatchMode::PhiRise:
            out += " phirise";
            break;
          case LatchMode::PhiFall:
            out += " phifall";
            break;
        }
        if (gate.init)
            out += " init1";
        out += '\n';
    }

    // Canonical emission order: Kahn's algorithm taking the smallest
    // ready id first. On a netlist whose ids are already topological
    // — in particular one freshly parsed from this format — this is
    // the identity permutation, which makes serialize-then-parse a
    // byte-level fixed point instead of reshuffling gate lines on
    // every round trip.
    std::vector<int> pending(static_cast<std::size_t>(net.numGates()),
                             0);
    std::priority_queue<GateId, std::vector<GateId>,
                        std::greater<GateId>>
        ready;
    for (GateId g = 0; g < net.numGates(); ++g) {
        if (net.gate(g).kind != GateKind::Dff)
            pending[static_cast<std::size_t>(g)] =
                static_cast<int>(net.gate(g).fanin.size());
        if (pending[static_cast<std::size_t>(g)] == 0)
            ready.push(g);
    }
    std::vector<GateId> order;
    order.reserve(static_cast<std::size_t>(net.numGates()));
    while (!ready.empty()) {
        const GateId g = ready.top();
        ready.pop();
        order.push_back(g);
        for (auto [c, pin] : net.consumers(g)) {
            if (net.gate(c).kind == GateKind::Dff)
                continue;
            if (--pending[static_cast<std::size_t>(c)] == 0)
                ready.push(c);
        }
    }

    for (GateId g : order) {
        const Gate &gate = net.gate(g);
        switch (gate.kind) {
          case GateKind::Input:
            break; // already emitted in port order
          case GateKind::Const0:
            put({"const ", names[g], " 0\n"});
            break;
          case GateKind::Const1:
            put({"const ", names[g], " 1\n"});
            break;
          case GateKind::Dff:
            break; // emitted after combinational gates
          default:
            put({"gate ", names[g], " ", lowerKindName(gate.kind)});
            for (GateId f : gate.fanin)
                put({" ", names[f]});
            out += '\n';
            break;
        }
    }
    for (int j = 0; j < net.numOutputs(); ++j)
        put({"output ", net.outputName(j), " ", names[net.outputs()[j]],
             "\n"});
    return out;
}

void
writeNetlist(std::ostream &os, const Netlist &net)
{
    os << writeNetlistToString(net);
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
contentHash(const Netlist &net)
{
    return fnv1a64(writeNetlistToString(net));
}

} // namespace scal::netlist
