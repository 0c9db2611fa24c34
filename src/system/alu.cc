#include "system/alu.hh"

#include <map>
#include <mutex>
#include <stdexcept>

#include "logic/function_gen.hh"
#include "netlist/circuits.hh"

namespace scal::system
{

using namespace netlist;

const char *
aluOpName(AluOp op)
{
    switch (op) {
      case AluOp::Add:   return "ADD";
      case AluOp::Sub:   return "SUB";
      case AluOp::And:   return "AND";
      case AluOp::Or:    return "OR";
      case AluOp::Xor:   return "XOR";
      case AluOp::Shl:   return "SHL";
      case AluOp::Shr:   return "SHR";
      case AluOp::PassB: return "PASSB";
    }
    return "?";
}

AluOp
parseAluOp(const std::string &name)
{
    std::string known;
    for (int i = 0; i < kNumAluOps; ++i) {
        const auto op = static_cast<AluOp>(i);
        if (name == aluOpName(op))
            return op;
        known += std::string(i ? ", " : "") + aluOpName(op);
    }
    throw std::invalid_argument("unknown ALU op '" + name +
                                "' (known: " + known + ")");
}

namespace
{

struct AdderLines
{
    std::vector<GateId> sum;
    GateId cout = kNoGate;
};

/** Ripple adder from the Figure 2.2 self-dual full adders. */
AdderLines
buildAdder(Netlist &net, const std::vector<GateId> &a,
           const std::vector<GateId> &b, GateId cin)
{
    AdderLines out;
    GateId carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
        GateId na = net.addNot(a[i]);
        GateId nb = net.addNot(b[i]);
        GateId nc = net.addNot(carry);
        GateId m1 = net.addAnd({a[i], nb, nc});
        GateId m2 = net.addAnd({na, b[i], nc});
        GateId m4 = net.addAnd({na, nb, carry});
        GateId m7 = net.addAnd({a[i], b[i], carry});
        out.sum.push_back(
            net.addOr({m1, m2, m4, m7}, "s" + std::to_string(i)));
        GateId c1 = net.addAnd({a[i], b[i]});
        GateId c2 = net.addAnd({b[i], carry});
        GateId c3 = net.addAnd({a[i], carry});
        carry = net.addOr({c1, c2, c3}, "c" + std::to_string(i + 1));
    }
    out.cout = carry;
    return out;
}

/** Conventional ripple adder for the unchecked baseline. */
AdderLines
buildAdderPlain(Netlist &net, const std::vector<GateId> &a,
                const std::vector<GateId> &b, GateId cin)
{
    AdderLines out;
    GateId carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
        GateId axb = net.addXor({a[i], b[i]});
        out.sum.push_back(net.addXor({axb, carry}));
        GateId g1 = net.addAnd({a[i], b[i]});
        GateId g2 = net.addAnd({axb, carry});
        carry = net.addOr({g1, g2});
    }
    out.cout = carry;
    return out;
}

} // namespace

Netlist
aluNetlist(AluOp op, int width)
{
    // Construction involves two-level minimization of the zero-flag
    // cone, so memoize per (op, width); callers get copies.
    static std::mutex cache_mutex;
    static std::map<std::pair<int, int>, Netlist> cache;
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto it = cache.find({static_cast<int>(op), width});
        if (it != cache.end())
            return it->second;
    }

    Netlist net;
    std::vector<GateId> a(width), b(width);
    for (int i = 0; i < width; ++i)
        a[i] = net.addInput("a" + std::to_string(i));
    for (int i = 0; i < width; ++i)
        b[i] = net.addInput("b" + std::to_string(i));
    const GateId phi = net.addInput("phi");

    std::vector<GateId> r(width, kNoGate);
    // Result bits wired to the alternating constant zero (φ); the
    // zero-flag cone skips them, they are zero by construction.
    std::vector<bool> tied_zero(width, false);
    GateId carry = kNoGate;

    switch (op) {
      case AluOp::Add: {
        // Alternating-encoded zero is the pair (0,1): φ itself.
        AdderLines add = buildAdder(net, a, b, phi);
        r = add.sum;
        carry = add.cout;
        break;
      }
      case AluOp::Sub: {
        // a - b = a + b̄ + 1; the alternating constant one is φ̄.
        std::vector<GateId> nb(width);
        for (int i = 0; i < width; ++i)
            nb[i] = net.addNot(b[i]);
        GateId one = net.addNot(phi, "one");
        AdderLines add = buildAdder(net, a, nb, one);
        r = add.sum;
        carry = add.cout;
        break;
      }
      case AluOp::And:
      case AluOp::Or: {
        const logic::TruthTable base = op == AluOp::And
                                           ? logic::andN(2)
                                           : logic::orN(2);
        const logic::TruthTable sd = base.selfDualize();
        for (int i = 0; i < width; ++i) {
            std::vector<GateId> ins{a[i], b[i], phi};
            std::vector<GateId> inverters(3, kNoGate);
            r[i] = circuits::emitSopCone(net, sd, ins, inverters,
                                         "r" + std::to_string(i));
        }
        carry = net.addBuf(phi, "carry0");
        break;
      }
      case AluOp::Xor: {
        // Self-dualized XOR collapses to the 3-input XOR with φ.
        for (int i = 0; i < width; ++i)
            r[i] = net.addXor({a[i], b[i], phi},
                              "r" + std::to_string(i));
        carry = net.addBuf(phi, "carry0");
        break;
      }
      case AluOp::Shl: {
        r[0] = net.addBuf(phi, "r0");
        tied_zero[0] = true;
        for (int i = 1; i < width; ++i)
            r[i] = net.addBuf(a[i - 1], "r" + std::to_string(i));
        carry = net.addBuf(a[width - 1], "carry");
        break;
      }
      case AluOp::Shr: {
        for (int i = 0; i + 1 < width; ++i)
            r[i] = net.addBuf(a[i + 1], "r" + std::to_string(i));
        r[width - 1] = net.addBuf(phi, "r" + std::to_string(width - 1));
        tied_zero[width - 1] = true;
        carry = net.addBuf(a[0], "carry");
        break;
      }
      case AluOp::PassB: {
        for (int i = 0; i < width; ++i)
            r[i] = net.addBuf(b[i], "r" + std::to_string(i));
        carry = net.addBuf(phi, "carry0");
        break;
      }
    }

    // Self-dualized zero flag, two-level: in the first period the
    // result lines carry r and the flag is NOR(lines); in the second
    // they carry r̄ and the flag must be ¬Z = NAND(lines). Realized
    // as a minimized AND-OR cone over (lines, φ) — two-level with an
    // inverter rail, hence self-checking and irredundant.
    std::vector<GateId> z_lines;
    for (int i = 0; i < width; ++i)
        if (!tied_zero[i])
            z_lines.push_back(r[i]);
    const int zw = static_cast<int>(z_lines.size());
    logic::TruthTable zf(zw + 1);
    for (std::uint64_t m = 0; m < zf.numMinterms(); ++m) {
        const bool phi_bit = (m >> zw) & 1;
        const std::uint64_t l = m & ((1u << zw) - 1);
        const bool all_zero = l == 0;
        const bool all_ones = l == (1u << zw) - 1;
        zf.set(m, phi_bit ? !all_ones : all_zero);
    }
    std::vector<GateId> z_ins(z_lines);
    z_ins.push_back(phi);
    std::vector<GateId> z_inverters(z_ins.size(), kNoGate);
    GateId zero = circuits::emitSopCone(net, zf, z_ins, z_inverters,
                                        "zero");

    for (int i = 0; i < width; ++i)
        net.addOutput(r[i], "r" + std::to_string(i));
    net.addOutput(carry, "carry");
    net.addOutput(zero, "zero");
    net.topoOrder(); // warm the caches before sharing copies
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        cache.emplace(std::pair<int, int>{static_cast<int>(op), width},
                      net);
    }
    return net;
}

Netlist
aluNetlistUnchecked(AluOp op, int width)
{
    Netlist net;
    std::vector<GateId> a(width), b(width);
    for (int i = 0; i < width; ++i)
        a[i] = net.addInput("a" + std::to_string(i));
    for (int i = 0; i < width; ++i)
        b[i] = net.addInput("b" + std::to_string(i));

    std::vector<GateId> r(width, kNoGate);
    GateId carry = kNoGate;
    switch (op) {
      case AluOp::Add: {
        AdderLines add = buildAdderPlain(net, a, b, net.addConst(false));
        r = add.sum;
        carry = add.cout;
        break;
      }
      case AluOp::Sub: {
        std::vector<GateId> nb(width);
        for (int i = 0; i < width; ++i)
            nb[i] = net.addNot(b[i]);
        AdderLines add = buildAdderPlain(net, a, nb, net.addConst(true));
        r = add.sum;
        carry = add.cout;
        break;
      }
      case AluOp::And:
        for (int i = 0; i < width; ++i)
            r[i] = net.addAnd({a[i], b[i]});
        carry = net.addConst(false);
        break;
      case AluOp::Or:
        for (int i = 0; i < width; ++i)
            r[i] = net.addOr({a[i], b[i]});
        carry = net.addConst(false);
        break;
      case AluOp::Xor:
        for (int i = 0; i < width; ++i)
            r[i] = net.addXor({a[i], b[i]});
        carry = net.addConst(false);
        break;
      case AluOp::Shl: {
        r[0] = net.addConst(false);
        for (int i = 1; i < width; ++i)
            r[i] = net.addBuf(a[i - 1]);
        carry = net.addBuf(a[width - 1]);
        break;
      }
      case AluOp::Shr: {
        for (int i = 0; i + 1 < width; ++i)
            r[i] = net.addBuf(a[i + 1]);
        r[width - 1] = net.addConst(false);
        carry = net.addBuf(a[0]);
        break;
      }
      case AluOp::PassB:
        for (int i = 0; i < width; ++i)
            r[i] = net.addBuf(b[i]);
        carry = net.addConst(false);
        break;
    }
    GateId zero = net.addNor(r, "zero");
    for (int i = 0; i < width; ++i)
        net.addOutput(r[i], "r" + std::to_string(i));
    net.addOutput(carry, "carry");
    net.addOutput(zero, "zero");
    return net;
}

AluResult
aluReference(AluOp op, std::uint8_t a, std::uint8_t b)
{
    AluResult res;
    switch (op) {
      case AluOp::Add: {
        const unsigned sum = unsigned{a} + b;
        res.value = static_cast<std::uint8_t>(sum);
        res.carry = sum > 0xff;
        break;
      }
      case AluOp::Sub: {
        const unsigned sum = unsigned{a} + (b ^ 0xffu) + 1;
        res.value = static_cast<std::uint8_t>(sum);
        res.carry = sum > 0xff;
        break;
      }
      case AluOp::And:
        res.value = a & b;
        break;
      case AluOp::Or:
        res.value = a | b;
        break;
      case AluOp::Xor:
        res.value = a ^ b;
        break;
      case AluOp::Shl:
        res.value = static_cast<std::uint8_t>(a << 1);
        res.carry = a & 0x80;
        break;
      case AluOp::Shr:
        res.value = a >> 1;
        res.carry = a & 1;
        break;
      case AluOp::PassB:
        res.value = b;
        break;
    }
    res.zero = res.value == 0;
    return res;
}

} // namespace scal::system
