#include "ingest/verilog_parser.hh"

#include <algorithm>
#include <cctype>
#include <istream>
#include <map>
#include <sstream>
#include <vector>

#include "ingest/netbuild.hh"
#include "util/number.hh"

namespace scal::ingest
{

using namespace netlist;

namespace
{

struct Token
{
    enum Kind
    {
        Ident,  ///< identifier or keyword (escaped ones lose the '\')
        Number, ///< bare integer or sized constant ("4'b0101")
        Punct,  ///< one of ( ) [ ] , ; : . =
        End,
    } kind = End;
    std::string text;
    int line = 0;
};

/** Whole-input tokenizer with // and block-comment stripping. */
class Lexer
{
  public:
    explicit Lexer(const std::string &text) { lex(text); }

    const Token &peek(std::size_t ahead = 0) const
    {
        const std::size_t i = pos_ + ahead;
        return i < toks_.size() ? toks_[i] : end_;
    }

    Token next()
    {
        const Token t = peek();
        if (pos_ < toks_.size())
            ++pos_;
        return t;
    }

  private:
    void
    lex(const std::string &s)
    {
        int line = 1;
        std::size_t i = 0;
        const std::size_t n = s.size();
        auto isIdent = [](char c, bool first) {
            return std::isalpha(static_cast<unsigned char>(c)) ||
                   c == '_' || c == '$' ||
                   (!first && std::isdigit(static_cast<unsigned char>(c)));
        };
        while (i < n) {
            const char c = s[i];
            if (c == '\n') {
                ++line;
                ++i;
                continue;
            }
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
                continue;
            }
            if (c == '/' && i + 1 < n && s[i + 1] == '/') {
                while (i < n && s[i] != '\n')
                    ++i;
                continue;
            }
            if (c == '/' && i + 1 < n && s[i + 1] == '*') {
                const int open = line;
                i += 2;
                while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
                    if (s[i] == '\n')
                        ++line;
                    ++i;
                }
                if (i + 1 >= n)
                    throw ParseError(open, "unterminated block comment");
                i += 2;
                continue;
            }
            if (c == '\\') {
                // Escaped identifier: everything to the next
                // whitespace, backslash dropped, name kept verbatim.
                std::size_t j = i + 1;
                while (j < n &&
                       !std::isspace(static_cast<unsigned char>(s[j])))
                    ++j;
                if (j == i + 1)
                    throw ParseError(line, "empty escaped identifier");
                toks_.push_back(
                    {Token::Ident, s.substr(i + 1, j - i - 1), line});
                i = j;
                continue;
            }
            if (isIdent(c, true)) {
                std::size_t j = i;
                while (j < n && isIdent(s[j], false))
                    ++j;
                toks_.push_back({Token::Ident, s.substr(i, j - i), line});
                i = j;
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c))) {
                // Bare integer, optionally continuing as a sized
                // constant: <width>'<base><digits>.
                std::size_t j = i;
                while (j < n && (std::isdigit(
                                     static_cast<unsigned char>(s[j])) ||
                                 s[j] == '_'))
                    ++j;
                if (j < n && s[j] == '\'') {
                    ++j;
                    if (j < n)
                        ++j; // base letter, validated by parseConst
                    while (j < n &&
                           (std::isalnum(
                                static_cast<unsigned char>(s[j])) ||
                            s[j] == '_'))
                        ++j;
                }
                toks_.push_back({Token::Number, s.substr(i, j - i), line});
                i = j;
                continue;
            }
            if (std::string("()[]:;,.=").find(c) != std::string::npos) {
                toks_.push_back({Token::Punct, std::string(1, c), line});
                ++i;
                continue;
            }
            throw ParseError(line, std::string("unexpected character '") +
                                       c + "'");
        }
        end_.line = line;
    }

    std::vector<Token> toks_;
    Token end_;
    std::size_t pos_ = 0;
};

/** A decimal token (underscores allowed) as an int; a ParseError on
 *  @p line when it does not fit. */
int
checkedInt(const std::string &text, int line)
{
    std::string digits;
    for (const char c : text)
        if (c != '_')
            digits += c;
    int v = 0;
    const std::errc ec = util::parseNumber(digits, &v);
    if (ec == std::errc::result_out_of_range)
        throw ParseError(line, "number '" + text + "' is out of range");
    if (ec != std::errc())
        throw ParseError(line, "bad number '" + text + "'");
    return v;
}

/** A sized constant's bits, LSB first. */
std::vector<bool>
parseConst(const Token &t)
{
    const std::size_t tick = t.text.find('\'');
    if (tick == std::string::npos)
        throw ParseError(t.line, "constant '" + t.text +
                                     "' needs a size and base "
                                     "(e.g. 1'b0, 4'hA)");
    const int width = checkedInt(t.text.substr(0, tick), t.line);
    if (width <= 0 || width > 64)
        throw ParseError(t.line, "unsupported constant width in '" +
                                     t.text + "'");
    if (tick + 1 >= t.text.size())
        throw ParseError(t.line, "truncated constant '" + t.text + "'");
    const char base = static_cast<char>(std::tolower(
        static_cast<unsigned char>(t.text[tick + 1])));
    int radix = 0;
    if (base == 'b')
        radix = 2;
    else if (base == 'o')
        radix = 8;
    else if (base == 'd')
        radix = 10;
    else if (base == 'h')
        radix = 16;
    else
        throw ParseError(t.line, std::string("unknown constant base '") +
                                     base + "' in '" + t.text + "'");
    std::uint64_t value = 0;
    bool any = false;
    for (std::size_t i = tick + 2; i < t.text.size(); ++i) {
        const char c = static_cast<char>(std::tolower(
            static_cast<unsigned char>(t.text[i])));
        if (c == '_')
            continue;
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = 10 + (c - 'a');
        else
            throw ParseError(t.line, std::string("unsupported digit '") +
                                         c + "' in constant '" + t.text +
                                         "' (x/z bits not supported)");
        if (digit >= radix)
            throw ParseError(t.line, std::string("digit '") + c +
                                         "' out of range for base in '" +
                                         t.text + "'");
        value = value * static_cast<std::uint64_t>(radix) +
                static_cast<std::uint64_t>(digit);
        any = true;
    }
    if (!any)
        throw ParseError(t.line, "constant '" + t.text + "' has no digits");
    std::vector<bool> bits;
    bits.reserve(static_cast<std::size_t>(width));
    for (int k = 0; k < width; ++k)
        bits.push_back((value >> k) & 1);
    return bits;
}

/** One scalar operand of a gate/assign: a net name or a constant. */
struct Ref
{
    std::string net;      ///< scalar net name, empty for constants
    bool constValue = false;
    bool isConst = false;
    int line = 0;
};

class VerilogParser
{
  public:
    explicit VerilogParser(const std::string &text) : lex_(text) {}

    Netlist
    parse()
    {
        expectIdent("module");
        moduleName_ = expectAnyIdent("module name").text;
        parseHeader();
        expectPunct(";");
        for (;;) {
            const Token t = lex_.peek();
            if (t.kind == Token::End)
                throw ParseError(t.line, "missing endmodule");
            if (t.kind == Token::Ident && t.text == "endmodule") {
                lex_.next();
                break;
            }
            parseItem();
        }
        const Token after = lex_.peek();
        if (after.kind != Token::End)
            throw ParseError(after.line,
                             "only one module per file is supported");
        return lower();
    }

  private:
    struct VNet
    {
        enum Dir
        {
            None,
            In,
            Out,
        } dir = None;
        bool isVec = false;
        int msb = 0, lsb = 0;
        int line = 0;     ///< declaration line
        bool isPort = false;
    };

    /** A deferred construction step, replayed in file order after the
     *  whole module is parsed (so port order fixes the input order). */
    struct Op
    {
        enum Kind
        {
            Gate,
            Dff,
            Assign,
        } kind = Gate;
        GateKind gateKind = GateKind::Buf;
        std::string out;       ///< driven scalar net
        std::vector<Ref> in;   ///< gate fanin / assign rhs (one Ref)
        int line = 0;
    };

    // ---- token helpers -------------------------------------------

    void
    expectIdent(const std::string &kw)
    {
        const Token t = lex_.next();
        if (t.kind != Token::Ident || t.text != kw)
            throw ParseError(t.line, "expected '" + kw + "', got '" +
                                         t.text + "'");
    }

    Token
    expectAnyIdent(const char *what)
    {
        const Token t = lex_.next();
        if (t.kind != Token::Ident)
            throw ParseError(t.line, std::string("expected ") + what +
                                         ", got '" + t.text + "'");
        return t;
    }

    void
    expectPunct(const std::string &p)
    {
        const Token t = lex_.next();
        if (t.kind != Token::Punct || t.text != p)
            throw ParseError(t.line, "expected '" + p + "', got '" +
                                         (t.kind == Token::End
                                              ? std::string("end of file")
                                              : t.text) +
                                         "'");
    }

    bool
    tryPunct(const std::string &p)
    {
        const Token &t = lex_.peek();
        if (t.kind == Token::Punct && t.text == p) {
            lex_.next();
            return true;
        }
        return false;
    }

    int
    expectInt()
    {
        const Token t = lex_.next();
        if (t.kind != Token::Number ||
            t.text.find('\'') != std::string::npos)
            throw ParseError(t.line, "expected an index, got '" + t.text +
                                         "'");
        return checkedInt(t.text, t.line);
    }

    // ---- declarations --------------------------------------------

    /** Parse an optional "[msb:lsb]" range. Returns false if absent. */
    bool
    tryRange(int *msb, int *lsb)
    {
        if (!tryPunct("["))
            return false;
        *msb = expectInt();
        expectPunct(":");
        *lsb = expectInt();
        expectPunct("]");
        return true;
    }

    void
    declare(const std::string &name, VNet::Dir dir, bool isVec, int msb,
            int lsb, int line, bool fromPortList)
    {
        auto it = nets_.find(name);
        if (it == nets_.end()) {
            declaredBits_ += isVec ? std::abs(static_cast<long>(msb) - lsb) + 1
                                   : 1;
            if (declaredBits_ > kMaxModuleBits)
                throw ParseError(line, "module declares more than " +
                                           std::to_string(kMaxModuleBits) +
                                           " scalar bits");
            VNet v;
            v.dir = dir;
            v.isVec = isVec;
            v.msb = msb;
            v.lsb = lsb;
            v.line = line;
            v.isPort = fromPortList;
            nets_.emplace(name, v);
            if (fromPortList)
                portOrder_.push_back(name);
            return;
        }
        VNet &v = it->second;
        // Verilog allows re-declaring a port's net ("input a; wire a;")
        // as long as directions do not conflict and widths agree.
        if (dir != VNet::None) {
            if (v.dir != VNet::None && v.dir != dir)
                throw ParseError(line, "net '" + name +
                                           "' declared both input and "
                                           "output");
            v.dir = dir;
        } else if (v.dir == VNet::None && !v.isPort) {
            throw ParseError(line, "duplicate declaration of net '" +
                                       name + "'");
        }
        if (isVec != v.isVec ||
            (isVec && (msb != v.msb || lsb != v.lsb))) {
            if (v.isVec || isVec)
                throw ParseError(line, "conflicting widths for net '" +
                                           name + "'");
        }
    }

    /** Module header: "(a, b, f)" or ANSI "(input [3:0] a, ...)". */
    void
    parseHeader()
    {
        if (!tryPunct("("))
            return; // old-style header without a port list
        if (tryPunct(")"))
            return;
        VNet::Dir dir = VNet::None;
        bool isVec = false;
        int msb = 0, lsb = 0;
        for (;;) {
            Token t = lex_.peek();
            if (t.kind == Token::Ident &&
                (t.text == "input" || t.text == "output")) {
                lex_.next();
                dir = t.text == "input" ? VNet::In : VNet::Out;
                isVec = tryRange(&msb, &lsb);
            } else if (t.kind == Token::Ident && t.text == "wire") {
                // "output wire [3:0] f" — direction already seen.
                lex_.next();
                continue;
            }
            const Token name = expectAnyIdent("port name");
            declare(name.text, dir, dir != VNet::None && isVec, msb, lsb,
                    name.line, /*fromPortList=*/true);
            if (tryPunct(")"))
                return;
            expectPunct(",");
        }
    }

    // ---- references ----------------------------------------------

    const VNet &
    lookup(const std::string &name, int line) const
    {
        const auto it = nets_.find(name);
        if (it == nets_.end())
            throw ParseError(line, "undeclared net '" + name + "'");
        return it->second;
    }

    static std::string
    bitName(const std::string &name, int bit)
    {
        return name + "[" + std::to_string(bit) + "]";
    }

    /** Scalar name of a declared net's bit @p bit (-1 = whole net,
     *  which must then be scalar). */
    std::string
    scalarName(const std::string &name, int bit, int line) const
    {
        const VNet &v = lookup(name, line);
        if (bit < 0) {
            if (v.isVec)
                throw ParseError(
                    line, "width mismatch: net '" + name + "' is " +
                              std::to_string(widthOf(v)) +
                              " bits wide, expected a scalar");
            return name;
        }
        if (!v.isVec)
            throw ParseError(line, "cannot bit-select scalar net '" +
                                       name + "'");
        const int hi = std::max(v.msb, v.lsb);
        const int lo = std::min(v.msb, v.lsb);
        if (bit < lo || bit > hi)
            throw ParseError(line, "bit-select " + bitName(name, bit) +
                                       " out of range [" +
                                       std::to_string(v.msb) + ":" +
                                       std::to_string(v.lsb) + "]");
        return bitName(name, bit);
    }

    static int
    widthOf(const VNet &v)
    {
        return v.isVec ? std::abs(v.msb - v.lsb) + 1 : 1;
    }

    /** All scalar bit names of a net reference, MSB first. */
    std::vector<std::string>
    expandRef(const std::string &name, int bit, int line) const
    {
        const VNet &v = lookup(name, line);
        if (bit >= 0 || !v.isVec)
            return {scalarName(name, bit, line)};
        std::vector<std::string> bits;
        const int step = v.msb >= v.lsb ? -1 : 1;
        for (int k = v.msb;; k += step) {
            bits.push_back(bitName(name, k));
            if (k == v.lsb)
                break;
        }
        return bits;
    }

    /** One scalar operand: name, name[i] or a 1-bit sized constant. */
    Ref
    parseScalarRef()
    {
        const Token t = lex_.next();
        Ref r;
        r.line = t.line;
        if (t.kind == Token::Number) {
            const std::vector<bool> bits = parseConst(t);
            if (bits.size() != 1)
                throw ParseError(t.line,
                                 "width mismatch: constant '" + t.text +
                                     "' is " +
                                     std::to_string(bits.size()) +
                                     " bits wide, expected a scalar");
            r.isConst = true;
            r.constValue = bits[0];
            return r;
        }
        if (t.kind != Token::Ident)
            throw ParseError(t.line, "expected a net reference, got '" +
                                         t.text + "'");
        int bit = -1;
        if (tryPunct("[")) {
            bit = expectInt();
            expectPunct("]");
        }
        r.net = scalarName(t.text, bit, t.line);
        return r;
    }

    // ---- items ---------------------------------------------------

    void
    parseItem()
    {
        const Token t = lex_.peek();
        if (t.kind != Token::Ident)
            throw ParseError(t.line, "expected a declaration or "
                                     "instantiation, got '" +
                                         t.text + "'");
        if (t.text == "input" || t.text == "output" || t.text == "wire") {
            parseDecl();
            return;
        }
        if (t.text == "assign") {
            parseAssign();
            return;
        }
        if (t.text == "parameter" || t.text == "always" ||
            t.text == "initial" || t.text == "reg")
            throw ParseError(t.line,
                             "unsupported construct '" + t.text +
                                 "' (structural netlists only)");
        parseInstantiation();
    }

    void
    parseDecl()
    {
        const Token kw = lex_.next();
        const VNet::Dir dir = kw.text == "input"
                                  ? VNet::In
                                  : kw.text == "output" ? VNet::Out
                                                        : VNet::None;
        int msb = 0, lsb = 0;
        const bool isVec = tryRange(&msb, &lsb);
        for (;;) {
            const Token name = expectAnyIdent("net name");
            if (dir != VNet::None) {
                // Direction declarations attach to header ports.
                const auto it = nets_.find(name.text);
                if (it == nets_.end() || !it->second.isPort)
                    throw ParseError(name.line,
                                     "'" + name.text +
                                         "' is not a port of module " +
                                         moduleName_);
            }
            declare(name.text, dir, isVec, msb, lsb, name.line,
                    /*fromPortList=*/false);
            if (tryPunct(";"))
                return;
            expectPunct(",");
        }
    }

    void
    markDriven(const std::string &scalar, int line)
    {
        const auto it = drivenAt_.find(scalar);
        if (it != drivenAt_.end())
            throw ParseError(line, "net '" + scalar +
                                       "' driven twice (first driver "
                                       "at line " +
                                       std::to_string(it->second) + ")");
        // Which net does this scalar belong to? Strip any "[i]".
        std::string base = scalar;
        const std::size_t br = base.rfind('[');
        if (br != std::string::npos && nets_.count(base) == 0)
            base = base.substr(0, br);
        const auto net = nets_.find(base);
        if (net != nets_.end() && net->second.dir == VNet::In)
            throw ParseError(line, "input '" + base +
                                       "' cannot be driven inside the "
                                       "module");
        drivenAt_[scalar] = line;
    }

    void
    parseAssign()
    {
        lex_.next(); // 'assign'
        const Token lhs = expectAnyIdent("assign target");
        int lhsBit = -1;
        if (tryPunct("[")) {
            lhsBit = expectInt();
            expectPunct("]");
        }
        expectPunct("=");
        const std::vector<std::string> lhsBits =
            expandRef(lhs.text, lhsBit, lhs.line);

        const Token rhs = lex_.next();
        std::vector<Ref> rhsRefs;
        if (rhs.kind == Token::Number) {
            const std::vector<bool> bits = parseConst(rhs);
            for (auto it = bits.rbegin(); it != bits.rend(); ++it) {
                Ref r;
                r.isConst = true;
                r.constValue = *it;
                r.line = rhs.line;
                rhsRefs.push_back(r); // MSB first, matching expandRef
            }
        } else if (rhs.kind == Token::Ident) {
            int rhsBit = -1;
            if (tryPunct("[")) {
                rhsBit = expectInt();
                expectPunct("]");
            }
            for (const std::string &b :
                 expandRef(rhs.text, rhsBit, rhs.line)) {
                Ref r;
                r.net = b;
                r.line = rhs.line;
                rhsRefs.push_back(r);
            }
        } else {
            throw ParseError(rhs.line,
                             "assign needs a net or sized constant, "
                             "got '" +
                                 rhs.text + "'");
        }
        expectPunct(";");

        if (lhsBits.size() != rhsRefs.size())
            throw ParseError(
                lhs.line, "width mismatch in assign: lhs '" + lhs.text +
                              "' is " + std::to_string(lhsBits.size()) +
                              " bit(s), rhs is " +
                              std::to_string(rhsRefs.size()));
        for (std::size_t k = 0; k < lhsBits.size(); ++k) {
            markDriven(lhsBits[k], lhs.line);
            Op op;
            op.kind = Op::Assign;
            op.out = lhsBits[k];
            op.in = {rhsRefs[k]};
            op.line = lhs.line;
            ops_.push_back(std::move(op));
        }
    }

    static bool
    primitiveKind(const std::string &name, GateKind *kind)
    {
        if (name == "and")
            *kind = GateKind::And;
        else if (name == "or")
            *kind = GateKind::Or;
        else if (name == "nand")
            *kind = GateKind::Nand;
        else if (name == "nor")
            *kind = GateKind::Nor;
        else if (name == "xor")
            *kind = GateKind::Xor;
        else if (name == "xnor")
            *kind = GateKind::Xnor;
        else if (name == "not")
            *kind = GateKind::Not;
        else if (name == "buf")
            *kind = GateKind::Buf;
        else
            return false;
        return true;
    }

    void
    parseInstantiation()
    {
        const Token prim = lex_.next();
        GateKind kind = GateKind::Buf;
        std::string lower = prim.text;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(std::tolower(c));
                       });
        const bool isDff = lower == "dff";
        if (!isDff && !primitiveKind(prim.text, &kind))
            throw ParseError(prim.line,
                             "unknown primitive '" + prim.text + "'");
        // One or more instances: "and a1 (...), a2 (...);" — the
        // instance names are optional and ignored.
        for (;;) {
            if (lex_.peek().kind == Token::Ident)
                lex_.next(); // instance name
            expectPunct("(");
            if (isDff)
                parseDffPorts(prim.line);
            else
                parseGatePorts(prim, kind);
            if (tryPunct(";"))
                return;
            expectPunct(",");
        }
    }

    void
    parseGatePorts(const Token &prim, GateKind kind)
    {
        std::vector<Ref> args;
        for (;;) {
            args.push_back(parseScalarRef());
            if (tryPunct(")"))
                break;
            expectPunct(",");
        }
        const bool unary = kind == GateKind::Not || kind == GateKind::Buf;
        if (args.size() < 2)
            throw ParseError(prim.line,
                             "'" + prim.text +
                                 "' needs an output and at least one "
                                 "input");
        // not/buf: the LAST terminal is the input, all others are
        // outputs; other primitives: the FIRST terminal is the output.
        const std::size_t numOuts = unary ? args.size() - 1 : 1;
        if (!unary && args.size() < 3)
            throw ParseError(prim.line, "'" + prim.text +
                                            "' needs at least two "
                                            "inputs");
        for (std::size_t o = 0; o < numOuts; ++o) {
            const Ref &out = args[o];
            if (out.isConst)
                throw ParseError(out.line, "'" + prim.text +
                                               "' output terminal "
                                               "cannot be a constant");
            markDriven(out.net, out.line);
            Op op;
            op.kind = Op::Gate;
            op.gateKind = kind;
            op.out = out.net;
            op.line = prim.line;
            if (unary) {
                op.in = {args.back()};
            } else {
                op.in.assign(args.begin() + 1, args.end());
            }
            ops_.push_back(std::move(op));
        }
    }

    void
    parseDffPorts(int instLine)
    {
        Ref q, d;
        bool haveQ = false, haveD = false;
        if (lex_.peek().kind == Token::Punct &&
            lex_.peek().text == ".") {
            // Named connections: .q(x), .d(y), .clk(z) in any order.
            for (;;) {
                expectPunct(".");
                const Token port = expectAnyIdent("dff port name");
                expectPunct("(");
                const Ref r = parseScalarRef();
                expectPunct(")");
                if (port.text == "q" || port.text == "Q") {
                    q = r;
                    haveQ = true;
                } else if (port.text == "d" || port.text == "D") {
                    d = r;
                    haveD = true;
                } else if (port.text == "clk" || port.text == "ck" ||
                           port.text == "clock" || port.text == "CK" ||
                           port.text == "CLK") {
                    // Accepted and ignored: the netlist Dff follows
                    // the every-period latch discipline.
                } else {
                    throw ParseError(port.line, "unknown dff port '." +
                                                    port.text + "'");
                }
                if (tryPunct(")"))
                    break;
                expectPunct(",");
            }
        } else {
            // Positional: (q, d[, clk]).
            std::vector<Ref> args;
            for (;;) {
                args.push_back(parseScalarRef());
                if (tryPunct(")"))
                    break;
                expectPunct(",");
            }
            if (args.size() < 2 || args.size() > 3)
                throw ParseError(instLine,
                                 "dff takes (q, d) or (q, d, clk), got " +
                                     std::to_string(args.size()) +
                                     " terminals");
            q = args[0];
            d = args[1];
            haveQ = haveD = true;
        }
        if (!haveQ || !haveD)
            throw ParseError(instLine, "dff needs both .q and .d");
        if (q.isConst)
            throw ParseError(q.line, "dff output cannot be a constant");
        markDriven(q.net, q.line);
        Op op;
        op.kind = Op::Dff;
        op.out = q.net;
        op.in = {d};
        op.line = instLine;
        ops_.push_back(std::move(op));
    }

    // ---- lowering ------------------------------------------------

    std::string
    constNet(NetBuilder &b, bool value)
    {
        std::string &cached = constOf_[value];
        if (cached.empty()) {
            cached = b.freshName(value ? "const1" : "const0");
            b.addConst(cached, value, 0);
        }
        return cached;
    }

    std::string
    refName(NetBuilder &b, const Ref &r)
    {
        return r.isConst ? constNet(b, r.constValue) : r.net;
    }

    Netlist
    lower()
    {
        NetBuilder b;
        // Inputs in port order (vectors MSB first): this is the
        // simulator's input order, which campaigns rely on.
        for (const std::string &port : portOrder_) {
            const VNet &v = nets_.at(port);
            if (v.dir == VNet::None)
                throw ParseError(v.line, "port '" + port +
                                             "' has no direction "
                                             "declaration");
            if (v.dir != VNet::In)
                continue;
            for (const std::string &bit :
                 expandRef(port, -1, v.line))
                b.addInput(bit, v.line);
        }
        // Every output bit must have a structural driver.
        for (const std::string &port : portOrder_) {
            const VNet &v = nets_.at(port);
            if (v.dir != VNet::Out)
                continue;
            for (const std::string &bit : expandRef(port, -1, v.line))
                if (!drivenAt_.count(bit))
                    throw ParseError(v.line, "output '" + bit +
                                                 "' is never driven");
        }

        for (const Op &op : ops_) {
            switch (op.kind) {
              case Op::Gate: {
                  std::vector<std::string> fanin;
                  fanin.reserve(op.in.size());
                  for (const Ref &r : op.in)
                      fanin.push_back(refName(b, r));
                  b.addGate(op.out, op.gateKind, std::move(fanin),
                            op.line);
                  break;
              }
              case Op::Dff:
                  b.addDff(op.out, refName(b, op.in[0]), /*init=*/false,
                           op.line);
                  break;
              case Op::Assign:
                  if (op.in[0].isConst)
                      b.addConst(op.out, op.in[0].constValue, op.line);
                  else
                      b.addGate(op.out, GateKind::Buf, {op.in[0].net},
                                op.line);
                  break;
            }
        }

        for (const std::string &port : portOrder_) {
            const VNet &v = nets_.at(port);
            if (v.dir != VNet::Out)
                continue;
            for (const std::string &bit : expandRef(port, -1, v.line))
                b.addOutput(bit, bit, v.line);
        }
        return b.build();
    }

    Lexer lex_;
    std::string moduleName_;
    std::map<std::string, VNet> nets_;
    long declaredBits_ = 0; ///< scalar bits of nets_, for kMaxModuleBits
    std::vector<std::string> portOrder_;
    std::map<std::string, int> drivenAt_;
    std::vector<Op> ops_;
    std::map<bool, std::string> constOf_;
};

} // namespace

Netlist
readVerilog(std::istream &in)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    return readVerilogFromString(buf.str());
}

Netlist
readVerilogFromString(const std::string &text)
{
    return VerilogParser(text).parse();
}

} // namespace scal::ingest
