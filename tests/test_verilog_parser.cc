/**
 * @file
 * Structural Verilog parser tests: golden parses (ANSI and non-ANSI
 * port styles, vectors, constants, escaped identifiers, dff
 * instances), malformed-input diagnostics with line numbers, format
 * routing through ingest::importCircuit, and the bundled .v circuits
 * end to end — function checks, serialize/parse fixed point,
 * SCAL-hardening with alternating-operation verification, and
 * campaign verdicts bit-identical across jobs {1,8} × lanes {64,512}.
 */

#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "fault/campaign.hh"
#include "fault/report.hh"
#include "fault/seq_campaign.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "ingest/netbuild.hh"
#include "ingest/verilog_parser.hh"
#include "netlist/io.hh"
#include "sim/evaluator.hh"
#include "sim/sequential.hh"
#include "test_helpers.hh"

namespace scal
{
namespace
{

using namespace netlist;
using testing::bundledCircuitPath;

TEST(VerilogParser, AnsiPortsVectorsAndGates)
{
    const Netlist net = ingest::readVerilogFromString(R"(
// a 2-bit AND stage with an instance list
module m(input [1:0] a, input [1:0] b, output [1:0] y, output z);
  wire t;
  and a0 (y[0], a[0], b[0]), a1 (y[1], a[1], b[1]);
  nor (t, a[0], b[1]);
  buf (z, t);
endmodule
)");
    // Vector ports flatten MSB-first into scalar nets.
    ASSERT_EQ(net.numInputs(), 4);
    EXPECT_EQ(net.gate(net.inputs()[0]).name, "a[1]");
    EXPECT_EQ(net.gate(net.inputs()[1]).name, "a[0]");
    EXPECT_EQ(net.gate(net.inputs()[2]).name, "b[1]");
    ASSERT_EQ(net.numOutputs(), 3);
    EXPECT_EQ(net.outputName(0), "y[1]");
    EXPECT_EQ(net.outputName(1), "y[0]");
    EXPECT_EQ(net.outputName(2), "z");

    sim::Evaluator ev(net);
    for (unsigned m = 0; m < 16; ++m) {
        const bool a1 = m & 1, a0 = m & 2, b1 = m & 4, b0 = m & 8;
        const auto y = ev.evalOutputs({a1, a0, b1, b0});
        EXPECT_EQ(y[0], a1 && b1);
        EXPECT_EQ(y[1], a0 && b0);
        EXPECT_EQ(y[2], !(a0 || b1));
    }
}

TEST(VerilogParser, NonAnsiPortsAndMultiOutputPrimitives)
{
    const Netlist net = ingest::readVerilogFromString(R"(
module m(a, b, f, g, h);
  input a;
  input b;
  output f, g, h;
  wire na, nb;
  /* not may drive several outputs: the last terminal is the input */
  not (na, nb, a);
  xnor (f, na, b);
  buf (g, na);
  buf (h, nb);
endmodule
)");
    EXPECT_EQ(net.numInputs(), 2);
    EXPECT_EQ(net.numOutputs(), 3);
    sim::Evaluator ev(net);
    for (unsigned m = 0; m < 4; ++m) {
        const bool a = m & 1, b = m & 2;
        const auto y = ev.evalOutputs({a, b});
        EXPECT_EQ(y[0], !(!a ^ b));
        EXPECT_EQ(y[1], !a);
        EXPECT_EQ(y[2], !a);
    }
}

TEST(VerilogParser, EscapedIdentifiersKeptVerbatim)
{
    const Netlist net = ingest::readVerilogFromString(
        "module m(input a, output f);\n"
        "  wire \\u1.q ;\n"
        "  not (\\u1.q , a);\n"
        "  buf (f, \\u1.q );\n"
        "endmodule\n");
    bool found = false;
    for (GateId g = 0; g < net.numGates(); ++g)
        found = found || net.gate(g).name == "u1.q";
    EXPECT_TRUE(found);
    sim::Evaluator ev(net);
    EXPECT_TRUE(ev.evalOutputs({false})[0]);
    EXPECT_FALSE(ev.evalOutputs({true})[0]);
}

TEST(VerilogParser, AssignsOfNetsBitSelectsAndConstants)
{
    const Netlist net = ingest::readVerilogFromString(R"(
module m(input [1:0] a, output [1:0] f, output g, output h);
  wire [1:0] k;
  assign k = 2'b10;
  assign f = a;        // vector-to-vector
  assign g = k[1];     // bit-select rhs
  xor (h, a[0], k[0]);
endmodule
)");
    sim::Evaluator ev(net);
    for (unsigned m = 0; m < 4; ++m) {
        const bool a1 = m & 1, a0 = m & 2;
        const auto y = ev.evalOutputs({a1, a0});
        EXPECT_EQ(y[0], a1); // f[1]
        EXPECT_EQ(y[1], a0); // f[0]
        EXPECT_TRUE(y[2]);   // g = k[1] = 1
        EXPECT_EQ(y[3], a0); // h = a[0] ^ 0
    }
}

TEST(VerilogParser, DffPositionalAndNamedForms)
{
    const Netlist net = ingest::readVerilogFromString(R"(
module m(input d, input ck, output q2);
  wire q0, q1;
  dff r0 (q0, d);
  dff r1 (q1, q0, ck);
  dff r2 (.clk(ck), .d(q1), .q(q2));
endmodule
)");
    ASSERT_EQ(net.flipFlops().size(), 3u);
    EXPECT_NO_THROW(net.validate());

    // A 3-stage shift register: the input appears 3 periods later.
    sim::SeqSimulator simulator(net);
    std::vector<bool> fed;
    for (int period = 0; period < 12; ++period) {
        const bool bit = (period * 5 + 1) % 3 == 0;
        const auto y = simulator.stepPeriod({bit, false});
        if (period >= 3) {
            EXPECT_EQ(y[0], fed[static_cast<std::size_t>(period - 3)])
                << "period " << period;
        }
        fed.push_back(bit);
    }
}

TEST(VerilogParser, MalformedDiagnosticsCarryLineNumbers)
{
    const auto lineOf = [](const std::string &text) {
        try {
            ingest::readVerilogFromString(text);
        } catch (const ingest::ParseError &e) {
            return e.line();
        }
        return -1;
    };
    // Unknown primitive.
    EXPECT_EQ(lineOf("module m(input a, output f);\n"
                     "  frob (f, a);\n"
                     "endmodule\n"),
              2);
    // Width mismatch: a vector rhs assigned to a scalar output.
    EXPECT_EQ(lineOf("module m(input [3:0] c, output f);\n"
                     "  assign f = c;\n"
                     "endmodule\n"),
              2);
    // Width mismatch: a vector used as a scalar gate operand.
    EXPECT_EQ(lineOf("module m(input [3:0] c, output f);\n"
                     "  wire x;\n"
                     "  and (f, c, x);\n"
                     "endmodule\n"),
              3);
    // Undeclared net.
    EXPECT_EQ(lineOf("module m(input a, output f);\n"
                     "  and (f, a, ghost);\n"
                     "endmodule\n"),
              2);
    // Duplicate driver.
    EXPECT_EQ(lineOf("module m(input a, input b, output f);\n"
                     "  and (f, a, b);\n"
                     "  or (f, a, b);\n"
                     "endmodule\n"),
              3);
    // An input cannot be driven inside the module.
    EXPECT_EQ(lineOf("module m(input a, output f);\n"
                     "  buf (f, a);\n"
                     "  not (a, f);\n"
                     "endmodule\n"),
              3);
    // Behavioural constructs are rejected, not skipped.
    EXPECT_EQ(lineOf("module m(input a, output f);\n"
                     "  always @(posedge a) f = a;\n"
                     "endmodule\n"),
              2);
    // x/z constant bits are unsupported.
    EXPECT_EQ(lineOf("module m(input a, output f);\n"
                     "  wire k;\n"
                     "  assign k = 1'bx;\n"
                     "  or (f, a, k);\n"
                     "endmodule\n"),
              3);
    // Direction declarations must reference header ports.
    EXPECT_EQ(lineOf("module m(a, f);\n"
                     "  input a;\n"
                     "  output f;\n"
                     "  input notaport;\n"
                     "  buf (f, a);\n"
                     "endmodule\n"),
              4);
    // Undriven outputs and second modules are structural errors too.
    EXPECT_THROW(ingest::readVerilogFromString(
                     "module m(input a, output f);\nendmodule\n"),
                 ingest::ParseError);
    EXPECT_THROW(
        ingest::readVerilogFromString(
            "module m(input a, output f);\n  buf (f, a);\n"
            "endmodule\nmodule n(input a, output f);\nendmodule\n"),
        ingest::ParseError);
    EXPECT_THROW(ingest::readVerilogFromString(
                     "module m(input a, output f); /* oops\n"),
                 ingest::ParseError);
}

TEST(VerilogParser, OversizedIndicesAndWidthsAreRejected)
{
    const auto errorOf = [](const std::string &text) {
        try {
            ingest::readVerilogFromString(text);
        } catch (const ingest::ParseError &e) {
            return std::make_pair(e.line(), std::string(e.what()));
        }
        return std::make_pair(-1, std::string());
    };
    // An index that does not fit an int.
    auto [line, what] = errorOf("module m(input a, output y);\n"
                                "  buf (y, a);\n"
                                "  wire [99999999999:0] w;\n"
                                "endmodule\n");
    EXPECT_EQ(line, 3);
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    std::tie(line, what) = errorOf("module m(input [3:0] a, output y);\n"
                                   "  buf (y, a[4294967296]);\n"
                                   "endmodule\n");
    EXPECT_EQ(line, 2);
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    std::tie(line, what) = errorOf("module m(input a, output y);\n"
                                   "  wire k;\n"
                                   "  assign k = 99999999999'b0;\n"
                                   "  or (y, a, k);\n"
                                   "endmodule\n");
    EXPECT_EQ(line, 3);
    // A 66-byte module declaring 3,000,001 input bits.
    std::tie(line, what) = errorOf(
        "module m(input [3000000:0] a, output y); buf(y, a[0]); endmodule");
    EXPECT_EQ(line, 1);
    EXPECT_NE(what.find("more than " + std::to_string(ingest::kMaxModuleBits) +
                        " scalar bits"),
              std::string::npos)
        << what;
    // The bound counts every declaration of the module: a, y and b
    // reach it exactly, c is one bit over.
    std::tie(line, what) = errorOf("module m(input [524287:0] a, output y);\n"
                                   "  buf (y, a[0]);\n"
                                   "  wire [524286:0] b;\n"
                                   "  wire c;\n"
                                   "endmodule\n");
    EXPECT_EQ(line, 4);
}

TEST(VerilogParser, ImportRoutesBySniffAndExtension)
{
    const std::string text = "module t(input a, output f);\n"
                             "  buf (f, a);\nendmodule\n";
    const auto sniffed = ingest::importCircuitFromString(text);
    EXPECT_EQ(sniffed.format, ingest::Format::Verilog);
    EXPECT_EQ(sniffed.net.numInputs(), 1);

    const auto byPath = ingest::importCircuit(bundledCircuitPath("add4.v"));
    EXPECT_EQ(byPath.format, ingest::Format::Verilog);
    EXPECT_EQ(byPath.name, "add4");

    // Errors carry the file/stream name and the line number.
    try {
        ingest::importCircuitFromString(
            "module m(input a, output f);\n  frob (f, a);\n"
            "endmodule\n",
            ingest::Format::Auto, "bad.v");
        FAIL() << "expected an import error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad.v"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(VerilogParser, BundledAdderComputesSums)
{
    const auto circ = ingest::importCircuit(bundledCircuitPath("add4.v"));
    ASSERT_EQ(circ.net.numInputs(), 9);
    ASSERT_EQ(circ.net.numOutputs(), 5);
    EXPECT_TRUE(circ.net.isCombinational());

    sim::Evaluator ev(circ.net);
    for (unsigned a = 0; a < 16; ++a) {
        for (unsigned b = 0; b < 16; ++b) {
            for (unsigned cin = 0; cin < 2; ++cin) {
                // Inputs flatten MSB-first: a[3..0], b[3..0], cin.
                std::vector<bool> x;
                for (int i = 3; i >= 0; --i)
                    x.push_back((a >> i) & 1);
                for (int i = 3; i >= 0; --i)
                    x.push_back((b >> i) & 1);
                x.push_back(cin);
                const auto y = ev.evalOutputs(x);
                const unsigned want = a + b + cin;
                // Outputs: sum[3..0] then cout.
                for (int i = 0; i < 4; ++i)
                    EXPECT_EQ(y[static_cast<std::size_t>(i)],
                              ((want >> (3 - i)) & 1) != 0);
                EXPECT_EQ(y[4], want > 15);
            }
        }
    }
}

TEST(VerilogParser, BundledLfsrShiftsAndFeedsBack)
{
    const auto circ = ingest::importCircuit(bundledCircuitPath("lfsr8.v"));
    ASSERT_EQ(circ.net.numInputs(), 2);
    ASSERT_EQ(circ.net.flipFlops().size(), 8u);

    sim::SeqSimulator simulator(circ.net);
    bool s[8] = {};
    for (int period = 0; period < 100; ++period) {
        const bool si = (period % 7) == 2;
        const auto y = simulator.stepPeriod({si, false});
        // Outputs q[7..0] mirror the current state; so echoes s[7].
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(y[static_cast<std::size_t>(i)], s[7 - i])
                << "period " << period;
        EXPECT_EQ(y[8], s[7]);
        const bool fb = s[7] ^ s[5] ^ s[4] ^ s[3] ^ si;
        for (int i = 7; i > 0; --i)
            s[i] = s[i - 1];
        s[0] = fb;
    }
}

TEST(VerilogParser, BundledCircuitsRoundTripAsFixedPoint)
{
    for (const char *file : {"add4.v", "lfsr8.v"}) {
        const auto circ = ingest::importCircuit(bundledCircuitPath(file));
        const std::string s1 = writeNetlistToString(circ.net);
        const Netlist n1 = readNetlistFromString(s1);
        const std::string s2 = writeNetlistToString(n1);
        EXPECT_EQ(s1, s2) << file;
        EXPECT_EQ(contentHash(circ.net), contentHash(n1)) << file;
    }
}

TEST(VerilogParser, BundledCircuitsHardenAndVerify)
{
    for (const char *file : {"add4.v", "lfsr8.v"}) {
        const auto circ = ingest::importCircuit(bundledCircuitPath(file));
        const ingest::HardenedCircuit hard =
            ingest::hardenNetlist(circ.net);
        EXPECT_TRUE(ingest::verifyAlternatingOperation(
            hard.net, hard.phiInput, 2048))
            << file;
    }
}

/**
 * Drop verdict lines that echo the lane configuration itself or count
 * per-lane samples (alarm_lane_count, latency_histogram, ...). The
 * determinism contract (fault/report.hh) treats `lanes` as a
 * verdict-affecting config axis — only `jobs` is a pure performance
 * knob — so byte-identity ACROSS lane widths is asserted on the
 * fault-outcome core, while identity across jobs is asserted on the
 * full verdict string.
 */
std::string
stripLaneFields(const std::string &verdict)
{
    std::istringstream in(verdict);
    std::string out, line;
    while (std::getline(in, line)) {
        bool laneField = false;
        for (const char *key :
             {"\"lanes\":", "\"simd\":", "\"alarm_lane_count\":",
              "\"mean_alarm_period\":", "\"latency_histogram\":"})
            if (line.find(key) != std::string::npos)
                laneField = true;
        if (!laneField)
            out += line + "\n";
    }
    return out;
}

TEST(VerilogParser, AdderCampaignVerdictBitIdenticalAcrossJobsLanes)
{
    const auto circ = ingest::importCircuit(bundledCircuitPath("add4.v"));
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(circ.net);

    std::string core;
    std::map<int, std::string> perLanes;
    for (int jobs : {1, 8}) {
        for (int lanes : {64, 512}) {
            fault::CampaignOptions opts;
            opts.jobs = jobs;
            opts.lanes = lanes;
            const auto res =
                fault::runAlternatingCampaign(hard.net, opts);
            const std::string verdict =
                fault::campaignVerdictJson(hard.net, res);
            // Full byte-identity across jobs at a fixed lane width.
            auto [it, fresh] = perLanes.emplace(lanes, verdict);
            EXPECT_EQ(verdict, it->second)
                << "jobs " << jobs << " lanes " << lanes;
            // Fault-outcome core byte-identical across the whole grid.
            if (core.empty())
                core = stripLaneFields(verdict);
            else
                EXPECT_EQ(stripLaneFields(verdict), core)
                    << "jobs " << jobs << " lanes " << lanes;
            EXPECT_EQ(res.numUnsafe, 0u)
                << "jobs " << jobs << " lanes " << lanes;
        }
    }
}

TEST(VerilogParser, LfsrSeqCampaignVerdictBitIdenticalAcrossJobsLanes)
{
    const auto circ = ingest::importCircuit(bundledCircuitPath("lfsr8.v"));
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(circ.net);
    const fault::SeqCampaignSpec spec = hard.campaignSpec();

    std::string core;
    std::map<int, std::string> perLanes;
    for (int jobs : {1, 8}) {
        for (int lanes : {64, 512}) {
            fault::SeqCampaignOptions opts;
            opts.symbols = 96;
            opts.jobs = jobs;
            opts.lanes = lanes;
            const auto res =
                fault::runSequentialCampaign(hard.net, spec, opts);
            const std::string verdict =
                fault::seqCampaignVerdictJson(hard.net, res);
            auto [it, fresh] = perLanes.emplace(lanes, verdict);
            EXPECT_EQ(verdict, it->second)
                << "jobs " << jobs << " lanes " << lanes;
            if (core.empty())
                core = stripLaneFields(verdict);
            else
                EXPECT_EQ(stripLaneFields(verdict), core)
                    << "jobs " << jobs << " lanes " << lanes;
            EXPECT_EQ(res.numUnsafe, 0u)
                << "jobs " << jobs << " lanes " << lanes;
        }
    }
}

} // namespace
} // namespace scal
