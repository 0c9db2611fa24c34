/**
 * @file
 * Structural gate-level Verilog (.v) parser — the netlist subset a
 * synthesis tool emits, not behavioural Verilog:
 *
 *   // line comments and block comments
 *   module add4(input [3:0] a, input [3:0] b, input cin,
 *               output [3:0] sum, output cout);
 *     wire [2:0] c;
 *     wire t0;
 *     xor s0 (sum[0], a[0], b[0], cin);   // primitive: output first
 *     and    (t0, a[0], b[0]);            // instance name optional
 *     dff r0 (q, d);                      // or .q(q), .d(d), .clk(ck)
 *     assign cout = c[2];                 // net-to-net / constant
 *   endmodule
 *
 * Supported: one module per file; ANSI and non-ANSI port styles;
 * `input`/`output`/`wire` declarations with bit-vector ranges
 * (flattened to scalar nets named `v[i]`); the gate primitives
 * `and or nand nor xor xnor not buf` (output(s) first, `not`/`buf`
 * may drive several outputs); flip-flop instances of a module named
 * `dff` (positional `(q, d[, clk])` or named `.q/.d/.clk`, the clock
 * being accepted and ignored — every Dff follows the every-period
 * latch discipline); `assign` of whole nets, bit-selects and sized
 * constants (`1'b0`, `4'hA`, ...); escaped identifiers
 * (`\u1.q `, kept verbatim as net names).
 *
 * Everything else (expressions, `always`, hierarchy) is rejected with
 * a line-numbered ParseError, as are undeclared nets, width
 * mismatches, multiply-driven nets, unknown primitives, indices that
 * do not fit an int and modules declaring more than kMaxModuleBits
 * scalar bits.
 */

#ifndef SCAL_INGEST_VERILOG_PARSER_HH
#define SCAL_INGEST_VERILOG_PARSER_HH

#include <iosfwd>
#include <string>

#include "netlist/netlist.hh"

namespace scal::ingest
{

/** Most scalar bits one module may declare across its ports and
 *  wires; a larger declaration is a line-numbered ParseError. */
inline constexpr long kMaxModuleBits = 1L << 20;

/** Parse a structural Verilog stream; throws ParseError on
 *  malformed input. */
netlist::Netlist readVerilog(std::istream &in);
netlist::Netlist readVerilogFromString(const std::string &text);

} // namespace scal::ingest

#endif // SCAL_INGEST_VERILOG_PARSER_HH
