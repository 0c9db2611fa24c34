/**
 * @file
 * The gate-level self-dual ALU of the SCAL CPU (Section 7.3). Each
 * operation is realized as a self-dual combinational network over
 * (a, b, φ): applied the alternating pair ((a,b,0), (ā,b̄,1)) it
 * emits (r, r̄) plus alternating carry and zero flags. The inherently
 * self-dual modules (adder, shifter) need no φ; the logical
 * operations and the zero-flag detector are self-dualized with it.
 * In the alternating data encoding the constant 0 is the pair (0,1),
 * i.e. the period clock itself — which is how shift-ins and carry-ins
 * are sourced.
 */

#ifndef SCAL_SYSTEM_ALU_HH
#define SCAL_SYSTEM_ALU_HH

#include <cstdint>
#include <string>

#include "netlist/netlist.hh"

namespace scal::system
{

enum class AluOp : std::uint8_t
{
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    PassB,
};

const char *aluOpName(AluOp op);
constexpr int kNumAluOps = 8;

/** The op whose aluOpName() is @p name; throws std::invalid_argument
 *  listing the known names otherwise. */
AluOp parseAluOp(const std::string &name);

/**
 * Build the self-dual datapath for one operation.
 * Inputs: a0..a{w-1}, b0..b{w-1}, phi.
 * Outputs: r0..r{w-1}, carry, zero.
 */
netlist::Netlist aluNetlist(AluOp op, int width = 8);

/**
 * A conventional (non-self-dual, no φ) realization of the same
 * operation, used as the unchecked baseline for the Chapter 7 cost
 * factors. Inputs a..., b...; outputs r..., carry, zero.
 */
netlist::Netlist aluNetlistUnchecked(AluOp op, int width = 8);

/** Behavioral reference shared by every CPU model. */
struct AluResult
{
    std::uint8_t value = 0;
    bool carry = false;
    bool zero = false;
};
AluResult aluReference(AluOp op, std::uint8_t a, std::uint8_t b);

} // namespace scal::system

#endif // SCAL_SYSTEM_ALU_HH
