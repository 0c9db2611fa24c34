/**
 * @file
 * Fault universe and outcome definitions for alternating-logic fault
 * injection campaigns.
 */

#ifndef SCAL_FAULT_FAULT_HH
#define SCAL_FAULT_FAULT_HH

#include <string>
#include <vector>

#include "netlist/netlist.hh"

namespace scal::fault
{

/**
 * Aggregate verdict for one stuck-at fault over all applied
 * alternating input pairs.
 */
enum class Outcome
{
    /** No input pair ever exposes the fault (redundant line). */
    Untestable,
    /**
     * Every erroneous word contains a non-alternating output: the
     * checker catches the fault the moment it matters. This is the
     * self-checking behaviour.
     */
    Detected,
    /**
     * Some input pair makes an output alternate incorrectly while
     * every other output alternates: a wrong code word escapes. The
     * network is not fault-secure for this fault.
     */
    Unsafe,
};

const char *outcomeName(Outcome o);

struct FaultResult
{
    netlist::Fault fault;
    Outcome outcome = Outcome::Untestable;
    /** Input patterns (minterm indices) producing an unsafe word.
     *  A pattern is one 64-bit word, so on a circuit of more than 64
     *  inputs it records inputs 0-63 only. */
    std::vector<std::uint64_t> unsafePatterns;
};

} // namespace scal::fault

#endif // SCAL_FAULT_FAULT_HH
