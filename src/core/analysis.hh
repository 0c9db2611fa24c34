/**
 * @file
 * Exact self-checking analysis of alternating networks.
 *
 * ScalAnalyzer computes, per stuck-at fault, the Theorem 3.1
 * incorrect-alternation predicate
 *
 *     Bad_{g,s}(X) = (F(X,s) ⊕ F(X)) ∧ (F(X̄,s) ⊕ F̄(X))
 *
 * for every output, the non-alternation (detection) predicate, and
 * the Definition 3.3 / Corollary 3.2 system-level unsafe predicate.
 * These are exact: a network is fault-secure w.r.t. a fault iff the
 * unsafe predicate is identically zero, and self-testing iff the
 * fault changes some output for some code input.
 */

#ifndef SCAL_CORE_ANALYSIS_HH
#define SCAL_CORE_ANALYSIS_HH

#include <vector>

#include "logic/truth_table.hh"
#include "netlist/netlist.hh"
#include "sim/line_functions.hh"

namespace scal::core
{

/** Exact per-fault analysis artifacts. */
struct FaultAnalysis
{
    netlist::Fault fault;
    /** Bad_j(X): output j alternates incorrectly at X. */
    std::vector<logic::TruthTable> badPerOutput;
    /** NonAlt_j(X): output j produces a non-code pair at X. */
    std::vector<logic::TruthTable> nonAltPerOutput;
    /**
     * Unsafe(X): some output alternates incorrectly while no output
     * non-alternates — a wrong code word escapes the checker.
     */
    logic::TruthTable unsafe;
    /** Fault changes some output in some period for some X. */
    bool testable = false;

    bool faultSecure() const { return unsafe.isZero(); }
    bool selfCheckingWrtFault() const { return testable && faultSecure(); }
};

/** Which product form of Corollary 3.1 to evaluate (they agree). */
enum class Corollary31Form
{
    /** F̄(X) · F(X,s) · F̄(X̄,s) */
    Term1,
    /** F(X) · F̄(X,s) · F(X̄,s) */
    Term2,
};

/**
 * The most inputs ScalAnalyzer takes: each line's truth table holds
 * 2^inputs bits, 128 KiB per line at 20.
 */
inline constexpr int kMaxAnalyzerInputs = 20;

class ScalAnalyzer
{
  public:
    /** Throws std::invalid_argument on a sequential network or one of
     *  more than kMaxAnalyzerInputs inputs. */
    explicit ScalAnalyzer(const netlist::Netlist &net);

    const netlist::Netlist &net() const { return net_; }
    const sim::LineFunctions &lineFunctions() const { return lf_; }

    /** Theorem 2.1: every output function is self-dual. */
    bool isAlternatingNetwork() const;

    /** Exact analysis of one fault across all outputs. */
    FaultAnalysis analyzeFault(const netlist::Fault &fault) const;

    /**
     * Condition A / Theorem 3.6: the line's function alternates, i.e.
     * is self-dual. A property of the driving gate (all segments of
     * the same line share it).
     */
    bool lineAlternates(netlist::GateId g) const;

    /**
     * Theorem 3.4 redundancy: the line is redundant iff forcing it to
     * either constant never changes any output.
     */
    bool lineRedundant(netlist::GateId g) const;

    /**
     * One product form of Corollary 3.1 for a single output: zero iff
     * the output never alternates incorrectly under fault (site, s).
     */
    logic::TruthTable corollary31(const netlist::FaultSite &site, bool s,
                                  int output, Corollary31Form form) const;

    /** Faulty function of each output under a fault. */
    std::vector<logic::TruthTable>
    faultyOutputs(const netlist::Fault &fault) const;

  private:
    const netlist::Netlist &net_;
    sim::LineFunctions lf_;
};

} // namespace scal::core

#endif // SCAL_CORE_ANALYSIS_HH
