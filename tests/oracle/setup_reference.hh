/**
 * @file
 * Reference versions of the campaign set-up stages, written the plain
 * way, that the equivalence suites check the production stages
 * against:
 *
 *  - mapCollapseFaults is the map-indexed structural collapse that
 *    fault::collapseFaults' dense fault index replaced. It keys every
 *    fault in a std::map by (driver, consumer, pin, value), finds
 *    roots by recursion and numbers classes through a second map, and
 *    chains the same gate-local equivalences in the same union order,
 *    so it must produce the identical CollapseResult: the same
 *    classOf, the same representatives (each class's union-find root)
 *    and the same pruning. It shares only the constant and
 *    observability tables (fault::propagateConstants,
 *    fault::observableLines) with the production collapse.
 *  - dfsFanoutCone is a depth-first search over the combinational
 *    consumer edges, the reference for sim::fanoutCones and
 *    sim::fanoutConeSizes.
 *  - scalarIsAlternatingNetwork is Theorem 2.1's check on the scalar
 *    sim::Evaluator, one pattern and its complement at a time, over
 *    the same pattern stream as sim::isAlternatingNetwork (exhaustive
 *    when 2^numInputs fits under the budget, otherwise one Rng word
 *    per pattern and per 64 inputs).
 */

#ifndef SCAL_TESTS_ORACLE_SETUP_REFERENCE_HH
#define SCAL_TESTS_ORACLE_SETUP_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "fault/collapse.hh"
#include "sim/flat.hh"

namespace scal::oracle
{

fault::CollapseResult
mapCollapseFaults(const netlist::Netlist &net,
                  const fault::CollapseOptions &opts = {});

/** The fanout cone of @p seed, in ascending GateId order. */
std::vector<netlist::GateId> dfsFanoutCone(const sim::FlatNetlist &flat,
                                           netlist::GateId seed);

bool scalarIsAlternatingNetwork(const netlist::Netlist &net,
                                std::uint64_t maxPatterns,
                                std::uint64_t seed);

} // namespace scal::oracle

#endif // SCAL_TESTS_ORACLE_SETUP_REFERENCE_HH
