/**
 * @file
 * 64-way bit-parallel full-netlist evaluation: each gate value is a
 * 64-bit word carrying one bit per concurrently simulated pattern, and
 * every line is recomputed on every call. The reference the fault
 * simulators' replay is checked against (tests/test_fault_sim_equiv.cc)
 * and the full-resimulation arm of bench_fault_sim and bench_perf_sim;
 * no program library links it.
 */

#ifndef SCAL_TESTS_ORACLE_PACKED_EVALUATOR_HH
#define SCAL_TESTS_ORACLE_PACKED_EVALUATOR_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"

namespace scal::oracle
{

class PackedEvaluator
{
  public:
    explicit PackedEvaluator(const netlist::Netlist &net);

    /**
     * Evaluate 64 patterns at once. inputs[i] carries input i's value
     * for all 64 patterns. Stem and branch stuck-at faults apply to
     * every lane.
     */
    std::vector<std::uint64_t> evalLines(
        const std::vector<std::uint64_t> &inputs,
        const netlist::Fault *fault = nullptr,
        const std::vector<std::uint64_t> *dff_state = nullptr) const;

    std::vector<std::uint64_t> evalOutputs(
        const std::vector<std::uint64_t> &inputs,
        const netlist::Fault *fault = nullptr,
        const std::vector<std::uint64_t> *dff_state = nullptr) const;

  private:
    const netlist::Netlist &net_;
    std::vector<netlist::GateId> ffs_;
    /** GateId -> index within ffs_, or -1 (no per-Dff linear scan). */
    std::vector<int> ffIndex_;
};

} // namespace scal::oracle

#endif // SCAL_TESTS_ORACLE_PACKED_EVALUATOR_HH
