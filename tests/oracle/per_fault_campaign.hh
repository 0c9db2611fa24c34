/**
 * @file
 * The per-fault reference campaigns: every stuck-at fault of the
 * universe replayed on its own by the cone-restricted simulators, on
 * one thread — no collapsing, no batching, no critical-path tracing,
 * no dominance pruning.
 *
 *  - runPerFaultCampaign is the oracle the combinational equivalence
 *    suites diff the production pipeline (fault/campaign.hh) against,
 *    and the `campaign_ref` arm of bench_ingest_campaign. It rebuilds
 *    the pattern stream itself from the campaign's contract
 *    (exhaustive when 2^numInputs fits under maxPatterns, otherwise
 *    one Rng draw per pattern and per 64 inputs, in pattern order).
 *  - runPerFaultSeqCampaign is the sequential counterpart, folding
 *    one SeqFaultSimulator replay (oracle/seq_fault_simulator.hh)
 *    per fault: the oracle test_seq_fault_parallel_equiv diffs the
 *    lane-batched campaign of fault/seq_campaign.hh against at every
 *    lane width, and the per-fault arm that
 *    bench_seq_fault_sim and bench_ingest_campaign time and check
 *    the campaign against.
 *
 * Neither shares code with the pipelines above the simulators. The
 * library lives under tests/ and the program libraries never link it.
 */

#ifndef SCAL_TESTS_ORACLE_PER_FAULT_CAMPAIGN_HH
#define SCAL_TESTS_ORACLE_PER_FAULT_CAMPAIGN_HH

#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "netlist/netlist.hh"

namespace scal::oracle
{

/**
 * Classify every fault of @p net one at a time. Honors the verdict
 * options of @p opts (maxPatterns, seed, keepUnsafeExamples,
 * checkAlternating) and runs at its lanes and SIMD target; jobs,
 * progress and cancellation are ignored. The result carries the
 * verdicts, lanes and SIMD target; fp stays zero and stats records
 * one thread simulating every fault.
 */
fault::CampaignResult runPerFaultCampaign(const netlist::Netlist &net,
                                          const fault::CampaignOptions &opts);

/**
 * Replay every fault of @p net one at a time against the fault-free
 * trace of @p spec. Honors the verdict options of @p opts (symbols,
 * lanes, seed, fault window, dropDetected) at its SIMD target; jobs,
 * the collapse knobs, progress and cancellation are ignored,
 * and the fault-free machine is not re-checked for alarms. The result
 * carries the verdicts, latency aggregates and period counters; the
 * class and batch counters stay zero.
 */
fault::SeqCampaignResult
runPerFaultSeqCampaign(const netlist::Netlist &net,
                       const fault::SeqCampaignSpec &spec,
                       const fault::SeqCampaignOptions &opts);

} // namespace scal::oracle

#endif // SCAL_TESTS_ORACLE_PER_FAULT_CAMPAIGN_HH
