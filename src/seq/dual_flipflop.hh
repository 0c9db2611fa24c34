/**
 * @file
 * The dual flip-flop SCAL implementation (Section 4.2, Reynolds):
 * the combinational logic is made self-dual by adding the period
 * clock φ, and the number of delays in each feedback path is doubled
 * so the state variables alternate in unison with the inputs. One
 * input symbol occupies two simulator periods: (X, 0) then (X̄, 1).
 */

#ifndef SCAL_SEQ_DUAL_FLIPFLOP_HH
#define SCAL_SEQ_DUAL_FLIPFLOP_HH

#include "fault/seq_campaign.hh"
#include "seq/synthesis.hh"

namespace scal::seq
{

/**
 * Build the dual flip-flop SCAL machine for @p table: 2b flip-flops,
 * self-dualized two-level excitation/output logic. Outputs expose Z
 * and the excitation lines Y (both must be checked, Section 4.2).
 */
SynthesizedMachine synthesizeDualFlipFlop(const StateTable &table);

/**
 * Drive a dual flip-flop (or code-conversion) machine over a symbol
 * stream on the scalar sim::SeqSimulator: each symbol is applied as
 * the alternating pair, under @p fault (optional) in every period.
 * Returns the first-period Z outputs (the machine's data results) and
 * whether every checked output alternated.
 */
struct AlternatingRun
{
    /** Decoded per-symbol outputs (period-1 Z values). */
    std::vector<unsigned> outputs;
    /** True iff every checked output alternated on every symbol. */
    bool allAlternated = true;
    /** Symbol index of the first non-alternating word, or -1. */
    long firstErrorSymbol = -1;
};

AlternatingRun runAlternating(const SynthesizedMachine &sm,
                              const std::vector<int> &symbols,
                              const netlist::Fault *fault = nullptr);

/**
 * The campaign spec a synthesized machine implies: Z outputs are the
 * data word, Z and Y must alternate, checkOutputs are the (p, q) code
 * pairs, and φ is the machine's clock input.
 */
fault::SeqCampaignSpec campaignSpec(const SynthesizedMachine &sm);

} // namespace scal::seq

#endif // SCAL_SEQ_DUAL_FLIPFLOP_HH
