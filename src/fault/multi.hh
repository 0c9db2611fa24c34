/**
 * @file
 * Beyond the single-fault model (Definitions 2.2/2.3, Section 8.3):
 * unidirectional and unrestricted multiple stuck-at fault campaigns.
 * SCAL guarantees nothing here — the point of the extension
 * experiment is to *measure* how much of the single-fault guarantee
 * survives higher multiplicities, quantifying the thesis's "not all
 * failures are covered" caveat.
 */

#ifndef SCAL_FAULT_MULTI_HH
#define SCAL_FAULT_MULTI_HH

#include <vector>

#include "fault/fault.hh"
#include "util/rng.hh"

namespace scal::fault
{

/** A simultaneous set of stuck-at faults. */
using MultiFault = std::vector<netlist::Fault>;

/** Draw a random multiple fault of the given multiplicity over
 *  distinct sites; unidirectional forces a common stuck value. */
MultiFault randomMultiFault(const netlist::Netlist &net, int multiplicity,
                            bool unidirectional, util::Rng &rng);

struct MultiFaultCampaignResult
{
    int trials = 0;
    int masked = 0;   ///< no output ever affected
    int detected = 0; ///< every erroneous word carried a non-code pair
    int unsafe = 0;   ///< some wrong code word escaped
    double unsafeRate() const
    {
        return trials ? static_cast<double>(unsafe) / trials : 0;
    }
};

/**
 * Monte-Carlo campaign: @p trials random multiple faults of fixed
 * @p multiplicity, each classified over every alternating input pair
 * (exhaustive in the inputs, sampled in the fault space).
 *
 * The trial fault sets are drawn up front from one Rng stream and
 * classified through the campaign engine (on the calling thread at
 * jobs == 1); the outcome counts are identical at any jobs count
 * because each trial's classification is independent. jobs == 0 means
 * hardware_concurrency.
 * @pre net is combinational with <= 16 inputs and self-dual outputs.
 */
MultiFaultCampaignResult runMultiFaultCampaign(
    const netlist::Netlist &net, int multiplicity, bool unidirectional,
    int trials, std::uint64_t seed = 1, int jobs = 0);

} // namespace scal::fault

#endif // SCAL_FAULT_MULTI_HH
