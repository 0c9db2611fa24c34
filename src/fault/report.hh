/**
 * @file
 * Canonical campaign verdict encodings, shared by the inline CLI and
 * the campaign daemon so the two can never drift apart:
 *
 *  - the *verdict* JSON: every deterministic field of a campaign
 *    result. Bit-identical for the same (netlist, config) at any jobs
 *    count and SIMD target, and for combinational campaigns at any
 *    lane width — this is what the daemon's content-addressed cache
 *    stores and what the byte-identity tests compare.
 *  - the *tail* JSON fields: the lane width and SIMD target a run
 *    resolved to, wall-clock stats and kernel work counters,
 *    explicitly outside the determinism contract. The CLI splices
 *    them into the verdict with withTailFields() for the traditional
 *    `--json` output.
 *  - the canonical *config key*: a stable text encoding of every
 *    verdict-affecting option, used (with netlist::contentHash) as
 *    the verdict cache key. Options that only change how the work is
 *    done are excluded on purpose: jobs, the SIMD target, the
 *    combinational lane width, the sequential batching and collapse
 *    knobs, and the progress plumbing. Results are bit-identical
 *    across them, so cached verdicts are shared across those axes.
 *    Sequential `lanes` stays in the key: it sets the number of
 *    independent random streams, so it is part of the experiment;
 *    lanes 0 is keyed as the width it resolves to. The fields are the
 *    key columns of the option tables (fault/options.hh).
 */

#ifndef SCAL_FAULT_REPORT_HH
#define SCAL_FAULT_REPORT_HH

#include <string>

#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "netlist/netlist.hh"

namespace scal::fault
{

/** Deterministic combinational verdict JSON (multi-line, ends "}\n"). */
std::string campaignVerdictJson(const netlist::Netlist &net,
                                const CampaignResult &res);

/** Non-deterministic tail fields for the combinational verdict
 *  (lanes, simd, the fault-parallel breakdown and `"stats"`); no
 *  surrounding braces or newline. */
std::string campaignTailJson(const CampaignResult &res);

/** Deterministic sequential verdict JSON (multi-line, ends "}\n"). */
std::string seqCampaignVerdictJson(const netlist::Netlist &net,
                                   const SeqCampaignResult &res);

/** Non-deterministic tail fields for the sequential verdict (simd,
 *  work counters and `"stats"`). */
std::string seqCampaignTailJson(const SeqCampaignResult &res);

/**
 * Splice tail fields into a verdict object: inserts @p tailFields
 * (one or more `  "key": value` lines joined by ",\n", no trailing
 * newline) before the verdict's closing brace. Empty tail returns the
 * verdict unchanged.
 */
std::string withTailFields(std::string verdict,
                           const std::string &tailFields);

/** Canonical config key of a combinational campaign (jobs, lanes and
 *  SIMD target excluded). */
std::string canonicalCampaignConfig(const CampaignOptions &opts);

/**
 * Canonical config key of a sequential campaign, with lanes 0 resolved
 * (resolveSeqLanes). The spec's output sets are sorted and
 * deduplicated (alarm/wrong folds are order-independent); code pairs
 * keep their pairing order.
 */
std::string canonicalSeqCampaignConfig(const SeqCampaignOptions &opts,
                                       const SeqCampaignSpec &spec);

} // namespace scal::fault

#endif // SCAL_FAULT_REPORT_HH
