/**
 * @file
 * Per-layer probes of a sequential campaign, shared by seq_pipeline
 * and shard_resume: re-run, as probe spans, the FlatNetlist compile,
 * the fault-free good trace at the campaign's width (SeqGoodTrace +
 * stepPeriod over fault::buildSymbolWords, the input stream
 * replicated into every lane group of the widest kernel block as the
 * lane-batched campaign does) and the collapse with the campaign's
 * own options.
 */

#ifndef PERFBENCH_SEQ_PROBE_HH
#define PERFBENCH_SEQ_PROBE_HH

#include "fault/seq_campaign.hh"
#include "ingest/harden.hh"
#include "trace.hh"

namespace perfbench
{

void probeSeqLayers(trace::Recorder &rec,
                    const scal::ingest::HardenedCircuit &hard,
                    const scal::fault::SeqCampaignOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_SEQ_PROBE_HH
