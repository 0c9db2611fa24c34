#include "fault/report.hh"

#include <sstream>

#include "fault/collapse.hh"
#include "fault/options.hh"
#include "netlist/structure.hh"
#include "sim/simd.hh"
#include "util/json.hh"

namespace scal::fault
{

std::string
campaignVerdictJson(const netlist::Netlist &net,
                    const CampaignResult &res)
{
    const auto col = collapseFaults(net);
    std::ostringstream os;
    os << "{\n"
       << "  \"patterns_applied\": " << res.patternsApplied << ",\n"
       << "  \"faults\": " << res.faults.size() << ",\n"
       << "  \"detected\": " << res.numDetected << ",\n"
       << "  \"unsafe\": " << res.numUnsafe << ",\n"
       << "  \"untestable\": " << res.numUntestable << ",\n"
       << "  \"self_checking\": "
       << (res.selfChecking() ? "true" : "false") << ",\n"
       << "  \"collapse\": {\"total_faults\": " << col.totalFaults
       << ", \"classes\": " << col.representatives.size()
       << ", \"ratio\": " << col.ratio() << "},\n"
       << "  \"unsafe_faults\": [";
    bool first = true;
    for (const auto &fr : res.faults) {
        if (fr.outcome != Outcome::Unsafe)
            continue;
        os << (first ? "" : ", ") << "\""
           << util::jsonEscape(netlist::faultToString(net, fr.fault)) << "\"";
        first = false;
    }
    os << "]\n"
       << "}\n";
    return os.str();
}

std::string
campaignTailJson(const CampaignResult &res)
{
    // Lane width, kernel build and the fault-parallel breakdown live
    // in the tail, not the verdict: the verdict is identical at every
    // width and on every host, and `batches` is jobs-dependent, so
    // putting them in the verdict would give one cache entry
    // host-dependent bytes.
    std::ostringstream os;
    os << "  \"lanes\": " << res.lanes << ",\n"
       << "  \"simd\": \"" << sim::simdTargetName(res.simd) << "\",\n"
       << "  \"fault_parallel\": {\"total_faults\": "
       << res.fp.totalFaults
       << ", \"classes\": " << res.fp.classes
       << ", \"pruned_classes\": " << res.fp.prunedClasses
       << ", \"pruned_faults\": " << res.fp.prunedFaults
       << ", \"flip_classes\": " << res.fp.flipClasses
       << ", \"cpt_classes\": " << res.fp.cptClasses
       << ", \"tap_classes\": " << res.fp.tapClasses
       << ", \"sim_classes\": " << res.fp.simClasses
       << ", \"batches\": " << res.fp.batches << "},\n"
       << "  \"stats\": " << res.stats.toJson();
    return os.str();
}

std::string
seqCampaignVerdictJson(const netlist::Netlist &net,
                       const SeqCampaignResult &res)
{
    const auto col = collapseFaults(net);
    std::ostringstream os;
    os << "{\n"
       << "  \"symbols\": " << res.symbols << ",\n"
       << "  \"lanes\": " << res.lanes << ",\n"
       << "  \"faults\": " << res.faults.size() << ",\n"
       << "  \"detected\": " << res.numDetected << ",\n"
       << "  \"unsafe\": " << res.numUnsafe << ",\n"
       << "  \"untestable\": " << res.numUntestable << ",\n"
       << "  \"self_checking\": "
       << (res.selfChecking() ? "true" : "false") << ",\n"
       << "  \"fault_secure\": "
       << (res.faultSecure() ? "true" : "false") << ",\n"
       << "  \"collapse\": {\"total_faults\": " << col.totalFaults
       << ", \"classes\": " << col.representatives.size()
       << ", \"ratio\": " << col.ratio() << "},\n"
       << "  \"alarm_lane_count\": " << res.alarmLaneCount << ",\n"
       << "  \"mean_alarm_period\": " << res.meanAlarmPeriod << ",\n"
       << "  \"latency_histogram\": [";
    for (int k = 0; k < kLatencyBuckets; ++k)
        os << (k ? ", " : "") << res.latencyHistogram[k];
    os << "],\n"
       << "  \"unsafe_faults\": [";
    bool first = true;
    for (const auto &fv : res.faults) {
        if (fv.outcome != Outcome::Unsafe)
            continue;
        os << (first ? "" : ", ") << "\""
           << util::jsonEscape(netlist::faultToString(net, fv.fault)) << "\"";
        first = false;
    }
    os << "]\n"
       << "}\n";
    return os.str();
}

std::string
seqCampaignTailJson(const SeqCampaignResult &res)
{
    // Like the combinational tail: the kernel build is host-dependent
    // and the batch and class counts move with the lane width and the
    // collapse knobs, so none of it may enter the deterministic
    // verdict block.
    std::ostringstream os;
    os << "  \"simd\": \"" << sim::simdTargetName(res.simd) << "\",\n"
       << "  \"periods_simulated\": " << res.periodsSimulated << ",\n"
       << "  \"periods_skipped\": " << res.periodsSkipped << ",\n"
       << "  \"pruned_classes\": " << res.prunedClasses << ",\n"
       << "  \"pruned_faults\": " << res.prunedFaults << ",\n"
       << "  \"seq_fault_parallel\": {\"total_faults\": "
       << res.faults.size()
       << ", \"classes\": " << res.classes
       << ", \"pruned_classes\": " << res.prunedClasses
       << ", \"pruned_faults\": " << res.prunedFaults
       << ", \"batched_classes\": " << res.batchedClasses
       << ", \"batches\": " << res.batches
       << ", \"retired_early\": " << res.retiredEarly << "},\n"
       << "  \"stats\": " << res.stats.toJson();
    return os.str();
}

std::string
withTailFields(std::string verdict, const std::string &tailFields)
{
    if (tailFields.empty())
        return verdict;
    const std::size_t pos = verdict.rfind("\n}");
    if (pos == std::string::npos)
        return verdict;
    verdict.insert(pos, ",\n" + tailFields);
    return verdict;
}

std::string
canonicalCampaignConfig(const CampaignOptions &opts)
{
    CampaignOptions o = opts;
    return optionKey("comb", optionRows(o));
}

std::string
canonicalSeqCampaignConfig(const SeqCampaignOptions &opts,
                           const SeqCampaignSpec &spec)
{
    // The key names the streams a run uses, not the request: lanes 0
    // resolves per host, and simd (which it resolves through) is not
    // in the key.
    SeqCampaignConfig cfg{opts, spec};
    cfg.opts.lanes = resolveSeqLanes(opts);
    return optionKey("seq", optionRows(cfg));
}

} // namespace scal::fault
