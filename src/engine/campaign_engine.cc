#include "engine/campaign_engine.hh"

namespace scal::engine
{

CampaignEngine::CampaignEngine(const EngineOptions &opts)
    : opts_(opts), jobs_(resolveJobs(opts.jobs)),
      pool_(jobs_ > 1 ? std::make_unique<ThreadPool>(jobs_) : nullptr)
{
}

void
CampaignEngine::beginCampaign(std::uint64_t total_units)
{
    progress_.start(total_units);
    if (opts_.progressInterval.count() > 0)
        progress_.startReporter(opts_.progressInterval,
                                opts_.progressCallback);
}

CampaignStats
CampaignEngine::endCampaign(std::uint64_t total_faults,
                            std::uint64_t simulated_faults,
                            std::uint64_t patterns_applied)
{
    progress_.stopReporter();
    const ProgressSnapshot s = progress_.snapshot();
    CampaignStats st;
    st.jobs = jobs_;
    st.totalFaults = total_faults;
    st.simulatedFaults = simulated_faults;
    st.patternsApplied = patterns_applied;
    st.collapseRatio =
        total_faults ? static_cast<double>(simulated_faults) /
                           static_cast<double>(total_faults)
                     : 1.0;
    st.elapsedSeconds = s.elapsedSeconds;
    st.faultsPerSecond =
        s.elapsedSeconds > 0
            ? static_cast<double>(total_faults) / s.elapsedSeconds
            : 0;
    st.patternsPerSecond =
        s.elapsedSeconds > 0
            ? static_cast<double>(patterns_applied) / s.elapsedSeconds
            : 0;
    return st;
}

} // namespace scal::engine
