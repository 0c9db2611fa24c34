/**
 * @file
 * System-level fault-injection campaigns for the Chapter 7
 * experiments: run a program on the unprotected CPU, the SCAL CPU,
 * and the fault-tolerant configurations under every single stuck-at
 * fault in one ALU operation's datapath, and classify each fault's
 * end-to-end effect.
 */

#ifndef SCAL_SYSTEM_CAMPAIGN_HH
#define SCAL_SYSTEM_CAMPAIGN_HH

#include <string>

#include "engine/cancel.hh"
#include "fault/shard.hh"
#include "system/scal_cpu.hh"

namespace scal::system
{

/** End-to-end effect of one fault on one program run. */
enum class SystemOutcome
{
    Masked,           ///< program output identical to golden
    Detected,         ///< error flagged before any wrong output
    SilentCorruption, ///< wrong output with no error indication
};

const char *systemOutcomeName(SystemOutcome o);

struct SystemCampaignResult
{
    int total = 0;
    int masked = 0;
    int detected = 0;
    int silent = 0;
    double meanDetectStep = 0; ///< over detected faults
    /** Labels of silently corrupting faults (should be empty for SCAL). */
    std::vector<std::string> silentFaults;
};

/** A named workload: program text plus preloaded data. */
struct Workload
{
    std::string name;
    Program prog;
    std::vector<std::pair<std::uint8_t, std::uint8_t>> data;
    long maxSteps = 200000;
};

/** The standard benchmark programs: sum8, fib12, mul5, logicmix,
 *  copycheck and arraysum. */
std::vector<Workload> standardWorkloads();

/** The standard workload named @p name; throws std::invalid_argument
 *  listing the known names otherwise. */
Workload findWorkload(const std::string &name);

/** Golden output of a workload. */
std::vector<std::uint8_t> goldenOutput(const Workload &wl);

struct SystemCampaignOptions
{
    /**
     * Worker threads for the per-fault program runs: 0 =
     * hardware_concurrency, 1 = the calling thread. Each fault's run
     * is an independent CPU instance and results are reduced in
     * fault-list order, so the result is identical at any jobs count.
     */
    int jobs = 0;
    /**
     * Cooperative cancellation: polled between per-fault runs; when
     * it fires the campaign throws engine::CampaignCancelled.
     */
    const engine::CancelToken *cancel = nullptr;
};

/**
 * Canonical content-addressable encoding of a system campaign request
 * (workload + ALU op + which CPU), jobs excluded — results are
 * identical at any jobs count, so cached verdicts may be shared.
 */
std::string canonicalSystemConfig(const std::string &workload, AluOp op,
                                  bool checked);

/** Deterministic JSON verdict of a system campaign (no wall-clock). */
std::string systemResultJson(const SystemCampaignResult &res);

/**
 * Inject every stuck-at fault of the ALU datapath for @p op and
 * classify each fault's end-to-end effect against the golden run.
 * @p checked selects the SCAL CPU, whose on-line checks flag errors,
 * or the unprotected baseline: a CPU with the conventional gate-level
 * datapath and no checking at all (single-period evaluation, no
 * parity, no alternation), whose faults are only masked or silent.
 */
SystemCampaignResult runSystemCampaign(const Workload &wl, AluOp op,
                                       bool checked,
                                       const SystemCampaignOptions &opts = {});

/**
 * Run shard @p shard of a system campaign (@p checked selects the
 * SCAL or the unprotected CPU) with the fault/shard.hh checkpoint
 * plumbing: the shard universe is the ALU fault list, records are
 * per-fault outcomes, one fault counts as one checkpoint class.
 * Merged results are field-identical to the inline run.
 */
fault::ShardOutcome
runSystemCampaignShard(const Workload &wl, AluOp op, bool checked,
                       const SystemCampaignOptions &opts,
                       const engine::ShardSpec &shard,
                       const fault::CheckpointOptions &ckpt = {});

/**
 * Merge complete system-campaign partials (all shards of one run of
 * @p op / @p checked) into the full result; validates header
 * agreement and exactly-once fault coverage like
 * fault::mergeCampaignPartials, throwing engine::SnapshotError naming
 * the offending partial.
 */
SystemCampaignResult
mergeSystemPartials(AluOp op, bool checked,
                    const std::vector<std::vector<std::uint8_t>> &partials,
                    const std::vector<std::string> &names = {});

} // namespace scal::system

#endif // SCAL_SYSTEM_CAMPAIGN_HH
