/**
 * @file
 * What every workload shares: the run configuration, the failure
 * ledger, the metric report, the Workload interface main.cc runs, and
 * the campaign vocabulary (golden keys, seeded
 * campaign seeds, deterministic work counters) used by all four
 * workloads and by the golden-file writer.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "golden.hh"
#include "trace.hh"

namespace perfbench
{

struct RunConfig
{
    std::string root;        ///< checkout root (holds circuits/)
    std::uint64_t seed = 1;  ///< workload seed
    double seconds = 10;     ///< measured time per run
    bool trace = false;      ///< traced run (per-layer metrics)
    int threads = 4;         ///< min(4, nproc): engine threads, clients
    std::string outDir;      ///< trace files and daemon sockets
};

/** Operations attempted and failed, with the first few reasons. */
class Outcome
{
  public:
    void attempt(std::uint64_t n = 1);
    void fail(const std::string &why);
    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    std::vector<std::string> reasons() const;

  private:
    mutable std::mutex mu_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything a workload reports beyond main.cc's own metrics. */
struct Report
{
    /** Workload-specific end-to-end metrics (untraced runs). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced runs). */
    std::vector<Metric> layers;
    /** Free-form lines (breakdowns) printed before the result. */
    std::vector<std::string> notes;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One set-up: load the circuit files, start services, warm up.
     *  main.cc repeats it; tearDown() runs between repetitions. */
    virtual void setUp() = 0;
    virtual void tearDown() {}

    /** Untimed hooks around each pass (e.g. a fresh daemon). */
    virtual void beforePass(int /*pass*/) {}
    virtual void afterPass(int /*pass*/) {}

    /** One pass over the workload's fixed request list. Spans go to
     *  @p rec when it is non-null (a traced pass). */
    virtual void pass(trace::Recorder *rec) = 0;

    /** Traced runs only: re-run single layer calls on the workload's
     *  own inputs, as spans marked probe. */
    virtual void probe(trace::Recorder & /*rec*/) {}

    /** Faults x patterns (or x lanes x symbols) one untraced pass
     *  classified, for fault_patterns_per_s. */
    virtual double workPerPass() const = 0;

    /** Threads a pass keeps busy at once; the calibration unit runs
     *  on as many. */
    virtual int parallelism() const { return 1; }

    /** Fill in the workload's own metrics. @p passes are the untimed
     *  passes' seconds; @p rec is the recorder in traced runs. */
    virtual void finish(const std::vector<double> &passes,
                        const trace::Recorder *rec, Report &report) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunConfig &cfg,
                                       const Golden &golden,
                                       Outcome &outcome);

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** @name Campaign vocabulary */
/** @{ */
inline constexpr int kSeedPool = 8;       ///< campaign seeds 1..8
inline constexpr std::uint64_t kCombPatterns = 4096;
inline constexpr long kSeqSymbols = 64;
inline constexpr std::uint64_t kDaemonPatterns = 2048;
inline constexpr long kDaemonSymbols = 32;
/** Engine threads the seq goldens were taken with. */
inline constexpr int kGoldenSeqJobs = 4;

/** Campaign seed in 1..kSeedPool drawn from the workload seed. */
std::uint64_t campaignSeed(std::uint64_t workloadSeed, std::uint64_t salt);

std::string combKey(const std::string &circuit, std::uint64_t patterns,
                    std::uint64_t seed);
std::string seqKey(const std::string &circuit, long symbols,
                   std::uint64_t seed);

/** The options every comb / seq campaign of the benchmark runs with:
 *  library defaults plus the pattern or symbol budget, seed and
 *  thread count — the same options the daemon resolves for a submit
 *  that sets only max_patterns / symbols and seed. */
scal::fault::CampaignOptions combOptions(std::uint64_t patterns,
                                         std::uint64_t seed, int jobs);
scal::fault::SeqCampaignOptions seqOptions(long symbols, std::uint64_t seed,
                                           int jobs);

/** Deterministic work counters as a golden-file string. */
std::string combCounters(const scal::fault::CampaignResult &r);
std::string seqCounters(const scal::fault::SeqCampaignResult &r);

/** Circuit file stem: "circuits/s1488-class.bench" -> "s1488-class". */
std::string stem(const std::string &file);

/** Whole file as a string; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/** Seconds since @p t0. */
double since(trace::Clock::time_point t0);
/** @} */

/** @name Reading the trace */
/** @{ */
using PassTotals = std::vector<std::map<std::string, double>>;
/** Median over traced passes of one per-pass total (0 when absent). */
double medianTotal(const PassTotals &t, const std::string &name);
/** Median over traced passes of total @p a minus total @p b. */
double medianDiff(const PassTotals &t, const std::string &a,
                  const std::string &b);
/** @} */

/** Regenerate every golden entry the workloads can ask for. */
Golden buildGolden(const RunConfig &cfg);

/** @name Workload factories (one per source file) */
/** @{ */
std::unique_ptr<Workload> makeCombPipeline(const RunConfig &cfg,
                                           const Golden &golden,
                                           Outcome &outcome);
std::unique_ptr<Workload> makeSeqPipeline(const RunConfig &cfg,
                                          const Golden &golden,
                                          Outcome &outcome);
std::unique_ptr<Workload> makeDaemonMixed(const RunConfig &cfg,
                                          const Golden &golden,
                                          Outcome &outcome);
std::unique_ptr<Workload> makeShardResume(const RunConfig &cfg,
                                          const Golden &golden,
                                          Outcome &outcome);
/** @} */

/** Comb / seq circuit files of the pipeline workloads. */
const std::vector<std::string> &combCircuits();
const std::vector<std::string> &seqCircuits();
/** Circuits the daemon submits (raw files, hardened at set-up). */
inline const char *const kDaemonComb[] = {"c432.bench", "c880.bench"};
inline const char *const kDaemonSeq = "s298.bench";
inline const char *const kShardCircuit = "s1488-class.bench";

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
