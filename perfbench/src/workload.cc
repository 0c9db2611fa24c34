#include "workload.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "stats.hh"

using namespace scal;

namespace perfbench
{

void
Outcome::attempt(std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
}

void
Outcome::fail(const std::string &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (reasons_.size() < 8)
        reasons_.push_back(why);
}

std::uint64_t
Outcome::attempted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
}

std::uint64_t
Outcome::failed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

std::vector<std::string>
Outcome::reasons() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "comb_pipeline", "seq_pipeline", "daemon_mixed", "shard_resume"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunConfig &cfg,
             const Golden &golden, Outcome &outcome)
{
    if (name == "comb_pipeline")
        return makeCombPipeline(cfg, golden, outcome);
    if (name == "seq_pipeline")
        return makeSeqPipeline(cfg, golden, outcome);
    if (name == "daemon_mixed")
        return makeDaemonMixed(cfg, golden, outcome);
    if (name == "shard_resume")
        return makeShardResume(cfg, golden, outcome);
    return nullptr;
}

const std::vector<std::string> &
combCircuits()
{
    static const std::vector<std::string> files = {
        "c17.bench",  "add4.v",     "c432.bench",
        "c499.bench", "c880.bench", "c1908.bench"};
    return files;
}

const std::vector<std::string> &
seqCircuits()
{
    static const std::vector<std::string> files = {
        "s27.bench",  "lfsr8.v",    "s298.bench",
        "s344.bench", "s386.bench", "s1488-class.bench"};
    return files;
}

std::uint64_t
campaignSeed(std::uint64_t workloadSeed, std::uint64_t salt)
{
    return 1 + mix64(mix64(workloadSeed) ^ salt) % kSeedPool;
}

std::string
combKey(const std::string &circuit, std::uint64_t patterns,
        std::uint64_t seed)
{
    return "comb/" + circuit + "/p" + std::to_string(patterns) + "/s" +
           std::to_string(seed);
}

std::string
seqKey(const std::string &circuit, long symbols, std::uint64_t seed)
{
    return "seq/" + circuit + "/y" + std::to_string(symbols) + "/s" +
           std::to_string(seed);
}

fault::CampaignOptions
combOptions(std::uint64_t patterns, std::uint64_t seed, int jobs)
{
    fault::CampaignOptions o;
    o.maxPatterns = patterns;
    o.seed = seed;
    o.jobs = jobs;
    return o;
}

fault::SeqCampaignOptions
seqOptions(long symbols, std::uint64_t seed, int jobs)
{
    fault::SeqCampaignOptions o;
    o.symbols = symbols;
    o.seed = seed;
    o.jobs = jobs;
    return o;
}

std::string
combCounters(const fault::CampaignResult &r)
{
    std::ostringstream os;
    os << "det=" << r.numDetected << ",uns=" << r.numUnsafe
       << ",unt=" << r.numUntestable << ",classes=" << r.fp.classes
       << ",pruned=" << r.fp.prunedClasses << ",flip=" << r.fp.flipClasses
       << ",cpt=" << r.fp.cptClasses << ",tap=" << r.fp.tapClasses
       << ",sim=" << r.fp.simClasses << ",batches=" << r.fp.batches;
    return os.str();
}

std::string
seqCounters(const fault::SeqCampaignResult &r)
{
    std::ostringstream os;
    os << "det=" << r.numDetected << ",uns=" << r.numUnsafe
       << ",unt=" << r.numUntestable << ",classes=" << r.classes
       << ",pruned=" << r.prunedClasses << ",batched=" << r.batchedClasses
       << ",batches=" << r.batches << ",retired=" << r.retiredEarly
       << ",psim=" << r.periodsSimulated << ",pskip=" << r.periodsSkipped;
    return os.str();
}

std::string
stem(const std::string &file)
{
    std::string s = file.substr(file.find_last_of('/') + 1);
    return s.substr(0, s.find('.'));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

double
since(trace::Clock::time_point t0)
{
    return std::chrono::duration<double>(trace::Clock::now() - t0).count();
}

double
medianTotal(const PassTotals &t, const std::string &name)
{
    std::vector<double> v;
    for (const auto &m : t) {
        const auto it = m.find(name);
        v.push_back(it == m.end() ? 0 : it->second);
    }
    return median(v);
}

double
medianDiff(const PassTotals &t, const std::string &a, const std::string &b)
{
    std::vector<double> v;
    for (const auto &m : t) {
        const auto ia = m.find(a), ib = m.find(b);
        v.push_back((ia == m.end() ? 0 : ia->second) -
                    (ib == m.end() ? 0 : ib->second));
    }
    return median(v);
}

Golden
buildGolden(const RunConfig &cfg)
{
    Golden g;
    const std::string dir = cfg.root + "/circuits/";
    auto comb = [&](const std::string &file, std::uint64_t patterns) {
        const auto hard =
            ingest::hardenNetlist(ingest::importCircuit(dir + file).net);
        for (std::uint64_t s = 1; s <= kSeedPool; ++s) {
            const auto r = fault::runAlternatingCampaign(
                hard.net, combOptions(patterns, s, 1));
            g.put(combKey(stem(file), patterns, s),
                  {verdictDigest(fault::campaignVerdictJson(hard.net, r)), 1,
                   combCounters(r)});
        }
    };
    auto seq = [&](const std::string &file, long symbols, int jobs) {
        const auto hard =
            ingest::hardenNetlist(ingest::importCircuit(dir + file).net);
        for (std::uint64_t s = 1; s <= kSeedPool; ++s) {
            const auto r = fault::runSequentialCampaign(
                hard.net, hard.campaignSpec(), seqOptions(symbols, s, jobs));
            g.put(seqKey(stem(file), symbols, s),
                  {verdictDigest(fault::seqCampaignVerdictJson(hard.net, r)),
                   jobs, seqCounters(r)});
        }
    };
    for (const std::string &f : combCircuits())
        comb(f, kCombPatterns);
    for (const std::string &f : seqCircuits())
        seq(f, kSeqSymbols, kGoldenSeqJobs);
    for (const char *f : kDaemonComb)
        comb(f, kDaemonPatterns);
    seq(kDaemonSeq, kDaemonSymbols, 1);
    return g;
}

} // namespace perfbench
