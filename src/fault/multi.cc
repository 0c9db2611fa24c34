#include "fault/multi.hh"

#include <algorithm>
#include <stdexcept>

#include "engine/campaign_engine.hh"
#include "sim/alternating.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"

namespace scal::fault
{

using namespace netlist;

namespace
{

/** One trial's verdict, independent of every other trial. */
enum class TrialOutcome
{
    Masked,
    Detected,
    Unsafe,
};

/**
 * Word-parallel version of the scalar trial loop: 64 alternating
 * pairs per cone-restricted simulation instead of one pair per full
 * resimulation. Patterns ascend exactly as before, and the first
 * unsafe block ends the trial (outcome-equivalent to the scalar
 * pattern-level break: Unsafe dominates every later observation).
 */
TrialOutcome
classifyTrial(sim::FaultSimulator &fs,
              const std::vector<std::vector<std::uint64_t>> &blocks,
              std::uint64_t patterns, const MultiFault &mf)
{
    bool any_err = false;
    std::uint64_t base = 0;
    for (const auto &in : blocks) {
        const int lanes = static_cast<int>(
            std::min<std::uint64_t>(64, patterns - base));
        const std::uint64_t lane_mask =
            lanes == 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << lanes) - 1);
        fs.setAlternatingBlock(in);
        const sim::WideMasks m =
            fs.classifyAlternatingWide(mf.data(), mf.size());
        if (m.unsafeWord(0) & lane_mask)
            return TrialOutcome::Unsafe;
        any_err |= (m.anyErr[0] & lane_mask) != 0;
        base += 64;
    }
    return any_err ? TrialOutcome::Detected : TrialOutcome::Masked;
}

} // namespace

MultiFault
randomMultiFault(const Netlist &net, int multiplicity,
                 bool unidirectional, util::Rng &rng)
{
    const auto sites = net.faultSites();
    if (multiplicity < 1 ||
        multiplicity > static_cast<int>(sites.size())) {
        throw std::invalid_argument("bad multiplicity");
    }
    std::vector<std::size_t> idx(sites.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    rng.shuffle(idx);

    const bool common = rng.chance(0.5);
    MultiFault mf;
    for (int k = 0; k < multiplicity; ++k) {
        const bool value =
            unidirectional ? common : rng.chance(0.5);
        mf.push_back({sites[idx[k]], value});
    }
    return mf;
}

MultiFaultCampaignResult
runMultiFaultCampaign(const Netlist &net, int multiplicity,
                      bool unidirectional, int trials, std::uint64_t seed,
                      int jobs)
{
    if (!net.isCombinational() || net.numInputs() > 16)
        throw std::invalid_argument("multi-fault campaign scope");

    util::Rng rng(seed);
    const int ni = net.numInputs();
    const std::uint64_t patterns = std::uint64_t{1} << ni;

    // Compile once; the exhaustive pattern blocks (lane l of block b
    // carries pattern 64b + l) and the flat image are shared read-only.
    const sim::FlatNetlist flat(net);
    std::vector<std::vector<std::uint64_t>> blocks;
    sim::PatternStream stream(ni, /*exhaustive=*/true, /*seed=*/0);
    for (std::uint64_t base = 0; base < patterns; base += 64)
        stream.next(
            static_cast<int>(std::min<std::uint64_t>(64, patterns - base)),
            1, blocks.emplace_back(ni).data());

    // Draw every trial's fault set up front from one Rng stream, so
    // the sampled fault space is independent of the jobs count.
    std::vector<MultiFault> drawn;
    drawn.reserve(static_cast<std::size_t>(std::max(trials, 0)));
    for (int t = 0; t < trials; ++t)
        drawn.push_back(
            randomMultiFault(net, multiplicity, unidirectional, rng));

    engine::EngineOptions eopts;
    eopts.jobs = jobs;
    eopts.minGrain = 1;
    engine::CampaignEngine eng(eopts);
    eng.beginCampaign(drawn.size());

    const auto chunkCounts = eng.mapChunks<MultiFaultCampaignResult>(
        drawn.size(), [&](engine::Chunk chunk, std::size_t) {
            sim::FaultSimulator fs(flat);
            MultiFaultCampaignResult part;
            for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
                ++part.trials;
                switch (classifyTrial(fs, blocks, patterns, drawn[t])) {
                  case TrialOutcome::Unsafe:   ++part.unsafe; break;
                  case TrialOutcome::Detected: ++part.detected; break;
                  case TrialOutcome::Masked:   ++part.masked; break;
                }
                eng.progress().addFaultsDone(1);
            }
            return part;
        });

    MultiFaultCampaignResult res;
    for (const MultiFaultCampaignResult &part : chunkCounts) {
        res.trials += part.trials;
        res.masked += part.masked;
        res.detected += part.detected;
        res.unsafe += part.unsafe;
    }
    return res;
}

} // namespace scal::fault
