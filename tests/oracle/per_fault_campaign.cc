#include "oracle/per_fault_campaign.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "oracle/seq_fault_simulator.hh"
#include "oracle/setup_reference.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "sim/seq_fault_sim.hh"
#include "util/rng.hh"

namespace scal::oracle
{

using namespace netlist;

fault::CampaignResult
runPerFaultCampaign(const Netlist &net, const fault::CampaignOptions &opts)
{
    if (!net.isCombinational())
        throw std::invalid_argument("campaign needs combinational netlist");
    if (opts.checkAlternating && net.numInputs() <= 20 &&
        !scalarIsAlternatingNetwork(
            net, std::numeric_limits<std::uint64_t>::max(), 1))
        throw std::invalid_argument(
            "campaign target is not an alternating network");

    const int ni = net.numInputs();
    const bool exhaustive =
        ni < 63 && (std::uint64_t{1} << ni) <= opts.maxPatterns;
    const std::uint64_t num_patterns =
        exhaustive ? std::uint64_t{1} << ni : opts.maxPatterns;
    const sim::SimdTarget simd = sim::resolveSimdTarget(opts.simd);
    const int W = opts.lanes == 0 ? sim::defaultLaneWords(simd)
                                  : sim::laneWordsForLanes(opts.lanes);
    const std::uint64_t block_lanes = static_cast<std::uint64_t>(64) * W;

    const std::vector<Fault> faults = net.allFaults();
    fault::CampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];
    result.patternsApplied = num_patterns;
    result.lanes = static_cast<int>(block_lanes);
    result.simd = simd;

    const sim::FlatNetlist flat(net);
    sim::FaultSimulator fs(flat, W, simd);
    util::Rng rng(opts.seed);
    std::vector<std::uint64_t> in(static_cast<std::size_t>(ni) * W);
    std::vector<std::uint64_t> pattern(block_lanes);
    std::vector<std::uint64_t> words(static_cast<std::size_t>(ni + 63) / 64);
    std::vector<std::uint8_t> tested(faults.size(), 0);
    std::vector<std::uint8_t> unsafe(faults.size(), 0);

    // Lane l of a block holds pattern first + l (exhaustive) or the
    // l-th pattern of the block (sampled: one draw per 64 inputs, word
    // j holding inputs 64j..64j+63), at bit l % 64 of word l / 64. A
    // kept unsafe example is the pattern's first word.
    for (std::uint64_t first = 0; first < num_patterns;
         first += block_lanes) {
        const int lanes = static_cast<int>(
            std::min(block_lanes, num_patterns - first));
        std::fill(in.begin(), in.end(), 0);
        for (int lane = 0; lane < lanes; ++lane) {
            for (std::size_t j = 0; j < words.size(); ++j)
                words[j] = exhaustive ? (j == 0 ? first + lane : 0)
                                      : rng.next();
            pattern[static_cast<std::size_t>(lane)] =
                words.empty() ? 0 : words[0];
            for (int i = 0; i < ni; ++i)
                if ((words[static_cast<std::size_t>(i / 64)] >> (i % 64)) &
                    1)
                    in[static_cast<std::size_t>(i) * W + lane / 64] |=
                        std::uint64_t{1} << (lane % 64);
        }
        fs.setAlternatingBlock(in);

        for (std::size_t k = 0; k < faults.size(); ++k) {
            const sim::WideMasks m = fs.classifyAlternatingWide(faults[k]);
            bool any_unsafe = false;
            for (int w = 0; w < W; ++w) {
                const int rem = lanes - 64 * w;
                const std::uint64_t live =
                    rem <= 0    ? 0
                    : rem >= 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << rem) - 1;
                if (m.anyErr[static_cast<std::size_t>(w)] & live)
                    tested[k] = 1;
                if (m.unsafeWord(w) & live)
                    any_unsafe = true;
            }
            if (!any_unsafe)
                continue;
            unsafe[k] = 1;
            std::vector<std::uint64_t> &kept =
                result.faults[k].unsafePatterns;
            for (int lane = 0; lane < lanes; ++lane) {
                if (static_cast<int>(kept.size()) >=
                    opts.keepUnsafeExamples)
                    break;
                if ((m.unsafeWord(lane / 64) >> (lane % 64)) & 1)
                    kept.push_back(pattern[static_cast<std::size_t>(lane)]);
            }
        }
    }

    for (std::size_t k = 0; k < faults.size(); ++k) {
        fault::FaultResult &fr = result.faults[k];
        if (unsafe[k]) {
            fr.outcome = fault::Outcome::Unsafe;
            ++result.numUnsafe;
        } else if (tested[k]) {
            fr.outcome = fault::Outcome::Detected;
            ++result.numDetected;
        } else {
            fr.outcome = fault::Outcome::Untestable;
            ++result.numUntestable;
        }
    }
    result.stats.jobs = 1;
    result.stats.totalFaults = faults.size();
    result.stats.simulatedFaults = faults.size();
    result.stats.patternsApplied = num_patterns;
    return result;
}

fault::SeqCampaignResult
runPerFaultSeqCampaign(const Netlist &net, const fault::SeqCampaignSpec &spec,
                       const fault::SeqCampaignOptions &opts)
{
    const sim::SimdTarget simd = sim::resolveSimdTarget(opts.simd);
    const int lanes =
        opts.lanes == 0 ? 64 * sim::defaultLaneWords(simd) : opts.lanes;
    const int W = sim::laneWordsForLanes(lanes);
    const int ni = net.numInputs();
    const int no = net.numOutputs();

    // Unset output sets mean every output.
    std::vector<int> data = spec.dataOutputs;
    std::vector<int> alt = spec.altOutputs;
    for (int j = 0; j < no; ++j) {
        if (spec.dataOutputs.empty())
            data.push_back(j);
        if (spec.altOutputs.empty())
            alt.push_back(j);
    }
    std::vector<std::uint8_t> hold(static_cast<std::size_t>(ni), 0);
    for (const int i : spec.holdInputs)
        hold[static_cast<std::size_t>(i)] = 1;
    std::uint64_t laneMask[sim::kMaxLaneWords] = {};
    for (int w = 0; w < W; ++w) {
        const int rem = lanes - 64 * w;
        laneMask[w] = rem >= 64  ? ~std::uint64_t{0}
                      : rem <= 0 ? 0
                                 : (std::uint64_t{1} << rem) - 1;
    }

    // The fault-free trace: symbol s drives X in period 2s and X̄ (held
    // inputs and φ unchanged) in period 2s + 1.
    const sim::FlatNetlist flat(net);
    sim::SeqGoodTrace trace(flat, spec.phiInput, W, simd);
    const auto words = fault::buildSymbolWords(ni, spec.phiInput,
                                               opts.symbols, opts.seed, W);
    trace.reservePeriods(2 * opts.symbols);
    std::vector<std::uint64_t> inbar(static_cast<std::size_t>(ni) * W);
    for (const std::vector<std::uint64_t> &x : words) {
        trace.stepPeriod(x.data());
        for (int i = 0; i < ni; ++i)
            for (int w = 0; w < W; ++w) {
                const std::size_t idx = static_cast<std::size_t>(i) * W + w;
                inbar[idx] =
                    (i == spec.phiInput || hold[static_cast<std::size_t>(i)])
                        ? x[idx]
                        : ~x[idx];
            }
        trace.stepPeriod(inbar.data());
    }

    const std::vector<Fault> faults = net.allFaults();
    fault::SeqCampaignResult result;
    result.faults.resize(faults.size());
    result.symbols = opts.symbols;
    result.lanes = lanes;
    result.simd = trace.simdTarget();

    SeqFaultSimulator fsim(trace);
    const sim::detail::WideKernels &kernels = trace.kernels();
    const std::size_t row = static_cast<std::size_t>(no) * W;
    const int npairs = static_cast<int>(spec.codePairs.size()) / 2;
    std::vector<std::uint64_t> buf0(row);
    std::uint64_t lat_sum = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
        fault::SeqVerdictAccumulator acc(laneMask, W, opts.dropDetected);
        // The replay reports only periods whose outputs differ from
        // the trace; the other half of a symbol is read from the trace.
        long pending = -1;
        bool have0 = false;
        const auto flush = [&](long s, const std::uint64_t *p1row) {
            std::uint64_t alarm[sim::kMaxLaneWords];
            std::uint64_t wrong[sim::kMaxLaneWords];
            kernels.seqAlarmWrong(
                have0 ? buf0.data() : trace.outputs(2 * s),
                p1row ? p1row : trace.outputs(2 * s + 1),
                trace.outputs(2 * s), alt.data(),
                static_cast<int>(alt.size()), spec.codePairs.data(),
                npairs, data.data(), static_cast<int>(data.size()), alarm,
                wrong);
            have0 = false;
            pending = -1;
            return acc.addSymbol(s, alarm, wrong);
        };
        fsim.runFault(
            faults[k],
            [&](long t, std::uint64_t, const std::uint64_t *outs) {
                const long s = t / 2;
                if (pending >= 0 && pending != s && !flush(pending, nullptr))
                    return false;
                pending = s;
                if (t & 1)
                    return flush(s, outs);
                std::copy(outs, outs + row, buf0.begin());
                have0 = true;
                return true;
            },
            opts.faultStart, opts.faultEnd);
        if (pending >= 0)
            flush(pending, nullptr);

        fault::SeqFaultVerdict &v = result.faults[k];
        v.fault = faults[k];
        v.outcome = acc.outcome();
        v.firstAlarmPeriod = acc.firstAlarmPeriod();
        v.firstEscapePeriod = acc.firstEscapePeriod();
        switch (v.outcome) {
          case fault::Outcome::Untestable: ++result.numUntestable; break;
          case fault::Outcome::Detected:   ++result.numDetected; break;
          case fault::Outcome::Unsafe:     ++result.numUnsafe; break;
        }
        for (int l = 0; l < lanes; ++l) {
            const long p = acc.laneFirstAlarm(l);
            if (p < 0)
                continue;
            ++result.latencyHistogram[static_cast<std::size_t>(
                fault::latencyBucket(p))];
            ++result.alarmLaneCount;
            lat_sum += static_cast<std::uint64_t>(p);
        }
        result.periodsSimulated += fsim.periodsSimulated();
        result.periodsSkipped += fsim.periodsSkipped();
    }
    if (result.alarmLaneCount)
        result.meanAlarmPeriod = static_cast<double>(lat_sum) /
                                 static_cast<double>(result.alarmLaneCount);
    result.stats.jobs = 1;
    result.stats.totalFaults = faults.size();
    result.stats.simulatedFaults = faults.size();
    result.stats.patternsApplied = static_cast<std::uint64_t>(opts.symbols) *
                                   static_cast<std::uint64_t>(lanes);
    return result;
}

} // namespace scal::oracle
