#include "sim/fault_sim.hh"

#include <algorithm>
#include <stdexcept>

namespace scal::sim
{

using namespace netlist;

FaultSimulator::FaultSimulator(const FlatNetlist &flat, int lane_words,
                               SimdTarget simd)
    : flat_(flat), kernels_(&wideKernels(lane_words, simd)),
      laneWords_(lane_words)
{
    const std::size_t n = static_cast<std::size_t>(flat_.numGates());
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::size_t no = static_cast<std::size_t>(flat_.numOutputs());
    for (int s = 0; s < 2; ++s) {
        goodLines_[s].assign(n * W, 0);
        goodOut_[s].assign(no * W, 0);
        outBuf_[s].assign(no * W, 0);
    }
    faulty_.assign(n * W, 0);
    stamp_.assign(n, 0);
    forced_.assign(n, 0);
    seeds_.reserve(n);
    events_.assign(detail::eventWords(flat_), 0);
    ptrScratch_.assign(
        static_cast<std::size_t>(std::max(1, flat_.maxArity())), nullptr);
    inbarScratch_.assign(static_cast<std::size_t>(flat_.numInputs()) * W, 0);
}

void
FaultSimulator::bumpEpoch()
{
    if (++epoch_ == 0) { // wraparound: stale stamps would alias
        std::fill(stamp_.begin(), stamp_.end(), 0);
        std::fill(forced_.begin(), forced_.end(), 0);
        epoch_ = 1;
    }
}

void
FaultSimulator::evalGood(int phase, const std::uint64_t *inputs,
                         const std::uint64_t *dff_state)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    std::uint64_t *lines = goodLines_[phase].data();
    kernels_->evalLines(flat_, inputs, dff_state, /*phi_input=*/-1,
                        /*phi_word=*/0, lines);
    for (int j = 0; j < flat_.numOutputs(); ++j) {
        const std::uint64_t *src =
            lines + static_cast<std::size_t>(flat_.output(j)) * W;
        std::uint64_t *dst =
            goodOut_[phase].data() + static_cast<std::size_t>(j) * W;
        for (std::size_t w = 0; w < W; ++w)
            dst[w] = src[w];
    }
}

void
FaultSimulator::setBaseline(const std::vector<std::uint64_t> &inputs,
                            const std::vector<std::uint64_t> *dff_state)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    if (inputs.size() != static_cast<std::size_t>(flat_.numInputs()) * W)
        throw std::invalid_argument("input vector size mismatch");
    if (flat_.numFlipFlops() > 0 &&
        (!dff_state ||
         dff_state->size() !=
             static_cast<std::size_t>(flat_.numFlipFlops()) * W)) {
        throw std::invalid_argument("missing flip-flop state");
    }
    evalGood(0, inputs.data(), dff_state ? dff_state->data() : nullptr);
}

void
FaultSimulator::setAlternatingBlock(const std::vector<std::uint64_t> &inputs)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    if (inputs.size() != static_cast<std::size_t>(flat_.numInputs()) * W)
        throw std::invalid_argument("input vector size mismatch");
    if (flat_.numFlipFlops() > 0)
        throw std::invalid_argument(
            "alternating block needs a combinational netlist");
    evalGood(0, inputs.data(), nullptr);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        inbarScratch_[i] = ~inputs[i];
    evalGood(1, inbarScratch_.data(), nullptr);
}

void
FaultSimulator::simulate(int phase, const Fault *faults,
                         std::size_t num_faults)
{
    bumpEpoch();
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = goodLines_[phase].data();

    // Sort injections: stems force their line now, branch faults are
    // applied while their consuming gate recomputes, output taps at
    // output assembly. Forced lines and branch consumers seed the
    // replay. Stuck-at values are broadcast blocks, so the injections
    // reference the shared constant groups.
    branchInj_.clear();
    tapInj_.clear();
    seeds_.clear();
    for (std::size_t k = 0; k < num_faults; ++k) {
        const Fault &f = faults[k];
        const std::uint64_t *vg = f.value ? detail::kOnesGroup.data()
                                          : detail::kZeroGroup.data();
        if (f.site.isStem()) {
            const GateId g = f.site.driver;
            forced_[g] = epoch_;
            const std::uint64_t *gd = good + static_cast<std::size_t>(g) * W;
            bool diff = false;
            for (std::size_t w = 0; w < W; ++w)
                diff |= gd[w] != vg[w];
            if (diff) {
                std::uint64_t *fv =
                    faulty_.data() + static_cast<std::size_t>(g) * W;
                for (std::size_t w = 0; w < W; ++w)
                    fv[w] = vg[w];
                stamp_[g] = epoch_;
            }
            seeds_.push_back(g);
        } else if (f.site.consumer == FaultSite::kOutputTap) {
            tapInj_.push_back({f.site.pin, f.site.driver, vg});
        } else if (flat_.kind(f.site.consumer) != GateKind::Dff) {
            // A Dff's D-pin branch fault has no combinational effect
            // this period (the Dff output comes from the state
            // vector), matching the reference evaluators.
            branchInj_.push_back(
                {f.site.consumer, f.site.driver, f.site.pin, vg});
            seeds_.push_back(f.site.consumer);
        }
    }
    kernels_->replayEvents(flat_, good, faulty_.data(), stamp_.data(),
                           forced_.data(), epoch_, nullptr, seeds_.data(),
                           seeds_.size(), branchInj_.data(),
                           branchInj_.size(), nullptr, 0, events_.data(),
                           ptrScratch_.data());

    // Output assembly (with output-tap overrides, reference order).
    std::uint64_t *out = outBuf_[phase].data();
    kernels_->assembleOutputs(flat_, good, faulty_.data(), stamp_.data(),
                              epoch_, out);
    for (const TapInjection &t : tapInj_) {
        if (t.outputIdx >= 0 && t.outputIdx < flat_.numOutputs() &&
            flat_.output(t.outputIdx) == t.driver) {
            std::uint64_t *dst =
                out + static_cast<std::size_t>(t.outputIdx) * W;
            for (std::size_t w = 0; w < W; ++w)
                dst[w] = t.value[w];
        }
    }
}

void
FaultSimulator::replayFlips(const GateId *lines, std::size_t num_lines,
                            int phase)
{
    bumpEpoch();
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = goodLines_[phase].data();
    for (std::size_t k = 0; k < num_lines; ++k) {
        const GateId g = lines[k];
        forced_[g] = epoch_;
        const std::uint64_t *gd = good + static_cast<std::size_t>(g) * W;
        std::uint64_t *fv = faulty_.data() + static_cast<std::size_t>(g) * W;
        for (std::size_t w = 0; w < W; ++w)
            fv[w] = ~gd[w];
        stamp_[g] = epoch_;
    }
    kernels_->replayEvents(flat_, good, faulty_.data(), stamp_.data(),
                           forced_.data(), epoch_, nullptr, lines,
                           num_lines, nullptr, 0, nullptr, 0, events_.data(),
                           ptrScratch_.data());
}

WideMasks
FaultSimulator::classifyAlternatingWide(const Fault *faults,
                                        std::size_t num_faults)
{
    simulate(0, faults, num_faults);
    simulate(1, faults, num_faults);
    WideMasks m;
    kernels_->foldAlternating(flat_.numOutputs(), outBuf_[0].data(),
                              outBuf_[1].data(), goodOut_[0].data(), &m);
    return m;
}

} // namespace scal::sim
