#include "sim/seq_fault_sim.hh"

#include <stdexcept>

#include "sim/gate_eval.hh"

namespace scal::sim
{

using namespace netlist;
using detail::kAllOnes;

SeqGoodTrace::SeqGoodTrace(const FlatNetlist &flat, int phi_input,
                           int lane_words, SimdTarget simd)
    : flat_(flat), kernels_(&wideKernels(lane_words, simd)),
      phiInput_(phi_input), laneWords_(lane_words), n_(flat.numGates()),
      no_(flat.numOutputs()), nff_(flat.numFlipFlops())
{
    if (phi_input >= flat.numInputs())
        throw std::invalid_argument("phi input index out of range");
    for (int p = 0; p < 2; ++p) {
        elig_[p].assign(static_cast<std::size_t>(nff_), 0);
        for (int i = 0; i < nff_; ++i) {
            const LatchMode m = flat_.ffLatch(i);
            const bool e = m == LatchMode::EveryPeriod ||
                           (m == LatchMode::PhiRise && p == 0) ||
                           (m == LatchMode::PhiFall && p == 1);
            elig_[p][static_cast<std::size_t>(i)] = e ? 1 : 0;
        }
    }
    reset();
}

void
SeqGoodTrace::reset()
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    periods_ = 0;
    lines_.clear();
    outs_.clear();
    state_.assign(static_cast<std::size_t>(nff_) * W, 0);
    for (int i = 0; i < nff_; ++i) {
        const std::uint64_t v = flat_.ffInit(i) ? kAllOnes : 0;
        for (std::size_t w = 0; w < W; ++w)
            state_[static_cast<std::size_t>(i) * W + w] = v;
    }
}

void
SeqGoodTrace::reservePeriods(long periods)
{
    const auto p = static_cast<std::size_t>(periods);
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    lines_.reserve(p * n_ * W);
    outs_.reserve(p * no_ * W);
    state_.reserve((p + 1) * nff_ * W);
}

void
SeqGoodTrace::stepPeriod(const std::uint64_t *inputs)
{
    const long t = periods_;
    const bool phase = phaseAt(t);
    const std::uint64_t phi_word = phase ? kAllOnes : 0;
    const std::size_t W = static_cast<std::size_t>(laneWords_);

    lines_.resize(static_cast<std::size_t>(t + 1) * n_ * W);
    outs_.resize(static_cast<std::size_t>(t + 1) * no_ * W);
    state_.resize(static_cast<std::size_t>(t + 2) * nff_ * W);

    std::uint64_t *lines =
        lines_.data() + static_cast<std::size_t>(t) * n_ * W;
    const std::uint64_t *st =
        state_.data() + static_cast<std::size_t>(t) * nff_ * W;

    kernels_->evalLines(flat_, inputs, nff_ > 0 ? st : nullptr, phiInput_,
                        phi_word, lines);

    std::uint64_t *outs =
        outs_.data() + static_cast<std::size_t>(t) * no_ * W;
    for (int j = 0; j < no_; ++j) {
        const std::uint64_t *src =
            lines + static_cast<std::size_t>(flat_.output(j)) * W;
        for (std::size_t w = 0; w < W; ++w)
            outs[static_cast<std::size_t>(j) * W + w] = src[w];
    }

    // Latch at the end of the period (φ rises at the end of phase 0,
    // falls at the end of phase 1), as in SeqSimulator.
    std::uint64_t *next =
        state_.data() + static_cast<std::size_t>(t + 1) * nff_ * W;
    const std::uint8_t *elig = latchEligibleTable(phase);
    for (int i = 0; i < nff_; ++i) {
        const std::uint64_t *src =
            elig[i] ? lines + static_cast<std::size_t>(flat_.ffDriver(i)) * W
                    : st + static_cast<std::size_t>(i) * W;
        for (std::size_t w = 0; w < W; ++w)
            next[static_cast<std::size_t>(i) * W + w] = src[w];
    }
    ++periods_;
}

SeqFaultSite
decodeSeqFaultSite(const FlatNetlist &flat, const Fault &fault)
{
    SeqFaultSite s;
    s.driver = fault.site.driver;
    s.consumer = fault.site.consumer;
    s.pin = fault.site.pin;
    s.value = fault.value;

    if (fault.site.isStem()) {
        s.kind = SeqFaultSite::Kind::Stem;
    } else if (s.consumer == FaultSite::kOutputTap) {
        if (s.pin >= 0 && s.pin < flat.numOutputs() &&
            flat.output(s.pin) == s.driver) {
            s.kind = SeqFaultSite::Kind::Tap;
            s.tap = s.pin;
        } else {
            s.kind = SeqFaultSite::Kind::Inert;
        }
    } else if (flat.kind(s.consumer) == GateKind::Dff) {
        // A Dff D-pin branch fault acts at latch time only; the
        // oracle ignores any other pin/driver combination.
        const int ffi = flat.ffIndex(s.consumer);
        if (s.pin == 0 && flat.ffDriver(ffi) == s.driver) {
            s.kind = SeqFaultSite::Kind::DffBranch;
            s.ff = ffi;
        } else {
            s.kind = SeqFaultSite::Kind::Inert;
        }
    } else {
        s.kind = SeqFaultSite::Kind::Branch;
    }
    return s;
}

} // namespace scal::sim
