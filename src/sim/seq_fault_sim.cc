#include "sim/seq_fault_sim.hh"

#include <algorithm>
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

SeqFaultSimulator::SeqFaultSimulator(const SeqGoodTrace &trace)
    : trace_(trace), flat_(trace.flat()), kernels_(&trace.kernels()),
      laneWords_(trace.laneWords())
{
    const std::size_t n = static_cast<std::size_t>(flat_.numGates());
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::size_t nff = static_cast<std::size_t>(flat_.numFlipFlops());
    faultyState_.assign(nff * W, 0);
    faulty_.assign(n * W, 0);
    stamp_.assign(n, 0);
    forced_.assign(n, 0);
    seeds_.reserve(nff + 1);
    events_.assign(detail::eventWords(flat_), 0);
    ptrScratch_.assign(
        static_cast<std::size_t>(std::max(1, flat_.maxArity())), nullptr);
    outBuf_.assign(static_cast<std::size_t>(flat_.numOutputs()) * W, 0);
    diverged_.reserve(nff);
    divergedNext_.reserve(nff);
}

void
SeqFaultSimulator::bumpEpoch()
{
    if (++epoch_ == 0) { // wraparound: stale stamps would alias
        std::fill(stamp_.begin(), stamp_.end(), 0);
        std::fill(forced_.begin(), forced_.end(), 0);
        epoch_ = 1;
    }
}

bool
SeqFaultSimulator::blockIsFaultValue(const std::uint64_t *block) const
{
    for (int w = 0; w < laneWords_; ++w) {
        if (block[w] != faultGroup_[w])
            return false;
    }
    return true;
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

void
SeqFaultSimulator::beginFault(const Fault &fault, long ws, long we)
{
    wstart_ = std::max<long>(0, ws);
    wend_ = we;
    faultGroup_ = fault.value ? detail::kOnesGroup.data()
                              : detail::kZeroGroup.data();
    site_ = decodeSeqFaultSite(flat_, fault);
    if (site_.kind == SeqFaultSite::Kind::Inert)
        wstart_ = wend_ = 0; // never active: the run syncs immediately

    branchInj_ = {site_.consumer, site_.driver, site_.pin, faultGroup_};

    const std::uint64_t *init = trace_.state(0);
    faultyState_.assign(init,
                        init + static_cast<std::size_t>(
                                   flat_.numFlipFlops()) *
                                   laneWords_);
    diverged_.clear();
    periodsSimulated_ = periodsSkipped_ = 0;
}

std::uint64_t
SeqFaultSimulator::stepFaultPeriod(long t)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = trace_.lines(t);
    const std::uint64_t *good_out = trace_.outputs(t);
    const std::uint64_t *good_next = trace_.state(t + 1);
    const bool active = inWindow(t);
    const bool phase = trace_.phaseAt(t);
    const int no = flat_.numOutputs();
    const int nff = flat_.numFlipFlops();

    // Fast path: state fully converged and the site unexcited this
    // period — nothing can change, one block compare and out.
    if (diverged_.empty()) {
        switch (site_.kind) {
          case SeqFaultSite::Kind::Stem:
          case SeqFaultSite::Kind::Branch:
            if (blockIsFaultValue(good +
                                  static_cast<std::size_t>(site_.driver) * W))
                return 0;
            break;
          case SeqFaultSite::Kind::DffBranch:
            if (!trace_.latchEligible(site_.ff, phase) ||
                blockIsFaultValue(good +
                                  static_cast<std::size_t>(site_.driver) * W))
                return 0;
            break;
          case SeqFaultSite::Kind::Tap:
            if (blockIsFaultValue(good_out +
                                  static_cast<std::size_t>(site_.tap) * W))
                return 0;
            break;
          case SeqFaultSite::Kind::Inert:
            return 0;
        }
        // Converged periods are skipped without maintaining
        // faultyState_, so resync it with the good machine before
        // simulating (the latch loop reads it for ineligible
        // flip-flops).
        const std::uint64_t *st = trace_.state(t);
        std::copy(st, st + static_cast<std::size_t>(nff) * W,
                  faultyState_.begin());
    }

    bumpEpoch();
    bool have_branch = false;
    seeds_.clear();

    if (active) {
        switch (site_.kind) {
          case SeqFaultSite::Kind::Stem: {
            forced_[site_.driver] = epoch_;
            const std::uint64_t *gd =
                good + static_cast<std::size_t>(site_.driver) * W;
            if (!blockIsFaultValue(gd)) {
                std::uint64_t *fv =
                    faulty_.data() +
                    static_cast<std::size_t>(site_.driver) * W;
                for (std::size_t w = 0; w < W; ++w)
                    fv[w] = faultGroup_[w];
                stamp_[site_.driver] = epoch_;
            }
            seeds_.push_back(site_.driver);
            break;
          }
          case SeqFaultSite::Kind::Branch:
            seeds_.push_back(site_.consumer);
            have_branch = true;
            break;
          default: // DffBranch/Tap act outside the combinational pass
            break;
        }
    }
    for (const std::int32_t ffi : diverged_) {
        const GateId g = flat_.ffGate(ffi);
        if (forced_[g] == epoch_)
            continue; // a stem fault on this Dff wins over its state
        forced_[g] = epoch_;
        std::uint64_t *fv = faulty_.data() + static_cast<std::size_t>(g) * W;
        const std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(ffi) * W;
        for (std::size_t w = 0; w < W; ++w)
            fv[w] = fs[w];
        stamp_[g] = epoch_;
        seeds_.push_back(g);
    }
    kernels_->replayEvents(flat_, good, faulty_.data(), stamp_.data(),
                           forced_.data(), epoch_, nullptr, seeds_.data(),
                           seeds_.size(), &branchInj_, have_branch ? 1 : 0,
                           nullptr, 0, events_.data(), ptrScratch_.data());

    // Output assembly (tap override last, as in the oracle).
    std::uint64_t *out = outBuf_.data();
    kernels_->assembleOutputs(flat_, good, faulty_.data(), stamp_.data(),
                              epoch_, out);
    if (active && site_.kind == SeqFaultSite::Kind::Tap) {
        std::uint64_t *dst = out + static_cast<std::size_t>(site_.tap) * W;
        for (std::size_t w = 0; w < W; ++w)
            dst[w] = faultGroup_[w];
    }
    const std::uint64_t diff =
        kernels_->diffOr(out, good_out, static_cast<std::size_t>(no) * W);

    // Latch all flip-flops and retrack divergence against the trace.
    divergedNext_.resize(static_cast<std::size_t>(nff));
    const int branch_ff =
        (active && site_.kind == SeqFaultSite::Kind::DffBranch) ? site_.ff
                                                                : -1;
    const int ndiv = kernels_->latchAndTrack(
        flat_, trace_.latchEligibleTable(phase), good, faulty_.data(),
        stamp_.data(), epoch_, branch_ff, faultGroup_, faultyState_.data(),
        good_next, divergedNext_.data());
    divergedNext_.resize(static_cast<std::size_t>(ndiv));
    diverged_.swap(divergedNext_);
    return diff;
}

} // namespace scal::sim
