#include "oracle/seq_fault_simulator.hh"

namespace scal::oracle
{

using namespace netlist;
using sim::SeqFaultSite;

SeqFaultSimulator::SeqFaultSimulator(const sim::SeqGoodTrace &trace)
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
    events_.assign(sim::detail::eventWords(flat_), 0);
    ptrScratch_.assign(
        static_cast<std::size_t>(std::max(1, flat_.maxArity())), nullptr);
    outBuf_.assign(static_cast<std::size_t>(flat_.numOutputs()) * W, 0);
    diverged_.reserve(nff);
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

void
SeqFaultSimulator::beginFault(const Fault &fault, long ws, long we)
{
    wstart_ = std::max<long>(0, ws);
    wend_ = we;
    faultGroup_ = fault.value ? sim::detail::kOnesGroup.data()
                              : sim::detail::kZeroGroup.data();
    site_ = sim::decodeSeqFaultSite(flat_, fault);
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
    const bool active = inWindow(t);
    const bool phase = trace_.phaseAt(t);
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
        // simulating (the latch reads it for ineligible flip-flops).
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

    // Output assembly (tap override last, as in SeqSimulator).
    std::uint64_t *out = outBuf_.data();
    kernels_->assembleOutputs(flat_, good, faulty_.data(), stamp_.data(),
                              epoch_, out);
    if (active && site_.kind == SeqFaultSite::Kind::Tap) {
        std::uint64_t *dst = out + static_cast<std::size_t>(site_.tap) * W;
        for (std::size_t w = 0; w < W; ++w)
            dst[w] = faultGroup_[w];
    }
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < outBuf_.size(); ++i)
        diff |= out[i] ^ good_out[i];

    latchAndTrack(t, phase, active);
    return diff;
}

void
SeqFaultSimulator::latchAndTrack(long t, bool phase, bool active)
{
    // Every eligible flip-flop captures its D driver (faulty where the
    // replay stamped it, the stuck value for a D-pin branch fault);
    // every flip-flop is then compared with the trace's next state.
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = trace_.lines(t);
    const std::uint64_t *good_next = trace_.state(t + 1);
    const int branch_ff =
        (active && site_.kind == SeqFaultSite::Kind::DffBranch) ? site_.ff
                                                                : -1;
    const std::uint8_t *elig = trace_.latchEligibleTable(phase);
    diverged_.clear();
    for (int i = 0; i < flat_.numFlipFlops(); ++i) {
        std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(i) * W;
        if (elig[i]) {
            const GateId d = flat_.ffDriver(i);
            const std::uint64_t *src =
                i == branch_ff ? faultGroup_
                               : (stamp_[d] == epoch_ ? faulty_.data()
                                                      : good) +
                                     static_cast<std::size_t>(d) * W;
            for (std::size_t w = 0; w < W; ++w)
                fs[w] = src[w];
        }
        const std::uint64_t *gn =
            good_next + static_cast<std::size_t>(i) * W;
        std::uint64_t differ = 0;
        for (std::size_t w = 0; w < W; ++w)
            differ |= fs[w] ^ gn[w];
        if (differ)
            diverged_.push_back(i);
    }
}

} // namespace scal::oracle
