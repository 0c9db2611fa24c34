#include "sim/seq_batch_sim.hh"

#include <algorithm>
#include <stdexcept>

namespace scal::sim
{

using namespace netlist;
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

namespace
{

inline bool
blocksEqual(const std::uint64_t *a, const std::uint64_t *b, int words)
{
    for (int w = 0; w < words; ++w)
        if (a[w] != b[w])
            return false;
    return true;
}

/** The gate whose recomputation a site's injection perturbs first —
 *  the seed of its replay cone. */
GateId
injectionRoot(const FlatNetlist &flat, const SeqFaultSite &s)
{
    switch (s.kind) {
      case SeqFaultSite::Kind::Stem:
        return s.driver;
      case SeqFaultSite::Kind::Branch:
        return s.consumer;
      case SeqFaultSite::Kind::DffBranch:
        return flat.ffGate(s.ff);
      case SeqFaultSite::Kind::Tap:
        return flat.output(s.tap);
      case SeqFaultSite::Kind::Inert:
        break;
    }
    return kNoGate;
}

} // namespace

std::vector<std::uint64_t>
seqSiteCosts(const FlatNetlist &flat,
             const std::vector<SeqFaultSite> &sites)
{
    const std::vector<std::int32_t> coneSize = fanoutConeSizes(flat);
    std::vector<std::uint64_t> costs(sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const GateId root = injectionRoot(flat, sites[i]);
        costs[i] = 1 + (root == kNoGate
                            ? 0
                            : static_cast<std::uint64_t>(
                                  coneSize[static_cast<std::size_t>(root)]));
    }
    return costs;
}

SeqBatchPlan
planSeqBatches(const FlatNetlist &flat, std::span<const SeqFaultSite> sites,
               int group_words, int batch_words)
{
    SeqBatchPlan plan;
    const int F = group_words > 0 ? batch_words / group_words : 0;
    if (F < 1 || group_words * F != batch_words)
        throw std::invalid_argument(
            "group words must divide the batch width");

    const int n = flat.numGates();

    // Lane-masked injections make any pairing sound (see the header
    // file comment), so packing is pure locality: sites sorted by the
    // topological position of their injection root share most of
    // their union replay cone with their batch-mates.
    std::vector<int> order(sites.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    const auto keyOf = [&](int i) {
        const GateId r =
            injectionRoot(flat, sites[static_cast<std::size_t>(i)]);
        return r == kNoGate ? n : flat.topoPos(r);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return keyOf(a) < keyOf(b); });

    for (std::size_t k = 0; k < order.size(); ++k) {
        if (k % static_cast<std::size_t>(F) == 0)
            plan.batches.emplace_back();
        plan.batches.back().push_back(order[k]);
    }
    return plan;
}

SeqFaultBatchSimulator::SeqFaultBatchSimulator(const SeqGoodTrace &trace,
                                               int group_words)
    : trace_(trace), flat_(trace.flat()), kernels_(&trace.kernels()),
      Wb_(trace.laneWords()), Wg_(group_words),
      F_(group_words > 0 ? trace.laneWords() / group_words : 0)
{
    if (Wg_ < 1 || F_ < 1 || Wg_ * F_ != Wb_)
        throw std::invalid_argument(
            "group words must divide the trace width");
    const std::size_t n = static_cast<std::size_t>(flat_.numGates());
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::size_t nff =
        static_cast<std::size_t>(flat_.numFlipFlops());
    const std::size_t no = static_cast<std::size_t>(flat_.numOutputs());
    sites_.assign(static_cast<std::size_t>(F_), SeqFaultSite{});
    retired_.assign(static_cast<std::size_t>(F_), 1);
    faultyState_.assign(nff * W, 0);
    faulty_.assign(n * W, 0);
    stamp_.assign(n, 0);
    forced_.assign(n, 0);
    injVals_.assign(static_cast<std::size_t>(F_) * W, 0);
    injMasks_.assign(static_cast<std::size_t>(F_) * W, 0);
    binj_.reserve(static_cast<std::size_t>(F_));
    stemVals_.assign(static_cast<std::size_t>(F_) * W, 0);
    stemMasks_.assign(static_cast<std::size_t>(F_) * W, 0);
    sinj_.reserve(static_cast<std::size_t>(F_));
    stemFresh_.reserve(static_cast<std::size_t>(F_));
    patchedFfs_.reserve(static_cast<std::size_t>(F_));
    ptrScratch_.assign(
        static_cast<std::size_t>(std::max(1, flat_.maxArity())),
        nullptr);
    outBuf_.assign(no * W, 0);
    buf0_.assign(no * W, 0);
    alarmBuf_.assign(W, 0);
    wrongBuf_.assign(W, 0);
    seeds_.reserve(nff + static_cast<std::size_t>(2 * F_));
    events_.assign(detail::eventWords(flat_), 0);
    diverged_.reserve(nff);
    divergedNext_.reserve(nff);
}

void
SeqFaultBatchSimulator::bumpEpoch()
{
    if (++epoch_ == 0) { // wraparound: stale stamps would alias
        std::fill(stamp_.begin(), stamp_.end(), 0);
        std::fill(forced_.begin(), forced_.end(), 0);
        epoch_ = 1;
    }
}

bool
SeqFaultBatchSimulator::groupSliceIs(const std::uint64_t *block, int f,
                                     std::uint64_t broadcast) const
{
    const int base = f * Wg_;
    for (int w = 0; w < Wg_; ++w)
        if (block[base + w] != broadcast)
            return false;
    return true;
}

void
SeqFaultBatchSimulator::beginBatch(const SeqFaultSite *sites, int nf,
                                   long ws, long we)
{
    if (nf < 0 || nf > F_)
        throw std::invalid_argument("batch overflows the lane groups");
    nf_ = nf;
    for (int f = 0; f < nf; ++f)
        sites_[static_cast<std::size_t>(f)] = sites[f];
    wstart_ = std::max<long>(0, ws);
    wend_ = we;
    live_ = 0;
    for (int f = 0; f < F_; ++f) {
        // Idle slots (partial batch) and malformed sites never touch
        // the machine: born retired, exactly like the oracle's Inert
        // no-op replay.
        const bool dead =
            f >= nf ||
            sites_[static_cast<std::size_t>(f)].kind ==
                SeqFaultSite::Kind::Inert;
        retired_[static_cast<std::size_t>(f)] = dead ? 1 : 0;
        if (!dead)
            ++live_;
    }
    const std::uint64_t *init = trace_.state(0);
    faultyState_.assign(
        init, init + static_cast<std::size_t>(flat_.numFlipFlops()) *
                         Wb_);
    diverged_.clear();
    t_ = 0;
    pending_ = -1;
    have0_ = false;
    periodsSimulated_ = periodsSkipped_ = 0;
}

bool
SeqFaultBatchSimulator::anyLiveExcited(long t) const
{
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *good = trace_.lines(t);
    const std::uint64_t *good_out = trace_.outputs(t);
    const bool phase = trace_.phaseAt(t);
    for (int f = 0; f < nf_; ++f) {
        if (retired_[static_cast<std::size_t>(f)])
            continue;
        const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
        const std::uint64_t bc = s.value ? kAllOnes : 0;
        switch (s.kind) {
          case SeqFaultSite::Kind::Stem:
          case SeqFaultSite::Kind::Branch:
            if (!groupSliceIs(
                    good + static_cast<std::size_t>(s.driver) * W, f,
                    bc))
                return true;
            break;
          case SeqFaultSite::Kind::DffBranch:
            if (trace_.latchEligible(s.ff, phase) &&
                !groupSliceIs(
                    good + static_cast<std::size_t>(s.driver) * W, f,
                    bc))
                return true;
            break;
          case SeqFaultSite::Kind::Tap:
            if (!groupSliceIs(
                    good_out + static_cast<std::size_t>(s.tap) * W, f,
                    bc))
                return true;
            break;
          case SeqFaultSite::Kind::Inert:
            break;
        }
    }
    return false;
}

std::uint64_t
SeqFaultBatchSimulator::stepBatchPeriod(long t)
{
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *good = trace_.lines(t);
    const std::uint64_t *good_out = trace_.outputs(t);
    const std::uint64_t *good_next = trace_.state(t + 1);
    const bool active = inWindow(t);
    const bool phase = trace_.phaseAt(t);
    const int no = flat_.numOutputs();
    const int nff = flat_.numFlipFlops();

    if (diverged_.empty()) {
        // Converged periods are skipped without maintaining
        // faultyState_; resync it before simulating (the latch loop
        // reads it for ineligible flip-flops).
        const std::uint64_t *st = trace_.state(t);
        std::copy(st, st + static_cast<std::size_t>(nff) * W,
                  faultyState_.begin());
    }

    bumpEpoch();
    seeds_.clear();
    binj_.clear();
    sinj_.clear();
    stemFresh_.clear();

    // (1) Diverged flip-flop seeds first: faulty state overrides the
    // trace line of each diverged Dff for every lane at once.
    for (const std::int32_t ffi : diverged_) {
        const GateId g = flat_.ffGate(ffi);
        forced_[g] = epoch_;
        std::uint64_t *fv =
            faulty_.data() + static_cast<std::size_t>(g) * W;
        const std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(ffi) * W;
        for (std::size_t w = 0; w < W; ++w)
            fv[w] = fs[w];
        stamp_[g] = epoch_;
        seeds_.push_back(g);
    }

    if (active) {
        // (2) Stem injections. Where no batch-mate can see through
        // the pin, the driver keeps the whole-block force of a
        // one-fault replay; a Dff's non-own lanes already carry the
        // exact per-group seeded state (or good values). Any other
        // driver becomes a lane-masked WideStemInj: replay recomputes
        // the gate and re-applies only the fault's own lane group, so
        // batch-mates' divergence propagates through the pinned line.
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::Stem)
                continue;
            const GateId d = s.driver;
            std::uint64_t *fv =
                faulty_.data() + static_cast<std::size_t>(d) * W;
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            // Dffs are state sources replay never recomputes, a
            // fanin-less gate (input, constant) has no combinational
            // evaluation and can receive no batch-mate divergence, and
            // a fault whose lane group is the whole block has no
            // batch-mate: all three keep the forced whole-block pin.
            // Everything else becomes a lane-masked dynamic injection.
            if (flat_.kind(d) == GateKind::Dff || flat_.arity(d) == 0 ||
                Wg_ == Wb_) {
                if (forced_[d] != epoch_) {
                    forced_[d] = epoch_;
                    const std::uint64_t *gd =
                        good + static_cast<std::size_t>(d) * W;
                    for (std::size_t w = 0; w < W; ++w)
                        fv[w] = gd[w];
                    stemFresh_.push_back(d);
                }
            } else {
                int ei = -1;
                for (std::size_t k = 0; k < sinj_.size(); ++k)
                    if (sinj_[k].gate == d)
                        ei = static_cast<int>(k);
                if (ei < 0) {
                    ei = static_cast<int>(sinj_.size());
                    const std::size_t slot =
                        static_cast<std::size_t>(ei) * W;
                    std::fill_n(stemMasks_.data() + slot, W, 0);
                    sinj_.push_back({d, stemVals_.data() + slot,
                                     stemMasks_.data() + slot});
                    const std::uint64_t *gd =
                        good + static_cast<std::size_t>(d) * W;
                    for (std::size_t w = 0; w < W; ++w)
                        fv[w] = gd[w];
                    stemFresh_.push_back(d);
                }
                const std::size_t slot =
                    static_cast<std::size_t>(ei) * W;
                std::uint64_t *sval = stemVals_.data() + slot;
                std::uint64_t *smask = stemMasks_.data() + slot;
                for (int w = f * Wg_; w < (f + 1) * Wg_; ++w) {
                    sval[static_cast<std::size_t>(w)] = bc;
                    smask[static_cast<std::size_t>(w)] = kAllOnes;
                }
            }
            // Seed the pin over the block so consumers (and the
            // latch pass) see it even before/without a replay.
            for (int w = f * Wg_; w < (f + 1) * Wg_; ++w)
                fv[static_cast<std::size_t>(w)] = bc;
        }
        for (const GateId d : stemFresh_) {
            if (!blocksEqual(faulty_.data() +
                                 static_cast<std::size_t>(d) * W,
                             good + static_cast<std::size_t>(d) * W,
                             Wb_))
                stamp_[d] = epoch_;
            seeds_.push_back(d);
        }

        // (3) Merged branch injections, one per (consumer, pin), each
        // masked to its member faults' lane groups: unmasked lanes
        // read the live (possibly diverged) driver block.
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::Branch)
                continue;
            const GateId c = s.consumer;
            if (s.pin < 0 || s.pin >= flat_.arity(c) ||
                flat_.fanins(c)[s.pin] != s.driver)
                continue; // kernel-inert combination, as per fault
            std::uint64_t *val = nullptr, *msk = nullptr;
            for (std::size_t k = 0; k < binj_.size(); ++k) {
                const detail::WideBranchInj &bi = binj_[k];
                if (bi.consumer == c && bi.pin == s.pin) {
                    val = injVals_.data() + k * W;
                    msk = injMasks_.data() + k * W;
                }
            }
            if (!val) {
                const std::size_t slot = binj_.size() * W;
                val = injVals_.data() + slot;
                msk = injMasks_.data() + slot;
                std::fill_n(msk, W, 0);
                binj_.push_back({c, s.driver, s.pin, val, msk});
                seeds_.push_back(c);
            }
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            for (int w = f * Wg_; w < (f + 1) * Wg_; ++w) {
                val[static_cast<std::size_t>(w)] = bc;
                msk[static_cast<std::size_t>(w)] = kAllOnes;
            }
        }
    }

    kernels_->replayEvents(flat_, good, faulty_.data(), stamp_.data(),
                           forced_.data(), epoch_, seeds_.data(),
                           seeds_.size(), binj_.data(), binj_.size(),
                           sinj_.data(), sinj_.size(), events_.data(),
                           ptrScratch_.data());

    // Output assembly; active tap faults override their own lane
    // group only (every other group keeps the assembled value).
    std::uint64_t *out = outBuf_.data();
    kernels_->assembleOutputs(flat_, good, faulty_.data(), stamp_.data(),
                              epoch_, out);
    if (active) {
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::Tap)
                continue;
            std::uint64_t *dst =
                out + static_cast<std::size_t>(s.tap) * W;
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            for (int w = f * Wg_; w < (f + 1) * Wg_; ++w)
                dst[static_cast<std::size_t>(w)] = bc;
        }
    }
    const std::uint64_t diff =
        kernels_->diffOr(out, good_out, static_cast<std::size_t>(no) * W);

    // Latch all flip-flops, then apply Dff D-pin branch faults as
    // per-group patches (the kernel's single branch_ff slot cannot
    // carry several lane-group-local injections).
    divergedNext_.resize(static_cast<std::size_t>(nff));
    const int ndiv = kernels_->latchAndTrack(
        flat_, trace_.latchEligibleTable(phase), good, faulty_.data(),
        stamp_.data(), epoch_, /*branch_ff=*/-1,
        detail::kZeroGroup.data(), faultyState_.data(), good_next,
        divergedNext_.data());
    divergedNext_.resize(static_cast<std::size_t>(ndiv));
    if (active) {
        patchedFfs_.clear();
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::DffBranch ||
                !trace_.latchEligible(s.ff, phase))
                continue;
            std::uint64_t *fs =
                faultyState_.data() + static_cast<std::size_t>(s.ff) * W;
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            for (int w = f * Wg_; w < (f + 1) * Wg_; ++w)
                fs[static_cast<std::size_t>(w)] = bc;
            patchedFfs_.push_back(s.ff);
        }
        if (!patchedFfs_.empty()) {
            std::sort(patchedFfs_.begin(), patchedFfs_.end());
            patchedFfs_.erase(
                std::unique(patchedFfs_.begin(), patchedFfs_.end()),
                patchedFfs_.end());
            for (const int ffi : patchedFfs_) {
                const bool div = !blocksEqual(
                    faultyState_.data() +
                        static_cast<std::size_t>(ffi) * W,
                    good_next + static_cast<std::size_t>(ffi) * W, Wb_);
                const auto it =
                    std::lower_bound(divergedNext_.begin(),
                                     divergedNext_.end(), ffi);
                const bool listed =
                    it != divergedNext_.end() && *it == ffi;
                if (div && !listed)
                    divergedNext_.insert(it, ffi);
                else if (!div && listed)
                    divergedNext_.erase(it);
            }
        }
    }
    diverged_.swap(divergedNext_);
    return diff;
}

void
SeqFaultBatchSimulator::retireGroup(int f, long state_row)
{
    retired_[static_cast<std::size_t>(f)] = 1;
    --live_;
    // Re-sync the group's lanes with the good machine so it never
    // contributes another diff: patch its state words and drop any
    // flip-flop whose full block now matches the trace.
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *st = trace_.state(state_row);
    const int nff = flat_.numFlipFlops();
    for (int i = 0; i < nff; ++i) {
        std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(i) * W;
        const std::uint64_t *gs = st + static_cast<std::size_t>(i) * W;
        for (int w = f * Wg_; w < (f + 1) * Wg_; ++w)
            fs[static_cast<std::size_t>(w)] =
                gs[static_cast<std::size_t>(w)];
    }
    diverged_.erase(
        std::remove_if(
            diverged_.begin(), diverged_.end(),
            [&](std::int32_t ffi) {
                return blocksEqual(
                    faultyState_.data() +
                        static_cast<std::size_t>(ffi) * W,
                    st + static_cast<std::size_t>(ffi) * W, Wb_);
            }),
        diverged_.end());
}

bool
SeqFaultBatchSimulator::flushSymbol(long s, const std::uint64_t *p1row,
                                    const FoldSpec &spec,
                                    const SymbolSink &sink)
{
    const std::uint64_t *p0 =
        have0_ ? buf0_.data() : trace_.outputs(2 * s);
    const std::uint64_t *p1 = p1row ? p1row : trace_.outputs(2 * s + 1);
    kernels_->seqAlarmWrong(p0, p1, trace_.outputs(2 * s), spec.alt,
                            spec.nalt, spec.pairs, spec.npairs,
                            spec.data, spec.ndata, alarmBuf_.data(),
                            wrongBuf_.data());
    have0_ = false;
    pending_ = -1;
    for (int f = 0; f < nf_; ++f) {
        if (retired_[static_cast<std::size_t>(f)])
            continue;
        if (!sink(f, s, alarmBuf_.data() + f * Wg_,
                  wrongBuf_.data() + f * Wg_))
            retireGroup(f, t_);
    }
    return live_ > 0;
}

void
SeqFaultBatchSimulator::fold(long t, const FoldSpec &spec,
                             const SymbolSink &sink)
{
    const long s = t / 2;
    if (pending_ >= 0 && pending_ != s)
        flushSymbol(pending_, nullptr, spec, sink);
    pending_ = s;
    if (t & 1) {
        flushSymbol(s, outBuf_.data(), spec, sink);
    } else {
        std::copy(outBuf_.begin(), outBuf_.end(), buf0_.begin());
        have0_ = true;
    }
}

void
SeqFaultBatchSimulator::run(const FoldSpec &spec, const SymbolSink &sink)
{
    const long total = trace_.numPeriods();
    while (t_ < total && live_ > 0) {
        if (diverged_.empty() && !inWindow(t_)) {
            if (t_ >= wend_)
                break; // converged for good
            // Quiescent until the window opens: fast-forward.
            periodsSkipped_ += std::min(wstart_, total) - t_;
            t_ = wstart_;
            continue;
        }
        if (diverged_.empty() && !anyLiveExcited(t_)) {
            // No group can deviate this period: one slice compare per
            // live site stands in for the whole replay.
            ++periodsSimulated_;
            ++t_;
            continue;
        }
        const std::uint64_t diff = stepBatchPeriod(t_);
        ++periodsSimulated_;
        ++t_;
        if (diff)
            fold(t_ - 1, spec, sink);
    }
    if (pending_ >= 0)
        flushSymbol(pending_, nullptr, spec, sink);
}

} // namespace scal::sim
