#include "sim/seq_batch_sim.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/gate_eval.hh"

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

/** True when pin @p k of @p c is in @p pins. */
bool
pinListed(const std::vector<std::pair<GateId, int>> &pins, GateId c, int k)
{
    return std::find(pins.begin(), pins.end(), std::make_pair(c, k)) !=
           pins.end();
}

} // namespace

bool
SeqDeadLines::taints(const SeqFaultSite &site) const
{
    return (site.kind == SeqFaultSite::Kind::Stem ||
            site.kind == SeqFaultSite::Kind::Branch) &&
           clock[static_cast<std::size_t>(site.driver)] != 0;
}

SeqDeadLines
seqDeadLines(const SeqGoodTrace &trace, std::span<const SeqFaultSite> faults)
{
    const FlatNetlist &flat = trace.flat();
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    const std::vector<GateId> &topo = flat.topoOrder();
    SeqDeadLines d;
    d.clock.assign(n, 0);

    // Clock values, bit p holding the value at φ = p: evalGateWord
    // works lane-wise, so lanes 0 and 1 are the two phases.
    std::vector<std::uint8_t> val(n, 0);
    std::vector<std::uint64_t> in(
        static_cast<std::size_t>(std::max(1, flat.maxArity())));
    for (const GateId g : topo) {
        const GateKind kind = flat.kind(g);
        const int a = flat.arity(g);
        if (kind == GateKind::Input) {
            if (flat.inputIndex(g) == trace.phiInput()) {
                d.clock[g] = 1;
                val[g] = 2;
            }
        } else if (kind == GateKind::Const0 || kind == GateKind::Const1) {
            d.clock[g] = 1;
            val[g] = kind == GateKind::Const1 ? 3 : 0;
        } else if (kind != GateKind::Dff && a > 0) {
            const GateId *fi = flat.fanins(g);
            bool all = true;
            for (int k = 0; k < a && all; ++k) {
                all = d.clock[fi[k]] != 0;
                in[static_cast<std::size_t>(k)] = val[fi[k]];
            }
            if (all) {
                d.clock[g] = 1;
                val[g] = static_cast<std::uint8_t>(
                    detail::evalGateWord(kind, in.data(), a) & 3);
            }
        }
    }

    // What the faults can make faulty: clock lines (with every clock
    // line they feed) and consumer pins of clock drivers.
    std::vector<std::uint8_t> tainted(n, 0);
    std::vector<std::pair<GateId, int>> pins;
    for (const SeqFaultSite &s : faults) {
        if (!d.taints(s))
            continue;
        if (s.kind == SeqFaultSite::Kind::Stem) {
            tainted[s.driver] = 1;
        } else {
            pins.emplace_back(s.consumer, s.pin);
            if (d.clock[s.consumer])
                tainted[s.consumer] = 1;
        }
    }
    for (const GateId g : topo) {
        if (!d.clock[g] || tainted[g])
            continue;
        for (int k = 0; k < flat.arity(g); ++k)
            tainted[g] |= tainted[flat.fanins(g)[k]];
    }

    // Live lines, pushed from each live gate to its fan-ins unless a
    // clean clock fan-in holds the gate's controlling value.
    for (int p = 0; p < 2; ++p) {
        std::vector<std::uint8_t> &dead = d.dead[static_cast<std::size_t>(p)];
        dead.assign(n, 1);
        for (GateId g = 0; g < static_cast<GateId>(n); ++g)
            if (flat.numTaps(g) > 0)
                dead[g] = 0;
        const std::uint8_t *elig = trace.latchEligibleTable(p != 0);
        for (int i = 0; i < flat.numFlipFlops(); ++i)
            if (elig[i])
                dead[flat.ffDriver(i)] = 0;
        for (std::size_t i = topo.size(); i-- > 0;) {
            const GateId c = topo[i];
            const GateKind kind = flat.kind(c);
            if (dead[c] || kind == GateKind::Dff)
                continue;
            const int a = flat.arity(c);
            const GateId *fi = flat.fanins(c);
            const bool andLike =
                kind == GateKind::And || kind == GateKind::Nand;
            const bool orLike = kind == GateKind::Or || kind == GateKind::Nor;
            bool blocked = false;
            for (int k = 0; k < a && (andLike || orLike) && !blocked; ++k) {
                const GateId x = fi[k];
                blocked = d.clock[x] && !tainted[x] &&
                          ((val[x] >> p) & 1) == (orLike ? 1 : 0) &&
                          !pinListed(pins, c, k);
            }
            if (blocked)
                continue;
            for (int k = 0; k < a; ++k)
                dead[fi[k]] = 0;
        }
    }
    return d;
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
    // their union replay cone with their batch-mates. Ties keep the
    // site order.
    std::vector<std::pair<int, int>> keyed(sites.size());
    for (std::size_t i = 0; i < keyed.size(); ++i) {
        const GateId r = injectionRoot(flat, sites[i]);
        keyed[i] = {r == kNoGate ? n : flat.topoPos(r),
                    static_cast<int>(i)};
    }
    std::sort(keyed.begin(), keyed.end());

    for (std::size_t k = 0; k < keyed.size(); ++k) {
        if (k % static_cast<std::size_t>(F) == 0)
            plan.batches.emplace_back();
        plan.batches.back().push_back(keyed[k].second);
    }
    return plan;
}

SeqFaultBatchSimulator::SeqFaultBatchSimulator(const SeqGoodTrace &trace,
                                               int group_words,
                                               const SeqDeadLines &dead)
    : trace_(trace), flat_(trace.flat()), kernels_(&trace.kernels()),
      Wb_(trace.laneWords()), Wg_(group_words),
      F_(group_words > 0 ? trace.laneWords() / group_words : 0),
      sharedDead_(&dead), dead_(&dead)
{
    if (Wg_ < 1 || F_ < 1 || Wg_ * F_ != Wb_)
        throw std::invalid_argument(
            "group words must divide the trace width");
    const std::size_t n = static_cast<std::size_t>(flat_.numGates());
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::size_t F = static_cast<std::size_t>(F_);
    const std::size_t nff =
        static_cast<std::size_t>(flat_.numFlipFlops());
    const std::size_t no = static_cast<std::size_t>(flat_.numOutputs());
    sites_.assign(F, SeqFaultSite{});
    retired_.assign(F, 1);
    faultyState_.assign(nff * W, 0);
    faulty_.assign(n * W, 0);
    stamp_.assign(n, 0);
    forced_.assign(n, 0);
    injVals_.assign(F * W, 0);
    injMasks_.assign(F * W, 0);
    binj_.reserve(F);
    stemVals_.assign(F * W, 0);
    stemMasks_.assign(F * W, 0);
    stemPins_.reserve(F);
    sinj_.reserve(F);
    taps_.reserve(F);
    dffPins_.reserve(F);
    patchedFfs_.reserve(F);
    ptrScratch_.assign(
        static_cast<std::size_t>(std::max(1, flat_.maxArity())),
        nullptr);
    outBuf_.assign(no * W, 0);
    buf0_.assign(no * W, 0);
    alarmBuf_.assign(W, 0);
    wrongBuf_.assign(W, 0);
    seeds_.reserve(nff + 2 * F);
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
    // The shared masks hold only while every clock line keeps its
    // netlist value; a batch with a member that can break that builds
    // its own pair.
    const std::span<const SeqFaultSite> members(sites_.data(),
                                                static_cast<std::size_t>(nf));
    dead_ = sharedDead_;
    if (std::any_of(members.begin(), members.end(),
                    [this](const SeqFaultSite &s) {
                        return sharedDead_->taints(s);
                    })) {
        ownDead_ = seqDeadLines(trace_, members);
        dead_ = &ownDead_;
    }
    // The faulty machine powers on in the trace's state: nothing has
    // diverged, so no faultyState_ row is valid yet.
    diverged_.clear();
    t_ = 0;
    pending_ = -1;
    have0_ = false;
    periodsSimulated_ = periodsSkipped_ = 0;
    rebuildInjections();
}

void
SeqFaultBatchSimulator::rebuildInjections()
{
    const std::size_t W = static_cast<std::size_t>(Wb_);
    stemPins_.clear();
    sinj_.clear();
    binj_.clear();
    taps_.clear();
    dffPins_.clear();
    const auto pinGroup = [&](std::uint64_t *val, std::uint64_t *msk,
                              int f, bool value) {
        for (int w = f * Wg_; w < (f + 1) * Wg_; ++w) {
            val[static_cast<std::size_t>(w)] = value ? kAllOnes : 0;
            msk[static_cast<std::size_t>(w)] = kAllOnes;
        }
    };
    for (int f = 0; f < nf_; ++f) {
        if (retired_[static_cast<std::size_t>(f)])
            continue;
        const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
        switch (s.kind) {
          case SeqFaultSite::Kind::Stem: {
            const GateId d = s.driver;
            auto it = std::find_if(
                stemPins_.begin(), stemPins_.end(),
                [d](const StemPin &p) { return p.gate == d; });
            if (it == stemPins_.end()) {
                const std::size_t slot = stemPins_.size() * W;
                std::fill_n(stemMasks_.data() + slot, W, 0);
                // Dffs are state sources replay never recomputes, a
                // fanin-less gate (input, constant) has no
                // combinational evaluation and can receive no
                // batch-mate divergence, and a fault whose lane group
                // is the whole block has no batch-mate: all three
                // keep the forced whole-block pin. Every other driver
                // becomes a lane-masked dynamic injection: replay
                // recomputes the gate and re-applies only the pinned
                // lane groups, so batch-mates' divergence propagates
                // through the pinned line.
                const bool whole = flat_.kind(d) == GateKind::Dff ||
                                   flat_.arity(d) == 0 || Wg_ == Wb_;
                stemPins_.push_back({d, whole, slot});
                if (!whole)
                    sinj_.push_back({d, stemVals_.data() + slot,
                                     stemMasks_.data() + slot});
                it = stemPins_.end() - 1;
            }
            pinGroup(stemVals_.data() + it->slot,
                     stemMasks_.data() + it->slot, f, s.value);
            break;
          }
          case SeqFaultSite::Kind::Branch: {
            // Merged branch injections, one per (consumer, pin), each
            // masked to its member faults' lane groups: unmasked
            // lanes read the live (possibly diverged) driver block.
            const GateId c = s.consumer;
            if (s.pin < 0 || s.pin >= flat_.arity(c) ||
                flat_.fanins(c)[s.pin] != s.driver)
                break; // kernel-inert combination, as per fault
            const auto it = std::find_if(
                binj_.begin(), binj_.end(),
                [&](const detail::WideBranchInj &bi) {
                    return bi.consumer == c && bi.pin == s.pin;
                });
            const std::size_t slot =
                static_cast<std::size_t>(it - binj_.begin()) * W;
            if (it == binj_.end()) {
                std::fill_n(injMasks_.data() + slot, W, 0);
                binj_.push_back({c, s.driver, s.pin,
                                 injVals_.data() + slot,
                                 injMasks_.data() + slot});
            }
            pinGroup(injVals_.data() + slot, injMasks_.data() + slot, f,
                     s.value);
            break;
          }
          case SeqFaultSite::Kind::DffBranch:
            dffPins_.push_back({s.ff, f, s.value});
            break;
          case SeqFaultSite::Kind::Tap:
            taps_.push_back({s.tap, f, s.value});
            break;
          case SeqFaultSite::Kind::Inert:
            break;
        }
    }
    // By flip-flop or output: the pins of one line are adjacent.
    const auto byIndex = [](const GroupPin &a, const GroupPin &b) {
        return a.index < b.index;
    };
    std::sort(taps_.begin(), taps_.end(), byIndex);
    std::sort(dffPins_.begin(), dffPins_.end(), byIndex);
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

void
SeqFaultBatchSimulator::setGroup(std::uint64_t *block,
                                 const GroupPin &p) const
{
    const std::uint64_t bc = p.value ? kAllOnes : 0;
    for (int w = p.group * Wg_; w < (p.group + 1) * Wg_; ++w)
        block[static_cast<std::size_t>(w)] = bc;
}

std::uint64_t
SeqFaultBatchSimulator::stepBatchPeriod(long t)
{
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *good = trace_.lines(t);
    const std::uint64_t *good_out = trace_.outputs(t);
    const std::uint64_t *good_next = trace_.state(t + 1);
    const bool active = inWindow(t);
    const std::uint8_t *elig =
        trace_.latchEligibleTable(trace_.phaseAt(t));
    const int no = flat_.numOutputs();
    const int nff = flat_.numFlipFlops();

    bumpEpoch();
    seeds_.clear();

    // (1) Diverged flip-flop seeds first: faulty state overrides the
    // trace line of each diverged Dff for every lane at once.
    for (const std::int32_t ffi : diverged_) {
        const GateId g = flat_.ffGate(ffi);
        forced_[g] = epoch_;
        std::copy_n(faultyState_.data() + static_cast<std::size_t>(ffi) * W,
                    W, faulty_.data() + static_cast<std::size_t>(g) * W);
        stamp_[g] = epoch_;
        seeds_.push_back(g);
    }

    if (active) {
        // (2) Stem pins, seeded over the block so consumers (and the
        // latch) see them even before or without a replay. A whole-
        // block pin forces its driver; a diverged Dff seeded above
        // keeps its faulty state under the pinned groups. Replay
        // recomputes a lane-masked driver and re-applies its pins.
        for (const StemPin &p : stemPins_) {
            const GateId d = p.gate;
            const std::size_t at = static_cast<std::size_t>(d) * W;
            std::uint64_t *fv = faulty_.data() + at;
            const std::uint64_t *val = stemVals_.data() + p.slot;
            const std::uint64_t *msk = stemMasks_.data() + p.slot;
            const bool fresh = !p.whole || forced_[d] != epoch_;
            const std::uint64_t *base = fresh ? good + at : fv;
            for (std::size_t w = 0; w < W; ++w)
                fv[w] = (base[w] & ~msk[w]) | (val[w] & msk[w]);
            if (p.whole)
                forced_[d] = epoch_;
            if (fresh) {
                if (!blocksEqual(fv, good + at, Wb_))
                    stamp_[d] = epoch_;
                seeds_.push_back(d);
            }
        }
        // (3) Branch injections seed their consumers.
        for (const detail::WideBranchInj &bi : binj_)
            seeds_.push_back(bi.consumer);
    }

    kernels_->replayEvents(flat_, good, faulty_.data(), stamp_.data(),
                           forced_.data(), epoch_,
                           dead_->mask(trace_.phaseAt(t)), seeds_.data(),
                           seeds_.size(), binj_.data(),
                           active ? binj_.size() : 0, sinj_.data(),
                           active ? sinj_.size() : 0, events_.data(),
                           ptrScratch_.data());

    // (4) Output diff. An output gate the replay did not stamp reads
    // the trace, so only stamped gates and active taps can differ; a
    // tap overrides its own lane group of the output only.
    const bool tapping = active && !taps_.empty();
    const auto tapped = [&](int j) {
        return tapping &&
               std::any_of(taps_.begin(), taps_.end(),
                           [j](const GroupPin &p) { return p.index == j; });
    };
    std::uint64_t diff = 0;
    for (int j = 0; j < no; ++j) {
        const GateId g = flat_.output(j);
        if (stamp_[g] != epoch_ || tapped(j))
            continue;
        const std::uint64_t *fv =
            faulty_.data() + static_cast<std::size_t>(g) * W;
        const std::uint64_t *gv =
            good_out + static_cast<std::size_t>(j) * W;
        for (std::size_t w = 0; w < W; ++w)
            diff |= fv[w] ^ gv[w];
    }
    if (tapping) {
        std::uint64_t row[kMaxLaneWords];
        for (std::size_t k = 0; k < taps_.size();) {
            const int j = taps_[k].index;
            const GateId g = flat_.output(j);
            const std::size_t at = static_cast<std::size_t>(g) * W;
            std::copy_n((stamp_[g] == epoch_ ? faulty_.data() : good) + at,
                        W, row);
            for (; k < taps_.size() && taps_[k].index == j; ++k)
                setGroup(row, taps_[k]);
            const std::uint64_t *gv =
                good_out + static_cast<std::size_t>(j) * W;
            for (std::size_t w = 0; w < W; ++w)
                diff |= row[w] ^ gv[w];
        }
    }
    // Only the fold reads the output row.
    if (diff) {
        kernels_->assembleOutputs(flat_, good, faulty_.data(),
                                  stamp_.data(), epoch_, outBuf_.data());
        if (tapping)
            for (const GroupPin &p : taps_)
                setGroup(outBuf_.data() +
                             static_cast<std::size_t>(p.index) * W,
                         p);
    }

    // (5) Latch. An eligible flip-flop whose D driver the replay did
    // not stamp latches the good value, and an ineligible one that
    // was not diverged holds it: only stamped drivers and diverged
    // rows are copied and compared.
    divergedNext_.clear();
    std::size_t k = 0;
    for (int i = 0; i < nff; ++i) {
        const bool was = k < diverged_.size() && diverged_[k] == i;
        k += was ? 1 : 0;
        std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(i) * W;
        if (elig[i]) {
            const GateId d = flat_.ffDriver(i);
            if (stamp_[d] != epoch_)
                continue;
            std::copy_n(faulty_.data() + static_cast<std::size_t>(d) * W,
                        W, fs);
        } else if (!was) {
            continue;
        }
        if (!blocksEqual(fs, good_next + static_cast<std::size_t>(i) * W,
                         Wb_))
            divergedNext_.push_back(i);
    }

    // (6) Dff D-pin branch faults patch their own lane group of the
    // latched row. A row off the diverged list is not kept: it
    // starts from the good next state.
    if (active && !dffPins_.empty()) {
        patchedFfs_.clear();
        for (const GroupPin &p : dffPins_)
            if (elig[p.index] &&
                (patchedFfs_.empty() || patchedFfs_.back() != p.index))
                patchedFfs_.push_back(p.index);
        for (const int ffi : patchedFfs_)
            if (!std::binary_search(divergedNext_.begin(),
                                    divergedNext_.end(), ffi))
                std::copy_n(good_next + static_cast<std::size_t>(ffi) * W,
                            W,
                            faultyState_.data() +
                                static_cast<std::size_t>(ffi) * W);
        for (const GroupPin &p : dffPins_)
            if (elig[p.index])
                setGroup(faultyState_.data() +
                             static_cast<std::size_t>(p.index) * W,
                         p);
        for (const int ffi : patchedFfs_) {
            const bool div = !blocksEqual(
                faultyState_.data() + static_cast<std::size_t>(ffi) * W,
                good_next + static_cast<std::size_t>(ffi) * W, Wb_);
            const auto it = std::lower_bound(divergedNext_.begin(),
                                             divergedNext_.end(), ffi);
            const bool listed = it != divergedNext_.end() && *it == ffi;
            if (div && !listed)
                divergedNext_.insert(it, ffi);
            else if (!div && listed)
                divergedNext_.erase(it);
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
    // contributes another diff: patch its words of every diverged
    // row (the rest read the trace already) and drop any row whose
    // full block now matches the trace.
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *st = trace_.state(state_row);
    std::size_t kept = 0;
    for (const std::int32_t ffi : diverged_) {
        std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(ffi) * W;
        const std::uint64_t *gs = st + static_cast<std::size_t>(ffi) * W;
        std::copy(gs + f * Wg_, gs + (f + 1) * Wg_, fs + f * Wg_);
        if (!blocksEqual(fs, gs, Wb_))
            diverged_[kept++] = ffi;
    }
    diverged_.resize(kept);
    rebuildInjections();
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
