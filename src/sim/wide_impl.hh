/**
 * @file
 * Template bodies for the wide simulation kernels. This header is
 * included (no include guard, on purpose) by each ISA translation
 * unit with SCAL_WIDE_NS defined to a unique namespace name; the
 * AVX2/AVX-512 units include it inside a `#pragma GCC target` region
 * so the loops below -- and the force-inlined evalGateWords bodies
 * they call -- are compiled with that instruction set.
 *
 * The explicit instantiations at the bottom matter: GCC defers
 * implicit template instantiation to the end of the translation unit,
 * *after* `#pragma GCC pop_options`, which would silently drop the
 * target ISA. Instantiating explicitly inside the region pins the
 * code generation where the pragma is still active.
 */

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hh"
#include "sim/flat.hh"
#include "sim/gate_eval.hh"
#include "sim/wide.hh"

#ifndef SCAL_WIDE_NS
#error "define SCAL_WIDE_NS before including sim/wide_impl.hh"
#endif

namespace scal::sim::detail
{
namespace SCAL_WIDE_NS
{

template <int W>
void
evalLinesImpl(const FlatNetlist &flat, const std::uint64_t *inputs,
              const std::uint64_t *dff_state, int phi_input,
              std::uint64_t phi_word, std::uint64_t *lines)
{
    using netlist::GateId;
    using netlist::GateKind;
    for (GateId g : flat.topoOrder()) {
        std::uint64_t *out = lines + static_cast<std::size_t>(g) * W;
        switch (flat.kind(g)) {
          case GateKind::Input: {
            const int idx = flat.inputIndex(g);
            if (idx == phi_input) {
                for (int w = 0; w < W; ++w)
                    out[w] = phi_word;
            } else {
                const std::uint64_t *src =
                    inputs + static_cast<std::size_t>(idx) * W;
                for (int w = 0; w < W; ++w)
                    out[w] = src[w];
            }
            break;
          }
          case GateKind::Dff: {
            const std::uint64_t *src =
                dff_state + static_cast<std::size_t>(flat.ffIndex(g)) * W;
            for (int w = 0; w < W; ++w)
                out[w] = src[w];
            break;
          }
          case GateKind::Const0:
            for (int w = 0; w < W; ++w)
                out[w] = 0;
            break;
          case GateKind::Const1:
            for (int w = 0; w < W; ++w)
                out[w] = kAllOnes;
            break;
          default: {
            const GateId *fi = flat.fanins(g);
            evalGateWords<W>(
                flat.kind(g),
                [&](int k) {
                    return lines + static_cast<std::size_t>(fi[k]) * W;
                },
                flat.arity(g), out);
            break;
          }
        }
    }
}

template <int W>
std::size_t
replayEventsImpl(const FlatNetlist &flat, const std::uint64_t *good,
                 std::uint64_t *faulty, std::uint32_t *stamp,
                 const std::uint32_t *forced, std::uint32_t epoch,
                 const std::uint8_t *skip, const netlist::GateId *seeds,
                 std::size_t nseeds, const WideBranchInj *binj,
                 std::size_t nbinj, const WideStemInj *sinj,
                 std::size_t nsinj, std::uint64_t *pending,
                 const std::uint64_t **ptrs)
{
    using netlist::GateId;
    using netlist::GateKind;
    const GateId *topo = flat.topoOrder().data();
    std::size_t lo = SIZE_MAX, hi = 0;
    for (std::size_t s = 0; s < nseeds; ++s) {
        const auto p = static_cast<std::size_t>(flat.topoPos(seeds[s]));
        pending[p / 64] |= std::uint64_t{1} << (p % 64);
        lo = p / 64 < lo ? p / 64 : lo;
        hi = p / 64 > hi ? p / 64 : hi;
    }
    // Scratch for lane-masked branch pins: one (live & ~mask) |
    // (value & mask) mix per injected pin. The fault-batch caller
    // merges injections per (consumer, pin), so a single gate sees at
    // most one entry per multiplexed lane group.
    constexpr int kMaxMix = static_cast<int>(kMaxLaneWords);
    std::uint64_t mix[kMaxMix][W];
    // Injection targets by GateId mod 64: a gate whose bit is clear is
    // no target, so it skips both injection scans after one test.
    const auto residue = [](GateId g) {
        return std::uint64_t{1} << (static_cast<std::uint32_t>(g) % 64);
    };
    std::uint64_t targets = 0;
    for (std::size_t b = 0; b < nbinj; ++b)
        targets |= residue(binj[b].consumer);
    for (std::size_t s = 0; s < nsinj; ++s)
        targets |= residue(sinj[s].gate);
    std::size_t recomputed = 0;
    for (std::size_t word = lo; word <= hi; ++word) {
        // The word being drained lives in a register. Consumers sit
        // above their driver, so marks made while it drains land at
        // higher bits of it or in later words.
        std::uint64_t bits = pending[word];
        pending[word] = 0;
        while (bits != 0) {
            const int bit = __builtin_ctzll(bits);
            bits &= bits - 1;
            const GateId g = topo[word * 64 + static_cast<std::size_t>(bit)];
            // Only the sequential batch replay passes a mask. Marking
            // the skip unlikely keeps the null-mask sweep's code layout
            // (without the hint the comb path ran ~2% slower).
            if (skip != nullptr && skip[g]) [[unlikely]]
                continue;
            // Flip-flop outputs are period-state sources: inside a
            // replay they only ever carry seeded values (forced stems,
            // diverged state), never recomputed ones.
            if (forced[g] != epoch && flat.kind(g) != GateKind::Dff) {
                ++recomputed;
                const GateId *fi = flat.fanins(g);
                const int a = flat.arity(g);
                bool is_branch_target = false;
                const WideStemInj *stem = nullptr;
                if (targets & residue(g)) {
                    for (std::size_t b = 0; b < nbinj; ++b) {
                        if (binj[b].consumer == g)
                            is_branch_target = true;
                    }
                    for (std::size_t s = 0; s < nsinj; ++s) {
                        if (sinj[s].gate == g)
                            stem = &sinj[s];
                    }
                }
                std::uint64_t v[W];
                if (is_branch_target) {
                    for (int k = 0; k < a; ++k) {
                        const GateId d = fi[k];
                        ptrs[k] = (stamp[d] == epoch ? faulty : good) +
                                  static_cast<std::size_t>(d) * W;
                    }
                    int nmix = 0;
                    for (std::size_t b = 0; b < nbinj; ++b) {
                        const WideBranchInj &bi = binj[b];
                        if (bi.consumer != g || bi.pin < 0 || bi.pin >= a ||
                            fi[bi.pin] != bi.driver)
                            continue;
                        if (bi.mask == nullptr || nmix == kMaxMix) {
                            ptrs[bi.pin] = bi.value;
                        } else {
                            std::uint64_t *m = mix[nmix++];
                            const std::uint64_t *live = ptrs[bi.pin];
                            for (int w = 0; w < W; ++w)
                                m[w] = (live[w] & ~bi.mask[w]) |
                                       (bi.value[w] & bi.mask[w]);
                            ptrs[bi.pin] = m;
                        }
                    }
                    evalGateWords<W>(
                        flat.kind(g), [&](int k) { return ptrs[k]; }, a, v);
                } else {
                    evalGateWords<W>(
                        flat.kind(g),
                        [&](int k) {
                            const GateId d = fi[k];
                            return (stamp[d] == epoch ? faulty : good) +
                                   static_cast<std::size_t>(d) * W;
                        },
                        a, v);
                }
                if (stem) {
                    for (int w = 0; w < W; ++w)
                        v[w] = (v[w] & ~stem->mask[w]) |
                               (stem->value[w] & stem->mask[w]);
                }
                const std::size_t at = static_cast<std::size_t>(g) * W;
                if (blocksDiffer<W>(v, good + at)) {
                    for (int w = 0; w < W; ++w)
                        faulty[at + static_cast<std::size_t>(w)] = v[w];
                    stamp[g] = epoch;
                }
            }
            if (stamp[g] == epoch) {
                const std::int32_t *cp = flat.consumerPositions(g);
                const int nc = flat.fanoutDegree(g);
                for (int k = 0; k < nc; ++k) {
                    const auto p = static_cast<std::size_t>(cp[k]);
                    const std::uint64_t b = std::uint64_t{1} << (p % 64);
                    if (p / 64 == word) {
                        bits |= b;
                    } else {
                        pending[p / 64] |= b;
                        hi = p / 64 > hi ? p / 64 : hi;
                    }
                }
            }
        }
    }
    return recomputed;
}

template <int W>
void
assembleOutputsImpl(const FlatNetlist &flat, const std::uint64_t *good,
                    const std::uint64_t *faulty, const std::uint32_t *stamp,
                    std::uint32_t epoch, std::uint64_t *out)
{
    const int no = flat.numOutputs();
    for (int j = 0; j < no; ++j) {
        const netlist::GateId g = flat.output(j);
        const std::uint64_t *src = (stamp[g] == epoch ? faulty : good) +
                                   static_cast<std::size_t>(g) * W;
        std::uint64_t *dst = out + static_cast<std::size_t>(j) * W;
        for (int w = 0; w < W; ++w)
            dst[w] = src[w];
    }
}

template <int W>
void
foldAlternatingImpl(int num_outputs, const std::uint64_t *f1,
                    const std::uint64_t *f2, const std::uint64_t *good,
                    WideMasks *m)
{
    for (int j = 0; j < num_outputs; ++j) {
        const std::uint64_t *a = f1 + static_cast<std::size_t>(j) * W;
        const std::uint64_t *b = f2 + static_cast<std::size_t>(j) * W;
        const std::uint64_t *g = good + static_cast<std::size_t>(j) * W;
        for (int w = 0; w < W; ++w) {
            const std::uint64_t err1 = a[w] ^ g[w];
            const std::uint64_t err2 = b[w] ^ ~g[w];
            m->anyErr[static_cast<std::size_t>(w)] |= err1 | err2;
            m->nonAlt[static_cast<std::size_t>(w)] |= ~(a[w] ^ b[w]);
            m->incorrect[static_cast<std::size_t>(w)] |= err1 & err2;
        }
    }
}

template <int W>
void
seqAlarmWrongImpl(const std::uint64_t *p0, const std::uint64_t *p1,
                  const std::uint64_t *good0, const int *alt, int nalt,
                  const int *pairs, int npairs, const int *data, int ndata,
                  std::uint64_t *alarm, std::uint64_t *wrong)
{
    std::uint64_t a[W], wr[W];
    for (int w = 0; w < W; ++w)
        a[w] = wr[w] = 0;
    for (int k = 0; k < nalt; ++k) {
        const std::size_t j = static_cast<std::size_t>(alt[k]) * W;
        for (int w = 0; w < W; ++w)
            a[w] |= ~(p0[j + w] ^ p1[j + w]);
    }
    for (int k = 0; k < npairs; ++k) {
        const std::size_t p = static_cast<std::size_t>(pairs[2 * k]) * W;
        const std::size_t q =
            static_cast<std::size_t>(pairs[2 * k + 1]) * W;
        for (int w = 0; w < W; ++w) {
            a[w] |= ~(p0[p + w] ^ p0[q + w]);
            a[w] |= ~(p1[p + w] ^ p1[q + w]);
        }
    }
    for (int k = 0; k < ndata; ++k) {
        const std::size_t j = static_cast<std::size_t>(data[k]) * W;
        for (int w = 0; w < W; ++w)
            wr[w] |= p0[j + w] ^ good0[j + w];
    }
    for (int w = 0; w < W; ++w) {
        alarm[w] = a[w];
        wrong[w] = wr[w];
    }
}

// Pin code generation inside the active target region (see the file
// comment). One set per supported width.
#define SCAL_WIDE_INSTANTIATE(W)                                            \
    template void evalLinesImpl<W>(                                         \
        const FlatNetlist &, const std::uint64_t *, const std::uint64_t *,  \
        int, std::uint64_t, std::uint64_t *);                               \
    template std::size_t replayEventsImpl<W>(                               \
        const FlatNetlist &, const std::uint64_t *, std::uint64_t *,        \
        std::uint32_t *, const std::uint32_t *, std::uint32_t,              \
        const std::uint8_t *, const netlist::GateId *, std::size_t,         \
        const WideBranchInj *, std::size_t, const WideStemInj *,            \
        std::size_t, std::uint64_t *, const std::uint64_t **);              \
    template void assembleOutputsImpl<W>(                                   \
        const FlatNetlist &, const std::uint64_t *, const std::uint64_t *,  \
        const std::uint32_t *, std::uint32_t, std::uint64_t *);             \
    template void foldAlternatingImpl<W>(                                   \
        int, const std::uint64_t *, const std::uint64_t *,                  \
        const std::uint64_t *, WideMasks *);                                \
    template void seqAlarmWrongImpl<W>(                                     \
        const std::uint64_t *, const std::uint64_t *,                       \
        const std::uint64_t *, const int *, int, const int *, int,          \
        const int *, int, std::uint64_t *, std::uint64_t *);

SCAL_WIDE_INSTANTIATE(1)
SCAL_WIDE_INSTANTIATE(4)
SCAL_WIDE_INSTANTIATE(8)

#undef SCAL_WIDE_INSTANTIATE

/** Assemble the dispatch table for width W (no codegen of its own:
 *  the function bodies were instantiated above). */
template <int W>
WideKernels
makeKernels(SimdTarget target)
{
    WideKernels k;
    k.laneWords = W;
    k.target = target;
    k.evalLines = &evalLinesImpl<W>;
    k.replayEvents = &replayEventsImpl<W>;
    k.assembleOutputs = &assembleOutputsImpl<W>;
    k.foldAlternating = &foldAlternatingImpl<W>;
    k.seqAlarmWrong = &seqAlarmWrongImpl<W>;
    return k;
}

} // namespace SCAL_WIDE_NS
} // namespace scal::sim::detail
