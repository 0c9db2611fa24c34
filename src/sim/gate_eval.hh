/**
 * @file
 * Word-parallel gate evaluation shared by the packed simulation
 * kernels (FaultSimulator, SeqGoodTrace, SeqFaultBatchSimulator). One
 * copy of the gate semantics, bit-identical to the PackedEvaluator
 * oracle in tests/oracle/, so the kernels cannot drift apart.
 *
 * Two entry points:
 *  - evalGateWord: the original scalar 64-lane form (one word).
 *  - evalGateWords<W, GetIn>: the lane-block form evaluating W words
 *    per line (W in {1, 4, 8} -> 64/256/512 lanes). For W > 1 the
 *    block is a GCC vector type, so the same template compiles to
 *    SSE/AVX2/AVX-512 code depending on the target options of the
 *    *calling* translation unit (see sim/wide_impl.hh) -- everything
 *    here is force-inlined so it inherits the caller's ISA.
 */

#ifndef SCAL_SIM_GATE_EVAL_HH
#define SCAL_SIM_GATE_EVAL_HH

#include <cstdint>

#include <cstddef>

#include "netlist/netlist.hh"

#if defined(__GNUC__)
#define SCAL_SIM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define SCAL_SIM_ALWAYS_INLINE inline
#endif

namespace scal::sim
{

/**
 * Bit-sliced counter threshold: given @p n per-input 64-lane words,
 * return a word whose lane bit is 1 iff the number of 1 inputs in
 * that lane satisfies the MAJ (>) or MIN (<) comparison against
 * n/2. Shared by every word-parallel evaluator so the Maj/Min
 * semantics cannot drift between kernels. Out of line
 * (sim/gate_eval.cc), so no ISA-targeted unit compiles a copy.
 */
std::uint64_t thresholdWord(const std::uint64_t *in, std::size_t n,
                            bool majority);

} // namespace scal::sim

namespace scal::sim::detail
{

inline constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

/** Evaluate one gate kind over @p arity packed 64-lane input words. */
inline std::uint64_t
evalGateWord(netlist::GateKind kind, const std::uint64_t *in, int arity)
{
    using netlist::GateKind;
    std::uint64_t v = 0;
    switch (kind) {
      case GateKind::Buf:
        v = in[0];
        break;
      case GateKind::Not:
        v = ~in[0];
        break;
      case GateKind::And:
        v = kAllOnes;
        for (int k = 0; k < arity; ++k)
            v &= in[k];
        break;
      case GateKind::Nand:
        v = kAllOnes;
        for (int k = 0; k < arity; ++k)
            v &= in[k];
        v = ~v;
        break;
      case GateKind::Or:
        for (int k = 0; k < arity; ++k)
            v |= in[k];
        break;
      case GateKind::Nor:
        for (int k = 0; k < arity; ++k)
            v |= in[k];
        v = ~v;
        break;
      case GateKind::Xor:
        for (int k = 0; k < arity; ++k)
            v ^= in[k];
        break;
      case GateKind::Xnor:
        for (int k = 0; k < arity; ++k)
            v ^= in[k];
        v = ~v;
        break;
      case GateKind::Maj:
        v = thresholdWord(in, static_cast<std::size_t>(arity), true);
        break;
      case GateKind::Min:
        v = thresholdWord(in, static_cast<std::size_t>(arity), false);
        break;
      default:
        break;
    }
    return v;
}

/**
 * Lane block carried per line: W consecutive uint64 words. W == 1 is
 * a plain word (scalar registers); W == 4/8 are GCC vector types that
 * lower to ymm/zmm ops when the enclosing function enables them and
 * split into narrower ops otherwise. `aligned(8)` makes loads/stores
 * through the casted pointers legal at word alignment (the arenas are
 * 64-byte aligned, but campaign input blocks need not be);
 * `may_alias` lets the blocks overlay plain uint64 arrays.
 */
template <int W>
struct LaneBlock;

template <>
struct LaneBlock<1>
{
    using type = std::uint64_t;
};

#if defined(__GNUC__)
template <>
struct LaneBlock<4>
{
    typedef std::uint64_t type
        __attribute__((vector_size(32), aligned(8), may_alias));
};

template <>
struct LaneBlock<8>
{
    typedef std::uint64_t type
        __attribute__((vector_size(64), aligned(8), may_alias));
};
#else
template <>
struct LaneBlock<4>
{
    using type = std::uint64_t; // unused: portable W>1 falls back below
};

template <>
struct LaneBlock<8>
{
    using type = std::uint64_t;
};
#endif

#if defined(__GNUC__)
#define SCAL_SIM_HAVE_LANE_VECTORS 1
#else
#define SCAL_SIM_HAVE_LANE_VECTORS 0
#endif

/**
 * thresholdWord (sim/gate_eval.cc) applied independently to each of the
 * W words of a lane block. @p in is an accessor: in(i) returns the
 * W-word block of fan-in i.
 */
template <int W, typename GetIn>
SCAL_SIM_ALWAYS_INLINE void
thresholdWords(GetIn in, int n, bool majority, std::uint64_t *out)
{
    for (int w = 0; w < W; ++w) {
        // Ripple-add each input word into a bit-sliced accumulator.
        std::uint64_t acc[32]; // acc[k] = bit k of per-lane count
        std::size_t bits = 0;
        for (int i = 0; i < n; ++i) {
            std::uint64_t carry = in(i)[w];
            for (std::size_t k = 0; k < bits && carry; ++k) {
                std::uint64_t s = acc[k] ^ carry;
                carry = acc[k] & carry;
                acc[k] = s;
            }
            if (carry)
                acc[bits++] = carry;
        }
        // Odd arity means no ties: MAJ = count > floor(n/2), MIN = ¬MAJ.
        std::uint64_t gt = 0, eqsofar = ~std::uint64_t{0};
        for (std::size_t k = bits; k-- > 0;) {
            const std::uint64_t cnt = acc[k];
            const std::uint64_t thr_bit =
                ((static_cast<std::size_t>(n) / 2) >> k) & 1
                    ? ~std::uint64_t{0}
                    : 0;
            gt |= eqsofar & cnt & ~thr_bit;
            eqsofar &= ~(cnt ^ thr_bit);
        }
        out[w] = majority ? gt : ~gt;
    }
}

/**
 * Evaluate one gate kind over W-word lane blocks. @p in is an
 * accessor: in(k) returns a pointer to the W words of fan-in k
 * (8-byte alignment suffices). @p out receives W words. The dominant
 * 2-input And/Or/Xor/Nand/Nor gates take a fast path that skips the
 * generic fan-in loop; every width shares this one template.
 */
template <int W, typename GetIn>
SCAL_SIM_ALWAYS_INLINE void
evalGateWords(netlist::GateKind kind, GetIn in, int arity,
              std::uint64_t *out)
{
    using netlist::GateKind;
    using V = typename LaneBlock<W>::type;
#if SCAL_SIM_HAVE_LANE_VECTORS
    constexpr bool kVec = true;
#else
    constexpr bool kVec = (W == 1);
#endif
    if constexpr (kVec) {
        const auto load = [](const std::uint64_t *p) {
            return *reinterpret_cast<const V *>(p);
        };
        const auto store = [](std::uint64_t *p, V v) {
            *reinterpret_cast<V *>(p) = v;
        };
        V ones = {};
        ones = ~ones;
        switch (kind) {
          case GateKind::Buf:
            store(out, load(in(0)));
            return;
          case GateKind::Not:
            store(out, ~load(in(0)));
            return;
          case GateKind::And:
            if (arity == 2) {
                store(out, load(in(0)) & load(in(1)));
                return;
            }
            {
                V v = ones;
                for (int k = 0; k < arity; ++k)
                    v &= load(in(k));
                store(out, v);
            }
            return;
          case GateKind::Nand:
            if (arity == 2) {
                store(out, ~(load(in(0)) & load(in(1))));
                return;
            }
            {
                V v = ones;
                for (int k = 0; k < arity; ++k)
                    v &= load(in(k));
                store(out, ~v);
            }
            return;
          case GateKind::Or:
            if (arity == 2) {
                store(out, load(in(0)) | load(in(1)));
                return;
            }
            {
                V v = {};
                for (int k = 0; k < arity; ++k)
                    v |= load(in(k));
                store(out, v);
            }
            return;
          case GateKind::Nor:
            if (arity == 2) {
                store(out, ~(load(in(0)) | load(in(1))));
                return;
            }
            {
                V v = {};
                for (int k = 0; k < arity; ++k)
                    v |= load(in(k));
                store(out, ~v);
            }
            return;
          case GateKind::Xor:
            if (arity == 2) {
                store(out, load(in(0)) ^ load(in(1)));
                return;
            }
            {
                V v = {};
                for (int k = 0; k < arity; ++k)
                    v ^= load(in(k));
                store(out, v);
            }
            return;
          case GateKind::Xnor:
            if (arity == 2) {
                store(out, ~(load(in(0)) ^ load(in(1))));
                return;
            }
            {
                V v = {};
                for (int k = 0; k < arity; ++k)
                    v ^= load(in(k));
                store(out, ~v);
            }
            return;
          case GateKind::Maj:
            thresholdWords<W>(in, arity, true, out);
            return;
          case GateKind::Min:
            thresholdWords<W>(in, arity, false, out);
            return;
          default:
            for (int w = 0; w < W; ++w)
                out[w] = 0;
            return;
        }
    } else {
        // Non-GNU fallback (W > 1 without vector extensions):
        // word-at-a-time with the accessor, same semantics.
        if (kind == GateKind::Maj || kind == GateKind::Min) {
            thresholdWords<W>(in, arity, kind == GateKind::Maj, out);
            return;
        }
        for (int w = 0; w < W; ++w) {
            std::uint64_t v = 0;
            switch (kind) {
              case GateKind::Buf:
                v = in(0)[w];
                break;
              case GateKind::Not:
                v = ~in(0)[w];
                break;
              case GateKind::And:
              case GateKind::Nand:
                v = kAllOnes;
                for (int k = 0; k < arity; ++k)
                    v &= in(k)[w];
                if (kind == GateKind::Nand)
                    v = ~v;
                break;
              case GateKind::Or:
              case GateKind::Nor:
                for (int k = 0; k < arity; ++k)
                    v |= in(k)[w];
                if (kind == GateKind::Nor)
                    v = ~v;
                break;
              case GateKind::Xor:
              case GateKind::Xnor:
                for (int k = 0; k < arity; ++k)
                    v ^= in(k)[w];
                if (kind == GateKind::Xnor)
                    v = ~v;
                break;
              default:
                break;
            }
            out[w] = v;
        }
    }
}

/**
 * True when the W-word blocks @p a and @p b differ in any bit: one
 * block XOR and one any-bit test of the result, with no branch per
 * word. The replay kernels compare each recomputed gate with its
 * good line this way.
 */
template <int W>
SCAL_SIM_ALWAYS_INLINE bool
blocksDiffer(const std::uint64_t *a, const std::uint64_t *b)
{
#if SCAL_SIM_HAVE_LANE_VECTORS
    using V = typename LaneBlock<W>::type;
    const V x = *reinterpret_cast<const V *>(a) ^
                *reinterpret_cast<const V *>(b);
    if constexpr (W == 1) {
        return x != 0;
    } else {
        // OR the block's halves together down to two words: a few
        // vector ORs instead of one extract per word.
        typedef std::uint64_t V2 __attribute__((vector_size(16)));
        typedef std::uint64_t V4 __attribute__((vector_size(32)));
        V4 y;
        if constexpr (W == 8)
            y = __builtin_shufflevector(x, x, 0, 1, 2, 3) |
                __builtin_shufflevector(x, x, 4, 5, 6, 7);
        else
            y = x;
        const V2 z = __builtin_shufflevector(y, y, 0, 1) |
                     __builtin_shufflevector(y, y, 2, 3);
        return (z[0] | z[1]) != 0;
    }
#else
    std::uint64_t any = 0;
    for (int w = 0; w < W; ++w)
        any |= a[w] ^ b[w];
    return any != 0;
#endif
}

} // namespace scal::sim::detail

#endif // SCAL_SIM_GATE_EVAL_HH
