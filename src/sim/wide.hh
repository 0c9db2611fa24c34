/**
 * @file
 * Width-generic (W words per line) simulation kernels with runtime
 * SIMD dispatch. One logical kernel set exists in up to three builds
 * -- portable, AVX2, AVX-512 -- each compiled in its own translation
 * unit (sim/wide_portable.cc / wide_avx2.cc / wide_avx512.cc) from
 * the shared template body in sim/wide_impl.hh. wideKernels() picks a
 * build at runtime via sim/simd.hh policy; every build is
 * bit-identical, so dispatch is purely a performance knob.
 *
 * Layout convention everywhere: a buffer of N lines at width W is
 * N * W uint64 words, line i occupying words [i*W, i*W+W); lane l of
 * the block lives at bit (l % 64) of word (l / 64).
 */

#ifndef SCAL_SIM_WIDE_HH
#define SCAL_SIM_WIDE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/flat.hh"
#include "sim/simd.hh"
#include "util/aligned.hh"

namespace scal::sim
{

/** Widest supported lane block: 8 words = 512 lanes. */
inline constexpr int kMaxLaneWords = 8;

/** 64-byte-aligned arena for line/lane-block storage. */
using WordVec = std::vector<std::uint64_t,
                            util::AlignedAllocator<std::uint64_t, 64>>;

/**
 * Per-lane verdict masks of one alternating pair (X, X̄) under one
 * fault, before lane masking; word w covers lanes [64w, 64w+64). A
 * lane bit is set in anyErr when either period's outputs deviate from
 * the fault-free pair, in nonAlt when some output fails to alternate
 * (the checkable symptom), and in incorrect when some output is wrong
 * in both periods. Words beyond the active width are 0.
 */
struct WideMasks
{
    std::array<std::uint64_t, kMaxLaneWords> anyErr{};
    std::array<std::uint64_t, kMaxLaneWords> nonAlt{};
    std::array<std::uint64_t, kMaxLaneWords> incorrect{};

    std::uint64_t
    unsafeWord(int w) const
    {
        return incorrect[static_cast<std::size_t>(w)] &
               ~nonAlt[static_cast<std::size_t>(w)];
    }
};

namespace detail
{

/** Broadcast stuck-at constants usable as W-word value blocks. */
alignas(64) inline constexpr std::array<std::uint64_t, kMaxLaneWords>
    kOnesGroup = {~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0},
                  ~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0},
                  ~std::uint64_t{0}, ~std::uint64_t{0}};
alignas(64) inline constexpr std::array<std::uint64_t, kMaxLaneWords>
    kZeroGroup = {};

/** Branch fault to apply while replaying: consumer reads @p value
 *  (a W-word block) instead of @p driver on pin @p pin. When
 *  @p mask is null the whole block is overridden; otherwise only
 *  the lanes set in @p mask read @p value and the rest read the
 *  live (faulty-where-stamped) driver line. */
struct WideBranchInj
{
    netlist::GateId consumer = -1;
    netlist::GateId driver = -1;
    int pin = -1;
    const std::uint64_t *value = nullptr;
    const std::uint64_t *mask = nullptr;
};

/** Stem fault to apply while replaying: after @p gate is recomputed
 *  its output lanes set in @p mask are overwritten with @p value.
 *  Unlike a caller-forced line the unmasked lanes stay live, so
 *  other faults' divergence propagates through the pinned gate. */
struct WideStemInj
{
    netlist::GateId gate = -1;
    const std::uint64_t *value = nullptr;
    const std::uint64_t *mask = nullptr;
};

/** Words of a replayEvents bitset over @p flat's gates. */
inline std::size_t
eventWords(const FlatNetlist &flat)
{
    return (static_cast<std::size_t>(flat.numGates()) + 63) / 64;
}

/**
 * Kernel entry points for one (laneWords, target) combination. All
 * pointers are into W-word-per-line buffers as described above.
 */
struct WideKernels
{
    int laneWords = 1;
    SimdTarget target = SimdTarget::Portable;

    /** Fault-free topological evaluation of all lines. @p inputs is
     *  numInputs()*W words; @p dff_state numFlipFlops()*W (may be
     *  null when the netlist has no flip-flops). Input @p phi_input
     *  (if >= 0) reads the broadcast @p phi_word instead. */
    void (*evalLines)(const FlatNetlist &flat, const std::uint64_t *inputs,
                      const std::uint64_t *dff_state, int phi_input,
                      std::uint64_t phi_word, std::uint64_t *lines);

    /** Event-driven replay from the seed gates @p seeds: every gate
     *  the caller forced or stamped and every injection target. The
     *  seeds are marked in @p pending, a bitset over topoOrder()
     *  positions (eventWords(flat) words, all zero on entry), which
     *  is swept upward once. A marked gate g with a nonzero
     *  @p skip[g] (a byte per GateId; null skips nothing) is dropped:
     *  it is neither recomputed nor stamped by the kernel, and it
     *  marks no consumer even when the caller stamped it. The caller
     *  passes a mask only over lines whose value nothing it reads can
     *  see, so every consumer of a skipped line is itself skipped or
     *  blocks that pin (sim/seq_batch_sim.hh). Each other marked gate
     *  that is neither forced (forced[g]==epoch) nor a flip-flop is
     *  recomputed from its fan-ins (faulty[] where stamp[g]==epoch,
     *  good[] elsewhere) with branch and lane-masked stem injections
     *  applied, and stamped when it differs from good[]; every gate
     *  that ends stamped marks its combinational consumers. Consumer
     *  edges exclude D pins and point forward in topological order,
     *  so one sweep reaches exactly the gates a fault effect can
     *  change.
     *  Per recomputed gate the cost is the gate evaluation plus
     *  constant work: injection targets are looked up through a
     *  64-bit mask of their GateIds mod 64, built once per call, so
     *  a gate that is no target pays one test (a target, or a gate
     *  sharing its residue, scans @p binj and @p sinj; the last stem
     *  entry for a gate wins), and the recomputed block is compared
     *  with good[] as one vector and stored to faulty[] only when it
     *  differs. An injection whose target no event reaches is not
     *  applied. Returns with @p pending all zero and the number of
     *  gates recomputed. @p ptr_scratch must hold at least maxArity
     *  pointers. */
    std::size_t (*replayEvents)(
        const FlatNetlist &flat, const std::uint64_t *good,
        std::uint64_t *faulty, std::uint32_t *stamp,
        const std::uint32_t *forced, std::uint32_t epoch,
        const std::uint8_t *skip, const netlist::GateId *seeds,
        std::size_t nseeds,
        const WideBranchInj *binj, std::size_t nbinj,
        const WideStemInj *sinj, std::size_t nsinj, std::uint64_t *pending,
        const std::uint64_t **ptr_scratch);

    /** Gather output blocks, reading faulty[] where stamped. */
    void (*assembleOutputs)(const FlatNetlist &flat,
                            const std::uint64_t *good,
                            const std::uint64_t *faulty,
                            const std::uint32_t *stamp, std::uint32_t epoch,
                            std::uint64_t *out);

    /** Fold one (phase-1, phase-2) faulty output pair against the
     *  phase-1 good outputs into the alternating-logic masks. */
    void (*foldAlternating)(int num_outputs, const std::uint64_t *f1,
                            const std::uint64_t *f2,
                            const std::uint64_t *good, WideMasks *m);

    /** Fold one symbol's alarm and wrong-data words from its two
     *  output-block rows @p p0 / @p p1 (num-outputs lines of W words
     *  each) against the fault-free phase-0 row @p good0. Alarm lanes
     *  are those where an @p alt output fails to alternate between
     *  the phases, or either phase agrees across an output pair from
     *  @p pairs (2*@p npairs indices); wrong lanes are those where a
     *  @p data output differs from the fault-free value. */
    void (*seqAlarmWrong)(const std::uint64_t *p0, const std::uint64_t *p1,
                          const std::uint64_t *good0, const int *alt,
                          int nalt, const int *pairs, int npairs,
                          const int *data, int ndata, std::uint64_t *alarm,
                          std::uint64_t *wrong);
};

/** Per-build tables; null when lane_words is unsupported or the
 *  build is compiled out (non-x86, missing compiler support). */
const WideKernels *widePortableKernels(int lane_words);
const WideKernels *wideAvx2Kernels(int lane_words);
const WideKernels *wideAvx512Kernels(int lane_words);

} // namespace detail

/**
 * Resolve (lane_words, target) to a kernel table. @p target follows
 * resolveSimdTarget() policy and falls back toward portable if the
 * requested build was compiled out. Throws std::invalid_argument
 * unless lane_words is 1, 4 or 8.
 */
const detail::WideKernels &wideKernels(int lane_words,
                                       SimdTarget target = SimdTarget::Auto);

} // namespace scal::sim

#endif // SCAL_SIM_WIDE_HH
