/**
 * @file
 * Two-period alternating evaluation (Definition 2.5): apply (X, X̄)
 * and classify each output pair as correct, non-alternating (the
 * detectable error class) or incorrectly alternating (the class a
 * self-checking network must never produce).
 */

#ifndef SCAL_SIM_ALTERNATING_HH
#define SCAL_SIM_ALTERNATING_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"
#include "sim/evaluator.hh"
#include "sim/flat.hh"
#include "util/rng.hh"

namespace scal::sim
{

/** Classification of one output's two-period pair under a fault. */
enum class PairClass
{
    Correct,              ///< (F(X), F̄(X)) — the code word
    NonAlternating,       ///< (y, y) — non-code, detected by a checker
    IncorrectAlternation, ///< (F̄(X), F(X)) — wrong code word: unsafe
};

const char *pairClassName(PairClass c);

struct AlternatingOutcome
{
    std::vector<bool> first;        ///< period-1 outputs (input X)
    std::vector<bool> second;       ///< period-2 outputs (input X̄)
    std::vector<PairClass> classes; ///< per output, vs. fault-free
};

/**
 * Evaluate the alternating pair (X, X̄) under an optional fault and
 * classify every output against the fault-free network.
 * @pre the network is combinational.
 */
AlternatingOutcome evalAlternating(const netlist::Netlist &net,
                                   const std::vector<bool> &x,
                                   const netlist::Fault *fault = nullptr);

/**
 * The pattern stream of the alternating checks and campaigns, packed
 * into lane blocks. An exhaustive stream is 0, 1, 2, ...: input i of
 * pattern k is bit i of k. A sampled stream draws ceil(numInputs / 64)
 * Rng words per pattern, in pattern order, word j holding inputs
 * 64j..64j+63; at most 64 inputs is one draw per pattern. A sampled
 * 64-lane word is one 64x64 bit transpose of 64 patterns' words; an
 * exhaustive one follows from counting.
 */
class PatternStream
{
  public:
    PatternStream(int num_inputs, bool exhaustive, std::uint64_t seed);

    /**
     * Pack the next @p lanes patterns (at most 64 * @p lane_words)
     * into @p in: numInputs * lane_words words, input-major as in
     * sim/wide.hh, lane l of input i at bit l % 64 of word
     * i * lane_words + l / 64. Lanes from @p lanes on are zero. When
     * @p first_words is given, entry l receives pattern l's first word
     * (inputs 0-63).
     */
    void next(int lanes, int lane_words, std::uint64_t *in,
              std::uint64_t *first_words = nullptr);

  private:
    int numInputs_;
    int words_; ///< words per pattern
    bool exhaustive_;
    std::uint64_t nextPattern_ = 0; ///< exhaustive mode
    util::Rng rng_;
    /** Word j of lane l's pattern at [64 * j + l]. */
    std::vector<std::uint64_t> scratch_;
};

/**
 * Theorem 2.1 check: the network is an alternating network iff every
 * output alternates for every input, i.e. every output function is
 * self-dual. Exhaustive over 2^numInputs patterns.
 */
bool isAlternatingNetwork(const netlist::Netlist &net);

/**
 * The same check with a pattern budget, so imported circuits with
 * dozens of inputs stay verifiable: exhaustive when 2^numInputs fits
 * in @p maxPatterns, otherwise that many seeded uniform patterns
 * (the PatternStream of @p seed). A sampled "true" is evidence, not
 * proof; "false" is always a counterexample.
 */
bool isAlternatingNetwork(const netlist::Netlist &net,
                          std::uint64_t maxPatterns, std::uint64_t seed);

/**
 * The check on a compiled netlist, which every overload runs: 512-lane
 * blocks of the pattern stream through FaultSimulator's good-value
 * kernel, X in phase 0 and X̄ in phase 1, each output checked as
 * phase 1 == ~phase 0. An exhaustive stream holds every pair twice
 * (X and X̄ give the same pair), so its first half, with the top input
 * at 0, decides. Combinational netlists only.
 */
bool isAlternatingNetwork(const FlatNetlist &flat,
                          std::uint64_t maxPatterns, std::uint64_t seed);

} // namespace scal::sim

#endif // SCAL_SIM_ALTERNATING_HH
