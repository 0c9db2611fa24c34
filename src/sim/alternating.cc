#include "sim/alternating.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/fault_sim.hh"
#include "util/bits.hh"

namespace scal::sim
{

using namespace netlist;

const char *
pairClassName(PairClass c)
{
    switch (c) {
      case PairClass::Correct:              return "correct";
      case PairClass::NonAlternating:       return "non-alternating";
      case PairClass::IncorrectAlternation: return "incorrect-alt";
    }
    return "?";
}

AlternatingOutcome
evalAlternating(const Netlist &net, const std::vector<bool> &x,
                const Fault *fault)
{
    if (!net.isCombinational())
        throw std::invalid_argument("evalAlternating needs comb. netlist");

    Evaluator ev(net);
    std::vector<bool> xbar(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        xbar[i] = !x[i];

    const std::vector<bool> good1 = ev.evalOutputs(x);
    AlternatingOutcome out;
    out.first = ev.evalOutputs(x, fault);
    out.second = ev.evalOutputs(xbar, fault);
    out.classes.resize(net.numOutputs());
    for (int j = 0; j < net.numOutputs(); ++j) {
        const bool y = good1[j];
        if (out.first[j] == y && out.second[j] == !y)
            out.classes[j] = PairClass::Correct;
        else if (out.first[j] == out.second[j])
            out.classes[j] = PairClass::NonAlternating;
        else
            out.classes[j] = PairClass::IncorrectAlternation;
    }
    return out;
}

PatternStream::PatternStream(int num_inputs, bool exhaustive,
                             std::uint64_t seed)
    : numInputs_(num_inputs), words_((num_inputs + 63) / 64),
      exhaustive_(exhaustive), rng_(seed),
      scratch_(static_cast<std::size_t>(64 * std::max(words_, 1)))
{
}

void
PatternStream::next(int lanes, int lane_words, std::uint64_t *in,
                    std::uint64_t *first_words)
{
    const std::size_t W = static_cast<std::size_t>(lane_words);
    for (int group = 0; group < lane_words; ++group) {
        const int count = std::clamp(lanes - 64 * group, 0, 64);
        if (exhaustive_) {
            // Patterns first..first+63 straddle the aligned groups at
            // a and a + 64, whose words are fixed by counting: bit l of
            // input i is bit i of a + l.
            const std::uint64_t first = nextPattern_;
            const std::uint64_t a = first & ~std::uint64_t{63};
            const int o = static_cast<int>(first & 63);
            const auto counting = [](std::uint64_t base, int i) {
                constexpr std::uint64_t kLow[6] = {
                    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL,
                    0xf0f0f0f0f0f0f0f0ULL, 0xff00ff00ff00ff00ULL,
                    0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
                return i < 6 ? kLow[i] : -((base >> i) & 1);
            };
            for (int i = 0; i < numInputs_; ++i) {
                std::uint64_t w = counting(a, i) >> o;
                if (o)
                    w |= counting(a + 64, i) << (64 - o);
                in[static_cast<std::size_t>(i) * W +
                   static_cast<std::size_t>(group)] =
                    w & util::lowMask(static_cast<std::size_t>(count));
            }
            for (int lane = 0; first_words && lane < count; ++lane)
                first_words[64 * group + lane] =
                    first + static_cast<std::uint64_t>(lane);
            nextPattern_ += static_cast<std::uint64_t>(count);
            continue;
        }
        // Word j of the group's patterns, transposed into one lane word
        // per input 64j..64j+63.
        std::fill(scratch_.begin(), scratch_.end(), 0);
        for (int lane = 0; lane < count; ++lane) {
            for (int j = 0; j < words_; ++j)
                scratch_[static_cast<std::size_t>(64 * j + lane)] =
                    rng_.next();
            if (first_words)
                first_words[64 * group + lane] = scratch_[lane];
        }
        for (int j = 0; j < words_; ++j) {
            std::uint64_t *m = scratch_.data() + 64 * j;
            util::transpose64(m);
            const int top = std::min(64, numInputs_ - 64 * j);
            for (int i = 0; i < top; ++i)
                in[static_cast<std::size_t>(64 * j + i) * W +
                   static_cast<std::size_t>(group)] = m[i];
        }
    }
}

bool
isAlternatingNetwork(const Netlist &net)
{
    return isAlternatingNetwork(
        net, std::numeric_limits<std::uint64_t>::max(), 1);
}

bool
isAlternatingNetwork(const Netlist &net, std::uint64_t maxPatterns,
                     std::uint64_t seed)
{
    return isAlternatingNetwork(FlatNetlist(net), maxPatterns, seed);
}

bool
isAlternatingNetwork(const FlatNetlist &flat, std::uint64_t maxPatterns,
                     std::uint64_t seed)
{
    if (flat.numFlipFlops() > 0)
        throw std::invalid_argument(
            "isAlternatingNetwork needs a combinational netlist");
    const int n = flat.numInputs();
    const bool exhaustive =
        n < 63 && (std::uint64_t{1} << n) <= maxPatterns;
    const std::uint64_t patterns =
        !exhaustive ? maxPatterns
        : n > 0     ? std::uint64_t{1} << (n - 1)
                    : 1;
    constexpr int W = kMaxLaneWords;
    FaultSimulator fs(flat, W);
    PatternStream stream(n, exhaustive, seed);
    std::vector<std::uint64_t> in(static_cast<std::size_t>(n) * W);
    const std::size_t no = static_cast<std::size_t>(flat.numOutputs());
    for (std::uint64_t done = 0; done < patterns;) {
        const int lanes = static_cast<int>(
            std::min<std::uint64_t>(64 * W, patterns - done));
        stream.next(lanes, W, in.data());
        fs.setAlternatingBlock(in);
        const std::uint64_t *g0 = fs.goodOutputs(0).data();
        const std::uint64_t *g1 = fs.goodOutputs(1).data();
        for (int w = 0; 64 * w < lanes; ++w) {
            const std::uint64_t live =
                util::lowMask(static_cast<std::size_t>(lanes - 64 * w));
            for (std::size_t j = 0; j < no; ++j) {
                const std::size_t k = j * W + static_cast<std::size_t>(w);
                if (~(g0[k] ^ g1[k]) & live)
                    return false;
            }
        }
        done += static_cast<std::uint64_t>(lanes);
    }
    return true;
}

} // namespace scal::sim
