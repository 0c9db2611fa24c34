/**
 * @file
 * Order statistics the benchmark reports: the median, the quartiles
 * (Python's statistics.quantiles(n=4) "exclusive" method, so the
 * benchmark and a reader's script agree), and the tail rule — the
 * highest percentile that still has at least ten samples beyond it.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

double median(std::vector<double> v);

/** Quartiles q1, q2, q3 by the exclusive method; needs >= 2 samples. */
struct Quartiles
{
    double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/** The samples beyond a tail value must number at least this many. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * The tail of a latency sample: the highest percentile p with at least
 * kTailBeyond samples strictly beyond it in rank. With n sorted
 * samples that is the value at rank n - kTailBeyond (1-based), i.e.
 * p = 100 * (n - kTailBeyond) / n. Undefined (valid == false) when
 * n <= kTailBeyond.
 */
struct Tail
{
    bool valid = false;
    double value = 0;
    double percentile = 0;
    std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/** splitmix64 step: the benchmark's own seed mixer, independent of
 *  any generator inside the program under test. */
std::uint64_t mix64(std::uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
