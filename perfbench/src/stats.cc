#include "stats.hh"

#include <algorithm>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.size() < 2) {
        q.q1 = q.q2 = q.q3 = v.empty() ? 0 : v[0];
        return q;
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    auto at = [&](long i) {
        // Python's exclusive method, integer for integer.
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const double delta = static_cast<double>(i * m - j * 4);
        return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
                v[static_cast<std::size_t>(j)] * delta) /
               4;
    };
    q.q1 = at(1);
    q.q2 = at(2);
    q.q3 = at(3);
    return q;
}

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() <= kTailBeyond)
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t rank = v.size() - kTailBeyond; // 1-based
    t.valid = true;
    t.value = v[rank - 1];
    t.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(v.size());
    return t;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace perfbench
