/**
 * @file
 * Self-tests of the benchmark's own arithmetic, run with
 * `python3 perfbench/run.py --selftest`:
 *  - the tail rule (highest percentile with >= 10 samples beyond it)
 *    and the quartiles (Python's statistics.quantiles, n=4);
 *  - self time and coverage on a synthetic span tree, including
 *    overlapping children from another thread;
 *  - the digest gate firing on a corrupted verdict and on a changed
 *    work counter, and staying quiet on a lanes/simd-only change.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "golden.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

int failures = 0;
int checks = 0;

void
expect(bool ok, const std::string &what)
{
    ++checks;
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testTail()
{
    std::vector<double> ten(10, 1.0);
    expect(!tail(ten).valid, "tail undefined with 10 samples");

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Tail t = tail(v);
    expect(t.valid && near(t.value, 90) && near(t.percentile, 90) &&
               t.samples == 100,
           "tail of 1..100 is p90 = 90 (10 samples beyond)");

    std::vector<double> w;
    for (int i = 1; i <= 1000; ++i)
        w.push_back(i);
    const Tail u = tail(w);
    expect(near(u.value, 990) && near(u.percentile, 99), "tail of 1..1000 is p99");
    std::size_t beyond = 0;
    for (const double x : w)
        beyond += x > u.value;
    expect(beyond == kTailBeyond, "exactly ten samples beyond the tail");

    std::vector<double> eleven;
    for (int i = 1; i <= 11; ++i)
        eleven.push_back(i);
    expect(near(tail(eleven).value, 1), "tail of 11 samples is the minimum");

    const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
           "quartiles of 1..10 match statistics.quantiles");
    expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
           "median of odd and even samples");
}

trace::SpanRecord
span(const char *name, const char *cat, std::int64_t s, std::int64_t e,
     int parent)
{
    trace::SpanRecord r;
    r.name = name;
    r.cat = cat;
    r.startNs = s;
    r.endNs = e;
    r.parent = parent;
    r.pass = 0;
    return r;
}

void
testSpans()
{
    // pass [0,100): layer A [10,40) with child B [20,30), layer C
    // [50,90), bench glue D [90,95), and E [35,60) from another
    // thread overlapping A and C.
    std::vector<trace::SpanRecord> s = {
        span("pass", trace::kBench, 0, 100, -1),
        span("A", "ingest", 10, 40, 0),
        span("B", "sim", 20, 30, 1),
        span("C", "fault", 50, 90, 0),
        span("D", trace::kBench, 90, 95, 0),
        span("E", "server", 35, 60, 0),
    };
    s[5].tid = 1;
    const std::vector<double> self = trace::selfTimes(s);
    expect(near(self[1], 20e-9), "self(A) = 30 - child 10");
    expect(near(self[2], 10e-9), "self(B) = its whole span");
    // Union of A, C, D, E = [10,95) = 85 covered of 100.
    expect(near(self[0], 15e-9), "self(pass) subtracts the union of children");
    // Non-bench union: A, B, C, E = [10,90) = 80.
    expect(near(trace::coverage(s, 0), 0.8), "coverage = layer union / pass");

    // A probe span never counts toward a pass.
    s.push_back(span("P", "sim", 0, 100, -1));
    s.back().probe = true;
    expect(near(trace::coverage(s, 0), 0.8), "probe spans are not coverage");

    expect(trace::unionLength({{0, 10}, {5, 15}, {20, 30}, {25, 26}}) == 25,
           "interval union");
}

void
testDigestGate()
{
    const std::string verdict = "{\n  \"patterns_applied\": 4096,\n"
                                "  \"lanes\": 512,\n  \"simd\": \"avx512\",\n"
                                "  \"detected\": 5,\n  \"unsafe\": 0\n}\n";
    Golden g;
    g.put("comb/x/p4096/s1", {verdictDigest(verdict), 1, "det=5,uns=0"});
    expect(g.check("comb/x/p4096/s1", verdictDigest(verdict), 1,
                   "det=5,uns=0")
               .empty(),
           "gate passes the golden verdict");

    std::string corrupt = verdict;
    corrupt[corrupt.find("5,")] = '6';
    expect(!g.check("comb/x/p4096/s1", verdictDigest(corrupt), 1,
                    "det=5,uns=0")
                .empty(),
           "gate fires on a corrupted verdict");

    std::string host = verdict;
    host.replace(host.find("512"), 3, "256");
    host.replace(host.find("avx512"), 6, "avx2");
    expect(verdictDigest(host) == verdictDigest(verdict),
           "lanes/simd lines do not enter the digest");

    expect(!g.check("comb/x/p4096/s1", verdictDigest(verdict), 1,
                    "det=5,uns=1")
                .empty(),
           "gate fires on a changed counter at the golden thread count");
    expect(g.check("comb/x/p4096/s1", verdictDigest(verdict), 4,
                   "det=5,uns=1")
               .empty(),
           "counters are not compared at another thread count");
    expect(!g.check("comb/y/p4096/s1", verdictDigest(verdict), 1, "").empty(),
           "gate fires on a missing golden entry");
}

} // namespace

int
main()
{
    testTail();
    testSpans();
    testDigestGate();
    std::printf("%d checks, %d failed\n", checks, failures);
    return failures ? 1 : 0;
}
