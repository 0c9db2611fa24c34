/**
 * @file
 * Benchmark-side tracing: RAII spans recorded around each call into a
 * layer of the program, kept in memory and written out at the end as
 * Chrome trace-event JSON (plain JSON that Perfetto and
 * chrome://tracing open without any dependency).
 *
 * A span has a name ("ingest.parse"), a category — the layer it
 * belongs to ("ingest", "netlist", "sim", "fault", "engine",
 * "server"), or "bench" for the benchmark's own structure — a start,
 * an end, the span that was open on the same thread when it began
 * (its parent), a thread number, and the pass it belongs to. Spans
 * of one daemon request share the request's span as their parent.
 *
 * Analysis:
 *  - self time = duration minus the part of the interval covered by
 *    child spans (children may overlap when they ran on other
 *    threads, so the covered part is the union, clipped to the span);
 *  - coverage of a pass = union of its layer spans (category not
 *    "bench") divided by the pass span's duration.
 *
 * With no Recorder (nullptr) a Span does nothing, which is how the
 * untraced runs measure the end-to-end metrics.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench::trace
{

using Clock = std::chrono::steady_clock;

/** Category of the benchmark's own structural spans. */
inline constexpr const char *kBench = "bench";

struct SpanRecord
{
    std::string name;
    std::string cat;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; ///< -1 while open
    int parent = -1;         ///< index into the span list, or -1
    int tid = 0;
    int pass = -1;           ///< traced pass index, -1 outside passes
    bool probe = false;      ///< a per-layer probe, never in wall_s

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/** Length of the union of [start, end) intervals. */
std::int64_t unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv);

/** Self time of every span, in seconds (aligned with @p spans). */
std::vector<double> selfTimes(const std::vector<SpanRecord> &spans);

/**
 * Coverage of the pass span at index @p passSpan: the union of every
 * non-bench span of that pass, clipped to the pass, over its duration.
 */
double coverage(const std::vector<SpanRecord> &spans, int passSpan);

class Recorder
{
  public:
    Recorder();

    /** Open a span on the calling thread; returns its index. */
    int open(const std::string &name, const std::string &cat);
    void close(int index);

    /** Start / end a traced pass: a root "pass" span plus a fresh
     *  bucket for add(). Returns the pass span's index. */
    int beginPass();
    void endPass();
    /** Mark spans opened from now on as probes (outside any pass). */
    void setProbe(bool probe);

    /** Accumulate a measured quantity into the current pass bucket
     *  (e.g. engine-reported seconds), or the probe bucket. */
    void add(const std::string &name, double value);

    /** Per traced pass: span seconds summed by name, plus add()ed
     *  values. */
    std::vector<std::map<std::string, double>> passTotals() const;
    /** Probe spans summed by name, plus add()ed probe values. */
    std::map<std::string, double> probeTotals() const;
    /** Span indices of the pass roots, in pass order. */
    std::vector<int> passSpans() const;

    std::vector<SpanRecord> spans() const;

    /** Chrome trace-event JSON ("X" complete events, microseconds),
     *  each event carrying its self time in args. */
    std::string chromeJson() const;

  private:
    mutable std::mutex mu_;
    Clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> passRoots_;
    std::vector<std::map<std::string, double>> passAdds_;
    std::map<std::string, double> probeAdds_;
    int openPass_ = -1;
    bool probe_ = false;
};

/** RAII span; a null recorder makes it a no-op. */
class Span
{
  public:
    Span(Recorder *rec, const std::string &name, const std::string &cat)
        : rec_(rec), index_(rec ? rec->open(name, cat) : -1)
    {
    }
    ~Span()
    {
        if (rec_)
            rec_->close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Recorder *rec_;
    int index_;
};

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
