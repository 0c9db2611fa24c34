#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

namespace perfbench::trace
{

namespace
{

/** Small stable thread numbers for the trace file. */
int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local const int tid = next++;
    return tid;
}

/** Open spans of the calling thread, innermost last. */
std::vector<int> &
openStack()
{
    thread_local std::vector<int> stack;
    return stack;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t curS = 0, curE = 0;
    bool have = false;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (!have || s > curE) {
            if (have)
                total += curE - curS;
            curS = s;
            curE = e;
            have = true;
        } else {
            curE = std::max(curE, e);
        }
    }
    if (have)
        total += curE - curS;
    return total;
}

std::vector<double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRecord &s : spans)
        if (s.parent >= 0) {
            const SpanRecord &p = spans[static_cast<std::size_t>(s.parent)];
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                std::max(s.startNs, p.startNs), std::min(s.endNs, p.endNs));
        }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = (spans[i].endNs - spans[i].startNs -
                   unionLength(std::move(kids[i]))) *
                  1e-9;
    return self;
}

double
coverage(const std::vector<SpanRecord> &spans, int passSpan)
{
    const SpanRecord &root = spans[static_cast<std::size_t>(passSpan)];
    const std::int64_t dur = root.endNs - root.startNs;
    if (dur <= 0)
        return 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const SpanRecord &s : spans)
        if (s.pass == root.pass && s.cat != kBench && !s.probe)
            iv.emplace_back(std::max(s.startNs, root.startNs),
                            std::min(s.endNs, root.endNs));
    return static_cast<double>(unionLength(std::move(iv))) /
           static_cast<double>(dur);
}

Recorder::Recorder() : epoch_(Clock::now()) {}

int
Recorder::open(const std::string &name, const std::string &cat)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    std::vector<int> &stack = openStack();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord s;
    s.name = name;
    s.cat = cat;
    s.startNs = now;
    s.parent = stack.empty() ? -1 : stack.back();
    s.tid = threadNumber();
    s.pass = openPass_;
    s.probe = probe_;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack.push_back(index);
    return index;
}

void
Recorder::close(int index)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    std::vector<int> &stack = openStack();
    if (!stack.empty() && stack.back() == index)
        stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].endNs = now;
}

int
Recorder::beginPass()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        openPass_ = static_cast<int>(passRoots_.size());
        passAdds_.emplace_back();
    }
    const int root = open("pass", kBench);
    std::lock_guard<std::mutex> lock(mu_);
    passRoots_.push_back(root);
    return root;
}

void
Recorder::endPass()
{
    int root = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        root = passRoots_.back();
    }
    close(root);
    std::lock_guard<std::mutex> lock(mu_);
    openPass_ = -1;
}

void
Recorder::setProbe(bool probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    probe_ = probe;
}

void
Recorder::add(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (openPass_ >= 0)
        passAdds_[static_cast<std::size_t>(openPass_)][name] += value;
    else if (probe_)
        probeAdds_[name] += value;
}

std::vector<std::map<std::string, double>>
Recorder::passTotals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::map<std::string, double>> out = passAdds_;
    for (const SpanRecord &s : spans_)
        if (s.pass >= 0 && !s.probe && s.endNs >= 0)
            out[static_cast<std::size_t>(s.pass)][s.name] += s.seconds();
    return out;
}

std::map<std::string, double>
Recorder::probeTotals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out = probeAdds_;
    for (const SpanRecord &s : spans_)
        if (s.probe && s.endNs >= 0)
            out[s.name] += s.seconds();
    return out;
}

std::vector<int>
Recorder::passSpans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return passRoots_;
}

std::vector<SpanRecord>
Recorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
Recorder::chromeJson() const
{
    const std::vector<SpanRecord> all = spans();
    const std::vector<double> self = selfTimes(all);
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[96];
    bool first = true;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        if (s.endNs < 0)
            continue;
        os << (first ? "" : ",\n") << "{\"name\": " << jsonString(s.name)
           << ", \"cat\": " << jsonString(s.cat) << ", \"ph\": \"X\"";
        std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                      s.startNs * 1e-3, (s.endNs - s.startNs) * 1e-3);
        os << buf << ", \"pid\": 1, \"tid\": " << s.tid
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"pass\": " << s.pass
           << ", \"probe\": " << (s.probe ? "true" : "false");
        std::snprintf(buf, sizeof buf, ", \"self_us\": %.3f}}",
                      self[i] * 1e6);
        os << buf;
        first = false;
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace perfbench::trace
