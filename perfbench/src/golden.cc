#include "golden.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

std::string
verdictDigest(const std::string &verdictJson)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::istringstream in(verdictJson);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"lanes\":") != std::string::npos ||
            line.find("\"simd\":") != std::string::npos)
            continue;
        line += '\n';
        for (const char c : line) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

Golden
Golden::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden digests " + path);
    Golden g;
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        GoldenEntry e;
        if (!(fields >> key >> e.digest >> e.jobs >> e.counters))
            throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                                     ": malformed golden line");
        g.entries_[key] = e;
    }
    return g;
}

std::string
Golden::check(const std::string &key, const std::string &digest, int jobs,
              const std::string &counters) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return key + ": no golden digest";
    if (it->second.digest != digest)
        return key + ": verdict digest " + digest + " != golden " +
               it->second.digest;
    if (jobs == it->second.jobs && counters != it->second.counters)
        return key + ": work counters " + counters + " != golden " +
               it->second.counters;
    return "";
}

void
Golden::put(const std::string &key, GoldenEntry e)
{
    entries_[key] = std::move(e);
}

void
Golden::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "# key digest jobs counters — regenerate with "
           "`python3 perfbench/run.py --write-golden`\n";
    for (const auto &[key, e] : entries_)
        out << key << " " << e.digest << " " << e.jobs << " " << e.counters
            << "\n";
}

} // namespace perfbench
