#include "server/circuit_memo.hh"

#include <algorithm>
#include <functional>
#include <utility>

namespace scal::server
{

namespace
{

std::size_t
heapBytes(const std::string &s)
{
    return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

/** Resident bytes of one entry: the text, plus the netlist's gate
 *  records, fan-in lists, names and topology caches (a consumer per
 *  fan-in pin, a topological slot, consumer and tap lists per gate). */
std::size_t
entryBytes(const std::string &text, const netlist::Netlist &net)
{
    using netlist::GateId;
    std::size_t bytes = text.size() + sizeof(netlist::Netlist);
    constexpr std::size_t perGate =
        sizeof(netlist::Gate) + sizeof(GateId) +
        2 * sizeof(std::vector<int>);
    constexpr std::size_t perPin =
        sizeof(GateId) + sizeof(std::pair<GateId, int>);
    for (GateId g = 0; g < net.numGates(); ++g) {
        const netlist::Gate &gate = net.gate(g);
        bytes += perGate + perPin * gate.fanin.size() + heapBytes(gate.name);
    }
    for (int i = 0; i < net.numOutputs(); ++i)
        bytes += sizeof(GateId) + sizeof(std::string) +
                 heapBytes(net.outputName(i));
    return bytes + sizeof(GateId) * static_cast<std::size_t>(net.numInputs());
}

} // namespace

CircuitMemo::Entry *
CircuitMemo::findLocked(std::size_t textHash, const std::string &text,
                        ingest::Format format, bool harden)
{
    for (Entry &e : entries_)
        if (e.textHash == textHash && e.format == format &&
            e.harden == harden && e.text == text)
            return &e;
    return nullptr;
}

bool
CircuitMemo::find(const std::string &text, ingest::Format format,
                  bool harden, netlist::Netlist *net,
                  std::uint64_t *netHash)
{
    const std::size_t textHash = std::hash<std::string>{}(text);
    std::lock_guard<std::mutex> lock(mu_);
    Entry *e = findLocked(textHash, text, format, harden);
    if (!e) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    e->lastUse = ++clock_;
    *net = e->net;
    *netHash = e->netHash;
    return true;
}

void
CircuitMemo::insert(const std::string &text, ingest::Format format,
                    bool harden, const netlist::Netlist &net,
                    std::uint64_t netHash)
{
    const std::size_t bytes = entryBytes(text, net);
    if (bytes > kMaxBytes)
        return;
    Entry fresh{std::hash<std::string>{}(text), text, format, harden, net,
                netHash, bytes, 0};
    std::lock_guard<std::mutex> lock(mu_);
    // Connections that missed on one text at once each decode it;
    // the first to finish enters it.
    if (findLocked(fresh.textHash, text, format, harden))
        return;
    while (!entries_.empty() &&
           (entries_.size() >= kMaxEntries ||
            stats_.residentBytes + bytes > kMaxBytes)) {
        const auto lru = std::min_element(
            entries_.begin(), entries_.end(),
            [](const Entry &a, const Entry &b) {
                return a.lastUse < b.lastUse;
            });
        stats_.residentBytes -= lru->bytes;
        entries_.erase(lru);
    }
    fresh.lastUse = ++clock_;
    stats_.residentBytes += bytes;
    entries_.push_back(std::move(fresh));
}

CircuitMemo::Stats
CircuitMemo::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats out = stats_;
    out.entries = entries_.size();
    return out;
}

} // namespace scal::server
