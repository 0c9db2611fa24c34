/**
 * @file
 * The campaign daemon's memo of decoded inline circuits.
 *
 * A client that resubmits one circuit text under many seeds or
 * configs (`scal_cli --server`, a search loop that uses the simulator
 * as its fitness oracle) would otherwise pay the import, the
 * SCAL-hardening pass and netlist::contentHash on every submit, a
 * verdict-cache hit included. The memo keeps what those steps gave
 * for one (circuit text, requested format, harden flag): the netlist
 * and its content hash.
 *
 *  - A lookup finds an entry by a hash of the text and confirms it
 *    with a full byte compare, so two texts that differ by one
 *    comment byte are two entries (and one verdict-cache entry, as
 *    they decode to the same netlist).
 *  - Only decodes that succeeded are entered: a malformed text gets
 *    its typed, line-numbered error on every resubmit. A
 *    `circuit_path` submit is never memoized, because its file can
 *    change between submits.
 *  - At most kMaxEntries entries and kMaxBytes resident bytes (text
 *    plus an estimate of the netlist's heap), least recently used
 *    evicted first. An entry larger than kMaxBytes on its own is not
 *    kept.
 *  - A hit hands out a copy of the netlist. Netlist's topology caches
 *    are `mutable`, so the kept instance is only ever copied, under
 *    the memo's lock, and never reaches a cache-building const method.
 *
 * Each server::Server owns one memo, so a fresh daemon starts empty.
 * The header belongs to the server library: server/server.hh only
 * forward-declares the type.
 */

#ifndef SCAL_SERVER_CIRCUIT_MEMO_HH
#define SCAL_SERVER_CIRCUIT_MEMO_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ingest/import.hh"
#include "netlist/netlist.hh"
#include "server/jsonl.hh"
#include "server/scheduler.hh"

namespace scal::server
{

class CircuitMemo
{
  public:
    static constexpr std::size_t kMaxEntries = 16;
    static constexpr std::size_t kMaxBytes = std::size_t{64} << 20;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0; ///< inline lookups that found nothing
        std::size_t entries = 0;
        std::size_t residentBytes = 0;
    };

    /** On a hit, copy the entry's netlist and content hash into
     *  *@p net and *@p netHash. Counts a hit or a miss. */
    bool find(const std::string &text, ingest::Format format, bool harden,
              netlist::Netlist *net, std::uint64_t *netHash);

    /** Keep a decode that succeeded, evicting the least recently used
     *  entries to stay within the bound. */
    void insert(const std::string &text, ingest::Format format,
                bool harden, const netlist::Netlist &net,
                std::uint64_t netHash);

    Stats stats() const;

  private:
    struct Entry
    {
        std::size_t textHash = 0;
        std::string text;
        ingest::Format format = ingest::Format::Auto;
        bool harden = false;
        netlist::Netlist net;
        std::uint64_t netHash = 0;
        std::size_t bytes = 0;
        std::uint64_t lastUse = 0;
    };

    Entry *findLocked(std::size_t textHash, const std::string &text,
                      ingest::Format format, bool harden);

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0; ///< use counter behind Entry::lastUse
    Stats stats_;
};

/**
 * buildJobConfig (server/protocol.hh), with an inline circuit decoded
 * through @p memo when it is not null. The one decode path: the
 * one-argument form is this with no memo.
 */
JobConfig buildJobConfig(const jsonl::Value &req, CircuitMemo *memo);

/** The `circuits` object of a stats response. */
jsonl::Value circuitStatsJson(const CircuitMemo::Stats &stats);

} // namespace scal::server

#endif // SCAL_SERVER_CIRCUIT_MEMO_HH
