/**
 * @file
 * The verdict-digest correctness gate. Every campaign the benchmark
 * runs is identified by a key — kind, circuit, size and campaign seed,
 * e.g. "comb/c432/p4096/s3" — and its verdict JSON must hash to the
 * committed golden digest before any timing of it counts. Alongside
 * the digest the golden file holds the deterministic work counters
 * (verdict counts, collapse classes, route counts, sequential period
 * and batch counters) at the engine thread count they were taken
 * with; a run at that thread count must repeat them exactly.
 *
 * The digest is host-independent: the verdict's "lanes" and "simd"
 * lines echo the resolved kernel width and SIMD build, which the
 * program guarantees do not change any verdict, so they are left out.
 */

#ifndef PERFBENCH_GOLDEN_HH
#define PERFBENCH_GOLDEN_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

/** FNV-1a 64 over the verdict JSON minus its lanes/simd lines, hex. */
std::string verdictDigest(const std::string &verdictJson);

struct GoldenEntry
{
    std::string digest;
    int jobs = 0;          ///< engine threads the counters were taken at
    std::string counters;  ///< "name=value,..." in a fixed order
};

class Golden
{
  public:
    /** Parse the golden file; throws std::runtime_error when it is
     *  missing or malformed. */
    static Golden load(const std::string &path);

    /**
     * Check one campaign. Returns "" when the digest matches and — at
     * the golden's thread count — the counters match too; otherwise a
     * one-line description of the mismatch.
     */
    std::string check(const std::string &key, const std::string &digest,
                      int jobs, const std::string &counters) const;

    void put(const std::string &key, GoldenEntry e);
    void write(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

  private:
    std::map<std::string, GoldenEntry> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_HH
