/**
 * @file
 * One option table per campaign kind. A row declares an option once:
 * its name, how its value is spelled, its canonical-key field and the
 * config field it sets. Every surface that spells campaign options
 * walks the rows: scal_cli flags (`--name VALUE`, dashes for
 * underscores, `--name` / `--no-name` for bools), shard worker argv
 * (fault/shard.hh), the canonical config key (fault/report.hh) and the
 * daemon's `config` object, keyed by the row name (server/protocol.hh).
 * Run settings — jobs, worker shards, output and checkpoint flags —
 * are not rows: they change how a campaign runs, never what it
 * computes.
 */

#ifndef SCAL_FAULT_OPTIONS_HH
#define SCAL_FAULT_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fault/campaign.hh"
#include "fault/seq_campaign.hh"
#include "netlist/netlist.hh"

namespace scal::fault
{

/** How an option's value is spelled and checked. */
enum class OptionKind
{
    Unsigned,  ///< non-negative integer
    Signed,    ///< integer
    Bool,      ///< --name / --no-name; JSON true / false; key 1 / 0
    Simd,      ///< auto|portable|avx2|avx512
    Window,    ///< "START:END" in periods
    IndexList, ///< "I,J,..." (JSON: an array); order kept
    IndexSet,  ///< like IndexList; the key sorts and deduplicates it
    InputName, ///< a primary input's name, stored as its index
};

/** Everything a sequential campaign is configured by. */
struct SeqCampaignConfig
{
    SeqCampaignOptions opts;
    SeqCampaignSpec spec;
};

/** Where a row's value is stored. A pair is set as one: a window's
 *  start and end, or a bool and the flag that forces it (no value
 *  while on but unforced: the default, which no surface spells). */
using OptionField =
    std::variant<std::uint64_t *, int *, long *, bool *, sim::SimdTarget *,
                 std::vector<int> *, std::pair<long *, long *>,
                 std::pair<bool *, bool *>>;

/** One option, bound to its field in a config. */
struct OptionRow
{
    /** Protocol key; the CLI flag is `--` + name with '-' for '_'. */
    const char *name;
    OptionKind kind;
    /** Field name in the canonical config key; nullptr for options
     *  that cannot change a verdict. */
    const char *key;
    OptionField field;
};

/** The option table of a campaign kind, in key order, bound to the
 *  fields of @p cfg. */
std::vector<OptionRow> optionRows(CampaignOptions &cfg);
std::vector<OptionRow> optionRows(SeqCampaignConfig &cfg);

/** The row's value, spelled as its CLI value (a bool as 1 or 0);
 *  none for an InputName row (its index row spells the field) or a
 *  forcing pair at its default. */
std::optional<std::string> optionText(const OptionRow &row);

/** Set the row's field from its CLI spelling @p text (a bool as 1 or
 *  0; an input name resolves against @p net). Throws
 *  std::runtime_error naming @p label when @p text is no such value. */
void setOption(const OptionRow &row, const std::string &text,
               const netlist::Netlist &net, const std::string &label);

/** When args[*i] is a row's flag, set the row from it (and from the
 *  next argument, unless a bool), leave *i on the last argument used
 *  and return true. */
bool applyOptionFlag(const std::vector<OptionRow> &rows,
                     const std::vector<std::string> &args, std::size_t *i,
                     const netlist::Netlist &net);

/** The flags that reproduce every row with a value. */
std::vector<std::string> optionArgs(const std::vector<OptionRow> &rows);

/** "TAG;key=value;..." over the rows with a key field. */
std::string optionKey(const char *tag, const std::vector<OptionRow> &rows);

/** Sequential defaults on @p net: φ is the input named "phi", when
 *  there is one. */
SeqCampaignConfig defaultSeqConfig(const netlist::Netlist &net);

} // namespace scal::fault

#endif // SCAL_FAULT_OPTIONS_HH
