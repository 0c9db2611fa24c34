/**
 * @file
 * The one JSON string escaper shared by every JSON writer in the
 * repository: verdict documents, analysis reports and the daemon's
 * wire protocol. Netlist names come from files (the .bench reader
 * keeps any non-space byte), so every string a writer emits goes
 * through here.
 */

#ifndef SCAL_UTIL_JSON_HH
#define SCAL_UTIL_JSON_HH

#include <string>

namespace scal::util
{

/**
 * The body of a JSON string literal holding @p s (no quotes): `"`
 * and `\` get a backslash, \n \r \t their short escapes, and every
 * other byte below 0x20 a \u00XX escape. All other bytes pass
 * through unchanged, so a name with none of these encodes as itself.
 */
std::string jsonEscape(const std::string &s);

} // namespace scal::util

#endif // SCAL_UTIL_JSON_HH
