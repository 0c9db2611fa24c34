/**
 * @file
 * The one checked integer parser behind every number the program
 * reads from outside: CLI and daemon flags, campaign options, config
 * objects, shard specs, Verilog constants and ranges, and the
 * benchmark generator's flags. A value must be all digits (a leading
 * '-' for signed types), with no space, sign or trailing text around
 * it, and must fit its type.
 */

#ifndef SCAL_UTIL_NUMBER_HH
#define SCAL_UTIL_NUMBER_HH

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace scal::util
{

/** Parse all of @p v into *@p n: std::errc() on success,
 *  result_out_of_range when it does not fit an N, and
 *  invalid_argument for anything that is not one whole number. */
template <class N>
std::errc
parseNumber(std::string_view v, N *n)
{
    const char *end = v.data() + v.size();
    const auto [stop, ec] = std::from_chars(v.data(), end, *n);
    if (ec == std::errc() && stop != end)
        return std::errc::invalid_argument;
    return ec;
}

/** Parse all of @p v as an N; otherwise throw std::runtime_error
 *  "LABEL needs a number, got 'V'" (or "LABEL is out of range: V"). */
template <class N>
N
checkedNumber(const std::string &label, const std::string &v)
{
    N n{};
    const std::errc ec = parseNumber(v, &n);
    if (ec == std::errc::result_out_of_range)
        throw std::runtime_error(label + " is out of range: " + v);
    if (ec != std::errc())
        throw std::runtime_error(
            label + " needs a " +
            (std::is_signed_v<N> ? "number" : "non-negative number") +
            ", got '" + v + "'");
    return n;
}

} // namespace scal::util

#endif // SCAL_UTIL_NUMBER_HH
