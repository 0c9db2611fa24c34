/**
 * @file
 * Small bit-manipulation helpers shared across the SCAL libraries.
 */

#ifndef SCAL_UTIL_BITS_HH
#define SCAL_UTIL_BITS_HH

#include <bit>
#include <cstdint>
#include <cstddef>

namespace scal::util
{

/** Number of 64-bit words needed to hold @p nbits bits. */
constexpr std::size_t
wordsFor(std::size_t nbits)
{
    return (nbits + 63) / 64;
}

/** Mask selecting the low @p nbits bits of a word (nbits in [0,64]). */
constexpr std::uint64_t
lowMask(std::size_t nbits)
{
    return nbits >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << nbits) - 1);
}

/** Population count of a 64-bit word. */
inline int
popcount(std::uint64_t w)
{
    return std::popcount(w);
}

/** Parity (modulo-2 popcount) of a 64-bit word. */
inline bool
parity(std::uint64_t w)
{
    return std::popcount(w) & 1;
}

/** Extract bit @p i of @p w. */
inline bool
getBit(std::uint64_t w, unsigned i)
{
    return (w >> i) & 1;
}

/**
 * Transpose the 64x64 bit matrix @p a in place: afterwards bit c of
 * a[r] is the former bit r of a[c]. Six rounds of block swaps, each
 * exchanging the off-diagonal j x j blocks of every 2j x 2j block.
 */
inline void
transpose64(std::uint64_t a[64])
{
    std::uint64_t m = 0x00000000ffffffffULL;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

} // namespace scal::util

#endif // SCAL_UTIL_BITS_HH
