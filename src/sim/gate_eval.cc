#include "sim/gate_eval.hh"

namespace scal::sim
{

std::uint64_t
thresholdWord(const std::uint64_t *in, std::size_t n, bool majority)
{
    // Ripple-add each input word into a bit-sliced accumulator.
    std::uint64_t acc[32]; // acc[k] = bit k of per-lane count
    std::size_t bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t carry = in[i];
        for (std::size_t k = 0; k < bits && carry; ++k) {
            std::uint64_t s = acc[k] ^ carry;
            carry = acc[k] & carry;
            acc[k] = s;
        }
        if (carry)
            acc[bits++] = carry;
    }
    // Odd arity means no ties: MAJ = count > floor(n/2), MIN = ¬MAJ.
    std::uint64_t gt = 0, eqsofar = ~std::uint64_t{0};
    for (std::size_t k = bits; k-- > 0;) {
        const std::uint64_t cnt = acc[k];
        const std::uint64_t thr_bit =
            ((n / 2) >> k) & 1 ? ~std::uint64_t{0} : 0;
        gt |= eqsofar & cnt & ~thr_bit;
        eqsofar &= ~(cnt ^ thr_bit);
    }
    return majority ? gt : ~gt;
}

} // namespace scal::sim
