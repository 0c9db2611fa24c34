#include "sim/flat.hh"

#include <algorithm>
#include <bit>

namespace scal::sim
{

using namespace netlist;

namespace
{

/** Bound on one column tile's reach table (see fanoutCones). */
constexpr std::size_t kConeTableBytes = std::size_t{1} << 20;

/**
 * The tiled reach pass of fanoutCones: calls @p visit(c0, c1, tw, rows)
 * once per column tile [c0, c1) of topological positions. The tw words
 * at rows + p * tw are the cone of position p restricted to the tile,
 * bit j standing for position c0 + j; rows exist for p < c1 only, as
 * no later position reaches the tile.
 */
template <class Visit>
void
forEachConeTile(const FlatNetlist &flat, Visit &&visit)
{
    const int n = flat.numGates();
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    const std::size_t tw = std::clamp<std::size_t>(
        kConeTableBytes / 8 / static_cast<std::size_t>(std::max(n, 1)), 1,
        std::max<std::size_t>(words, 1));
    const int tile = static_cast<int>(64 * tw);
    const std::vector<GateId> &topo = flat.topoOrder();
    std::vector<std::uint64_t> rows;
    rows.reserve(static_cast<std::size_t>(n) * tw);
    for (int c0 = 0; c0 < n; c0 += tile) {
        const int c1 = std::min(n, c0 + tile);
        rows.assign(static_cast<std::size_t>(c1) * tw, 0);
        for (int p = c1; p-- > 0;) {
            std::uint64_t *row =
                rows.data() + static_cast<std::size_t>(p) * tw;
            std::size_t w0 = 0; // words before w0 hold only columns < p
            if (p >= c0) {
                w0 = static_cast<std::size_t>(p - c0) / 64;
                row[w0] |= std::uint64_t{1} << ((p - c0) % 64);
            }
            const GateId g = topo[static_cast<std::size_t>(p)];
            const std::int32_t *cp = flat.consumerPositions(g);
            for (int k = 0; k < flat.fanoutDegree(g); ++k) {
                if (cp[k] >= c1)
                    continue;
                const std::uint64_t *src =
                    rows.data() + static_cast<std::size_t>(cp[k]) * tw;
                for (std::size_t w = w0; w < tw; ++w)
                    row[w] |= src[w];
            }
        }
        visit(c0, c1, tw, rows.data());
    }
}

} // namespace

FlatNetlist::FlatNetlist(const Netlist &net)
{
    net.validate();

    n_ = net.numGates();
    ni_ = net.numInputs();
    no_ = net.numOutputs();
    kinds_.resize(n_);
    for (GateId g = 0; g < n_; ++g)
        kinds_[g] = net.gate(g).kind;

    // Fanin CSR.
    faninOff_.assign(n_ + 1, 0);
    for (GateId g = 0; g < n_; ++g) {
        const int a = static_cast<int>(net.gate(g).fanin.size());
        faninOff_[g + 1] = faninOff_[g] + a;
        maxArity_ = std::max(maxArity_, a);
    }
    fanins_.resize(faninOff_[n_]);
    for (GateId g = 0; g < n_; ++g) {
        std::copy(net.gate(g).fanin.begin(), net.gate(g).fanin.end(),
                  fanins_.begin() + faninOff_[g]);
    }

    // Combinational consumer CSR. A Dff's D pin is a real fault site
    // but not a combinational edge: the Dff output comes from the
    // state vector, so changes never propagate through it within a
    // period. Excluding those edges here is what lets cone traversal
    // stop at sequential boundaries.
    consOff_.assign(n_ + 1, 0);
    for (GateId g = 0; g < n_; ++g) {
        for (auto [c, pin] : net.consumers(g)) {
            (void)pin;
            if (kinds_[c] != GateKind::Dff)
                ++consOff_[g + 1];
        }
    }
    for (GateId g = 0; g < n_; ++g)
        consOff_[g + 1] += consOff_[g];
    cons_.resize(consOff_[n_]);
    {
        std::vector<std::int32_t> at(consOff_.begin(),
                                     consOff_.end() - 1);
        for (GateId g = 0; g < n_; ++g) {
            for (auto [c, pin] : net.consumers(g)) {
                (void)pin;
                if (kinds_[c] != GateKind::Dff)
                    cons_[at[g]++] = c;
            }
        }
    }

    // Output-tap CSR.
    tapOff_.assign(n_ + 1, 0);
    for (GateId g = 0; g < n_; ++g)
        tapOff_[g + 1] =
            tapOff_[g] + static_cast<std::int32_t>(net.outputTaps(g).size());
    taps_.resize(tapOff_[n_]);
    for (GateId g = 0; g < n_; ++g) {
        std::copy(net.outputTaps(g).begin(), net.outputTaps(g).end(),
                  taps_.begin() + tapOff_[g]);
    }

    // Topological order, positions, levels.
    topo_ = net.topoOrder();
    topoPos_.assign(n_, 0);
    for (int i = 0; i < n_; ++i)
        topoPos_[topo_[i]] = i;
    consPos_.resize(cons_.size());
    for (std::size_t e = 0; e < cons_.size(); ++e)
        consPos_[e] = topoPos_[cons_[e]];
    level_.assign(n_, 0);
    for (GateId g : topo_) {
        if (kinds_[g] == GateKind::Dff)
            continue; // source within the period
        int lvl = 0;
        for (int k = faninOff_[g]; k < faninOff_[g + 1]; ++k)
            lvl = std::max(lvl, level_[fanins_[k]] + 1);
        level_[g] = lvl;
        nlevels_ = std::max(nlevels_, lvl + 1);
    }

    // O(1) lookup tables replacing the evaluators' linear scans.
    inputIndex_.assign(n_, -1);
    for (std::size_t i = 0; i < net.inputs().size(); ++i)
        inputIndex_[net.inputs()[i]] = static_cast<std::int32_t>(i);
    ffIndex_.assign(n_, -1);
    for (GateId g = 0; g < n_; ++g) {
        if (kinds_[g] == GateKind::Dff) {
            ffIndex_[g] = nff_++;
            ffGates_.push_back(g);
            ffLatch_.push_back(net.gate(g).latch);
            ffInit_.push_back(net.gate(g).init ? 1 : 0);
        }
    }

    outputs_ = net.outputs();
}

std::vector<std::int32_t>
fanoutConeSizes(const FlatNetlist &flat)
{
    std::vector<std::int32_t> size(
        static_cast<std::size_t>(flat.numGates()), 0);
    const std::vector<GateId> &topo = flat.topoOrder();
    forEachConeTile(flat, [&](int, int c1, std::size_t tw,
                              const std::uint64_t *rows) {
        for (int p = 0; p < c1; ++p) {
            const std::uint64_t *row =
                rows + static_cast<std::size_t>(p) * tw;
            std::int32_t count = 0;
            for (std::size_t w = 0; w < tw; ++w)
                count += std::popcount(row[w]);
            const GateId g = topo[static_cast<std::size_t>(p)];
            size[static_cast<std::size_t>(g)] += count;
        }
    });
    return size;
}

FanoutCones
fanoutCones(const FlatNetlist &flat, const std::vector<GateId> &seeds)
{
    // Sized by one pass, filled by a second, so each cone is written
    // once, in place.
    const std::vector<std::int32_t> size = fanoutConeSizes(flat);
    FanoutCones out;
    out.off.assign(seeds.size() + 1, 0);
    for (std::size_t i = 0; i < seeds.size(); ++i)
        out.off[i + 1] =
            out.off[i] + size[static_cast<std::size_t>(seeds[i])];
    out.data.resize(static_cast<std::size_t>(out.off.back()));
    std::vector<std::int32_t> at(out.off.begin(), out.off.end() - 1);
    const std::vector<GateId> &topo = flat.topoOrder();
    forEachConeTile(flat, [&](int c0, int c1, std::size_t tw,
                              const std::uint64_t *rows) {
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            const int p = flat.topoPos(seeds[i]);
            if (p >= c1)
                continue;
            const std::uint64_t *row = rows + static_cast<std::size_t>(p) * tw;
            GateId *dst = out.data.data() + at[i];
            for (std::size_t w = 0; w < tw; ++w) {
                const std::size_t col = static_cast<std::size_t>(c0) + 64 * w;
                for (std::uint64_t bits = row[w]; bits; bits &= bits - 1)
                    *dst++ = topo[col + static_cast<std::size_t>(
                                            std::countr_zero(bits))];
            }
            at[i] = static_cast<std::int32_t>(dst - out.data.data());
        }
    });
    return out;
}

} // namespace scal::sim
