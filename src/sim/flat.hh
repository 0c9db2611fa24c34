/**
 * @file
 * FlatNetlist: a netlist::Netlist compiled into contiguous
 * cache-friendly CSR arrays for the hot simulation kernels.
 *
 * The pointer-chasing Netlist representation (vector<Gate> of
 * vector<GateId> fanins, lazily built consumer caches) is what the
 * fault campaigns used to walk for every single fault x pattern-block
 * pair. FlatNetlist freezes one immutable snapshot of the structure:
 *
 *  - kinds[], fanin CSR, consumer CSR (combinational edges only,
 *    each with its consumer's topological position, which the replay
 *    kernel marks), per-gate output-tap lists,
 *  - the topological order, each gate's position in it, and its
 *    logic level,
 *  - O(1) GateId -> input-index and GateId -> flip-flop-index tables
 *    (replacing the linear scans the scalar/packed evaluators did per
 *    Dff gate).
 *
 * A FlatNetlist is self-contained (no reference back to the source
 * Netlist), cheap to copy, and safe to share read-only across worker
 * threads; per-thread mutable scratch lives in sim::FaultSimulator.
 */

#ifndef SCAL_SIM_FLAT_HH
#define SCAL_SIM_FLAT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hh"

namespace scal::sim
{

class FlatNetlist
{
  public:
    explicit FlatNetlist(const netlist::Netlist &net);

    int numGates() const { return n_; }
    int numInputs() const { return ni_; }
    int numOutputs() const { return no_; }
    int numFlipFlops() const { return nff_; }
    int numLevels() const { return nlevels_; }
    int maxArity() const { return maxArity_; }

    netlist::GateKind kind(netlist::GateId g) const
    {
        return kinds_[g];
    }

    /** @name Fanin CSR */
    /** @{ */
    int arity(netlist::GateId g) const
    {
        return faninOff_[g + 1] - faninOff_[g];
    }
    const netlist::GateId *fanins(netlist::GateId g) const
    {
        return fanins_.data() + faninOff_[g];
    }
    /** @} */

    /** @name Combinational consumer CSR (Dff D-pins excluded) */
    /** @{ */
    int fanoutDegree(netlist::GateId g) const
    {
        return consOff_[g + 1] - consOff_[g];
    }
    const netlist::GateId *consumers(netlist::GateId g) const
    {
        return cons_.data() + consOff_[g];
    }
    /** topoPos() of each consumers() entry. */
    const std::int32_t *consumerPositions(netlist::GateId g) const
    {
        return consPos_.data() + consOff_[g];
    }
    /** @} */

    /** @name Output taps: primary-output indices driven by g */
    /** @{ */
    int numTaps(netlist::GateId g) const
    {
        return tapOff_[g + 1] - tapOff_[g];
    }
    const std::int32_t *taps(netlist::GateId g) const
    {
        return taps_.data() + tapOff_[g];
    }
    /** @} */

    /** Combinational topological order (Dffs ordered as sources). */
    const std::vector<netlist::GateId> &topoOrder() const
    {
        return topo_;
    }
    /** Position of @p g within topoOrder(). */
    int topoPos(netlist::GateId g) const { return topoPos_[g]; }
    /** Logic level: 0 for sources, 1 + max(fanin level) otherwise. */
    int level(netlist::GateId g) const { return level_[g]; }

    /** Index of @p g within the primary inputs, or -1. */
    int inputIndex(netlist::GateId g) const { return inputIndex_[g]; }
    /** Index of @p g within the flip-flop state vector, or -1. */
    int ffIndex(netlist::GateId g) const { return ffIndex_[g]; }

    /** @name Flip-flop tables, indexed as net.flipFlops() */
    /** @{ */
    netlist::GateId ffGate(int i) const { return ffGates_[i]; }
    /** The gate driving flip-flop @p i's D pin. */
    netlist::GateId ffDriver(int i) const
    {
        return fanins_[faninOff_[ffGates_[i]]];
    }
    netlist::LatchMode ffLatch(int i) const { return ffLatch_[i]; }
    bool ffInit(int i) const { return ffInit_[i] != 0; }
    /** @} */

    /** Driving gate of primary output @p j. */
    netlist::GateId output(int j) const { return outputs_[j]; }
    const std::vector<netlist::GateId> &outputs() const
    {
        return outputs_;
    }

  private:
    int n_ = 0, ni_ = 0, no_ = 0, nff_ = 0, nlevels_ = 0, maxArity_ = 0;
    std::vector<netlist::GateKind> kinds_;
    std::vector<std::int32_t> faninOff_;
    std::vector<netlist::GateId> fanins_;
    std::vector<std::int32_t> consOff_;
    std::vector<netlist::GateId> cons_;
    std::vector<std::int32_t> consPos_;
    std::vector<std::int32_t> tapOff_;
    std::vector<std::int32_t> taps_;
    std::vector<netlist::GateId> topo_;
    std::vector<std::int32_t> topoPos_;
    std::vector<std::int32_t> level_;
    std::vector<std::int32_t> inputIndex_;
    std::vector<std::int32_t> ffIndex_;
    std::vector<netlist::GateId> ffGates_;
    std::vector<netlist::LatchMode> ffLatch_;
    std::vector<std::uint8_t> ffInit_;
    std::vector<netlist::GateId> outputs_;
};

/**
 * Fanout cones over the combinational consumer edges (a Dff D-pin ends
 * a cone): the cone of a gate is the gate plus its consumers' cones.
 * Both calls below make one bitset pass in reverse topological order,
 * OR-ing each gate's consumer rows into its own. The columns are
 * topological positions, cut into tiles so that one tile's table stays
 * within 1 MiB up to 131,072 gates (one word per gate beyond); a gate
 * reaches no column before its own position, so a tile's pass starts
 * at the tile's last column.
 */
struct FanoutCones
{
    /** Cone i is data[off[i], off[i+1]), in ascending topological
     *  position. */
    std::vector<std::int32_t> off;
    std::vector<netlist::GateId> data;

    std::span<const netlist::GateId> cone(std::size_t i) const
    {
        return {data.data() + off[i], data.data() + off[i + 1]};
    }
};

/** The fanout cones of @p seeds, one per seed in seed order. */
FanoutCones fanoutCones(const FlatNetlist &flat,
                        const std::vector<netlist::GateId> &seeds);

/** The gate count of every gate's fanout cone, indexed by GateId. */
std::vector<std::int32_t> fanoutConeSizes(const FlatNetlist &flat);

} // namespace scal::sim

#endif // SCAL_SIM_FLAT_HH
