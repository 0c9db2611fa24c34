#include "seq_probe.hh"

#include <memory>
#include <vector>

#include "fault/collapse.hh"
#include "netlist/structure.hh"
#include "sim/flat.hh"
#include "sim/seq_fault_sim.hh"
#include "sim/simd.hh"
#include "sim/wide.hh"

using namespace scal;

namespace perfbench
{

void
probeSeqLayers(trace::Recorder &rec, const ingest::HardenedCircuit &hard,
               const fault::SeqCampaignOptions &opts)
{
    using trace::Span;
    const netlist::Netlist &net = hard.net;
    const fault::SeqCampaignSpec spec = hard.campaignSpec();
    std::unique_ptr<sim::FlatNetlist> flat;
    {
        Span s(&rec, "sim.flat_compile", "sim");
        flat = std::make_unique<sim::FlatNetlist>(net);
    }
    {
        Span s(&rec, "sim.seq_trace", "sim");
        const int ni = net.numInputs();
        const int wg = sim::laneWordsForLanes(opts.lanes);
        const int wb = sim::kMaxLaneWords;
        std::vector<std::uint8_t> hold(static_cast<std::size_t>(ni), 0);
        for (const int i : spec.holdInputs)
            hold[static_cast<std::size_t>(i)] = 1;
        const auto words = fault::buildSymbolWords(ni, spec.phiInput,
                                                   opts.symbols, opts.seed, wg);
        sim::SeqGoodTrace good(*flat, spec.phiInput, wb, opts.simd);
        good.reservePeriods(2 * opts.symbols);
        std::vector<std::uint64_t> in(static_cast<std::size_t>(ni) * wb);
        std::vector<std::uint64_t> inbar(in.size());
        for (long s = 0; s < opts.symbols; ++s) {
            for (int i = 0; i < ni; ++i)
                for (int w = 0; w < wb; ++w) {
                    const std::uint64_t v =
                        words[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(i) * wg + w % wg];
                    const std::size_t idx = static_cast<std::size_t>(i) * wb + w;
                    in[idx] = v;
                    inbar[idx] = (i == spec.phiInput || hold[i]) ? v : ~v;
                }
            good.stepPeriod(in.data());
            good.stepPeriod(inbar.data());
        }
    }
    {
        Span s(&rec, "fault.collapse", "fault");
        fault::CollapseOptions co;
        co.constRefine = co.dominance = opts.dominance;
        co.seq = opts.seqDominance &&
                 (opts.seqDominanceForce || !netlist::looksSelfDualHardened(net));
        co.seqTimeFrame = co.seq; // the benchmark's window is the whole run
        fault::collapseFaults(net, co);
    }
}

} // namespace perfbench
