/**
 * @file
 * Contract tests for fault::collapseFaults: the classOf map is total
 * and consistent, every representative lands in its own class, the
 * equivalence chains are behaviorally exact (all members of a class
 * share the per-fault campaign verdict), dominance-pruned classes are
 * genuinely Untestable, and ratio() is monotonically non-increasing
 * as constRefine / dominance turn on.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/collapse.hh"
#include "ingest/harden.hh"
#include "netlist/circuits.hh"
#include "netlist/structure.hh"
#include "oracle/per_fault_campaign.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using namespace netlist;

/** The four option corners, in pruning-power order. */
const fault::CollapseOptions kCorners[] = {
    {.constRefine = false, .dominance = false},
    {.constRefine = true, .dominance = false},
    {.constRefine = false, .dominance = true},
    {.constRefine = true, .dominance = true},
};

void
checkStructure(const Netlist &net, const fault::CollapseOptions &opts,
               const char *label)
{
    const auto col = fault::collapseFaults(net, opts);
    const auto faults = net.allFaults();

    // Totality: one class id per original fault, all in range.
    ASSERT_EQ(col.classOf.size(), faults.size()) << label;
    EXPECT_EQ(col.totalFaults, static_cast<int>(faults.size()))
        << label;
    const int num_classes = static_cast<int>(col.representatives.size());
    for (std::size_t i = 0; i < col.classOf.size(); ++i) {
        ASSERT_GE(col.classOf[i], 0) << label << " fault " << i;
        ASSERT_LT(col.classOf[i], num_classes) << label << " fault " << i;
    }

    // Surjectivity + self-membership: representative c is an original
    // fault and maps to class c.
    std::vector<char> hit(static_cast<std::size_t>(num_classes), 0);
    for (int c = 0; c < num_classes; ++c) {
        const Fault &rep = col.representatives[static_cast<std::size_t>(c)];
        bool found = false;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (faults[i] == rep) {
                EXPECT_EQ(col.classOf[i], c)
                    << label << " representative of class " << c
                    << " maps elsewhere";
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << label << " representative of class " << c
                           << " is not an original fault";
    }
    for (int c : col.classOf)
        hit[static_cast<std::size_t>(c)] = 1;
    for (int c = 0; c < num_classes; ++c)
        EXPECT_TRUE(hit[static_cast<std::size_t>(c)])
            << label << " class " << c << " is empty";

    // Pruning bookkeeping.
    ASSERT_EQ(col.pruned.size(), static_cast<std::size_t>(num_classes))
        << label;
    int pruned_classes = 0, pruned_faults = 0;
    for (int c = 0; c < num_classes; ++c)
        pruned_classes += col.pruned[static_cast<std::size_t>(c)] ? 1 : 0;
    for (int c : col.classOf)
        pruned_faults += col.pruned[static_cast<std::size_t>(c)] ? 1 : 0;
    EXPECT_EQ(col.prunedClasses, pruned_classes) << label;
    EXPECT_EQ(col.prunedFaults, pruned_faults) << label;
    if (!opts.dominance) {
        EXPECT_EQ(col.prunedClasses, 0) << label;
        EXPECT_EQ(col.prunedFaults, 0) << label;
    }
    EXPECT_EQ(col.simulatedClasses(), num_classes - pruned_classes)
        << label;
}

/**
 * Behavioral exactness on a small circuit: simulate EVERY fault
 * individually (all fault-parallel knobs off) and require that
 * same-class faults share the verdict — class members realize the
 * same faulty network function, so this holds under ANY fold.
 *
 * When @p alternating, additionally require dominance-pruned classes
 * to come out Untestable. That implication needs the self-dual
 * baseline: on a non-alternating network the campaign fold scores
 * outputs against the expected alternation rather than the fault-free
 * function, so even a no-effect fault accrues mask bits and pruning's
 * "faulty == good" argument says nothing about the verdict.
 */
void
checkExactness(const Netlist &net, const char *label,
               bool alternating = true)
{
    fault::CampaignOptions opts;
    opts.maxPatterns = std::uint64_t{1} << 20;
    // Raw random netlists are rarely self-dual; equivalence
    // exactness is a property of the verdicts, not of the
    // alternating precondition.
    opts.checkAlternating = alternating;
    const auto res = oracle::runPerFaultCampaign(net, opts);

    const auto faults = net.allFaults();
    ASSERT_EQ(res.faults.size(), faults.size()) << label;
    const auto col = fault::collapseFaults(
        net, {.constRefine = true, .dominance = true});

    std::vector<int> verdict(col.representatives.size(), -1);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        ASSERT_TRUE(res.faults[i].fault == faults[i]) << label;
        const int c = col.classOf[i];
        const int o = static_cast<int>(res.faults[i].outcome);
        if (verdict[static_cast<std::size_t>(c)] < 0)
            verdict[static_cast<std::size_t>(c)] = o;
        EXPECT_EQ(verdict[static_cast<std::size_t>(c)], o)
            << label << " class " << c << " splits at "
            << faultToString(net, faults[i]);
        if (alternating && col.pruned[static_cast<std::size_t>(c)]) {
            EXPECT_EQ(res.faults[i].outcome, fault::Outcome::Untestable)
                << label << " pruned class " << c << " detectable at "
                << faultToString(net, faults[i]);
        }
    }
}

/** ratio() must never increase as the analyses turn on. */
void
checkRatioMonotone(const Netlist &net, const char *label)
{
    const double base = fault::collapseFaults(net, kCorners[0]).ratio();
    const double refine = fault::collapseFaults(net, kCorners[1]).ratio();
    const double dom = fault::collapseFaults(net, kCorners[2]).ratio();
    const double both = fault::collapseFaults(net, kCorners[3]).ratio();
    EXPECT_LE(refine, base) << label;
    EXPECT_LE(dom, base) << label;
    EXPECT_LE(both, refine) << label;
    EXPECT_LE(both, dom) << label;
    EXPECT_GT(base, 0.0) << label;
    EXPECT_LE(base, 1.0) << label;
}

TEST(Collapse, StructureOnPaperCircuits)
{
    const struct
    {
        Netlist net;
        const char *label;
    } cases[] = {
        {circuits::selfDualFullAdder(), "full adder"},
        {circuits::section36Network(), "section 3.6"},
        {circuits::section36NetworkRepaired(), "section 3.6 repaired"},
        {circuits::rippleCarryAdder(4), "rca4"},
        {circuits::xorTree(9), "xor tree"},
    };
    for (const auto &cs : cases)
        for (const auto &opts : kCorners)
            checkStructure(cs.net, opts, cs.label);
}

TEST(Collapse, StructureOnRandomNetlists)
{
    util::Rng rng(0xc01lu);
    for (int it = 0; it < 25; ++it) {
        const Netlist net = testing::randomNetlist(
            4 + static_cast<int>(rng.below(4)),
            8 + static_cast<int>(rng.below(24)), rng);
        for (const auto &opts : kCorners)
            checkStructure(net, opts, "random");
    }
}

TEST(Collapse, EquivalenceAndPruningAreExact)
{
    checkExactness(circuits::selfDualFullAdder(), "full adder");
    checkExactness(circuits::section36Network(), "section 3.6");
    checkExactness(circuits::rippleCarryAdder(4), "rca4");

    util::Rng rng(0xd0d0lu);
    for (int it = 0; it < 10; ++it) {
        const Netlist net = testing::randomNetlist(
            4 + static_cast<int>(rng.below(3)),
            6 + static_cast<int>(rng.below(16)), rng);
        checkExactness(net, "random raw", /*alternating=*/false);
    }
    // Hardened versions are self-dual, so the full contract —
    // including pruned => Untestable — must hold.
    for (int it = 0; it < 4; ++it) {
        const Netlist raw = testing::randomNetlist(
            4 + static_cast<int>(rng.below(3)),
            8 + static_cast<int>(rng.below(12)), rng);
        checkExactness(ingest::hardenNetlist(raw).net,
                       "random hardened");
    }
}

TEST(Collapse, RatioMonotoneNonIncreasing)
{
    checkRatioMonotone(circuits::selfDualFullAdder(), "full adder");
    checkRatioMonotone(circuits::section36Network(), "section 3.6");
    checkRatioMonotone(circuits::rippleCarryAdder(8), "rca8");
    checkRatioMonotone(circuits::xorTree(9), "xor tree");

    util::Rng rng(0xabcdlu);
    for (int it = 0; it < 25; ++it) {
        const Netlist net = testing::randomNetlist(
            4 + static_cast<int>(rng.below(4)),
            8 + static_cast<int>(rng.below(40)), rng);
        checkRatioMonotone(net, "random");
    }
}

} // namespace
} // namespace scal
