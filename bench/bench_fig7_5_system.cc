/**
 * @file
 * Experiment E13 — Figures 7.3/7.5 and the Section 7.4 analysis: the
 * SCAL computer. Per-workload fault-injection campaigns comparing
 * the unchecked CPU against the SCAL CPU, the ADR and Figure 7.5
 * fault-tolerant configurations, the measured SCAL conversion factor
 * A, and the hardware/time comparison table.
 */

#include <iostream>

#include "system/adr.hh"
#include "system/campaign.hh"
#include "system/cost.hh"
#include "system/tmr.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace scal;
using namespace scal::system;

int
main()
{
    util::banner(std::cout,
                 "E13 / Figure 7.3 — the SCAL computer: exhaustive "
                 "single-fault campaigns, ADD datapath");

    // Each workload is attacked through a datapath it actually
    // exercises.
    const AluOp attack[] = {AluOp::Add, AluOp::Add, AluOp::Shl,
                            AluOp::Xor, AluOp::PassB, AluOp::Add};
    util::Table t({"workload", "faulted ALU", "configuration",
                   "faults", "masked", "detected", "SILENT",
                   "mean detect step"});
    int wi = 0;
    for (const Workload &wl : standardWorkloads()) {
        const AluOp op = attack[wi++];
        const auto scal_res = runSystemCampaign(wl, op, true);
        const auto raw_res = runSystemCampaign(wl, op, false);
        t.addRow({wl.name, aluOpName(op), "unchecked CPU",
                  util::Table::num((long long)raw_res.total),
                  util::Table::num((long long)raw_res.masked), "0",
                  util::Table::num((long long)raw_res.silent), "-"});
        t.addRow({wl.name, aluOpName(op), "SCAL CPU (Fig 7.3)",
                  util::Table::num((long long)scal_res.total),
                  util::Table::num((long long)scal_res.masked),
                  util::Table::num((long long)scal_res.detected),
                  util::Table::num((long long)scal_res.silent),
                  util::Table::num(scal_res.meanDetectStep, 1)});
        t.addRule();
    }
    t.print(std::cout);
    std::cout << "\nThe SILENT column is the claim: the unchecked "
                 "CPU corrupts its output for most datapath faults; "
                 "the SCAL CPU never does — every consequential "
                 "fault stops the machine via a non-code word before "
                 "a wrong result commits.\n";

    util::banner(std::cout,
                 "Figure 7.5 / ADR — fault-tolerant configurations "
                 "(exhaustive ADD faults, 16 random operand pairs "
                 "each)");
    {
        const netlist::Netlist alu = aluNetlist(AluOp::Add);
        util::Rng rng(77);
        long long adr_ok = 0, adr_total = 0, f75_ok = 0, f75_total = 0;
        long long adr_retries = 0, f75_votes = 0;
        for (const netlist::Fault &fault : alu.allFaults()) {
            AdrAlu adr(AluOp::Add);
            adr.injectFault(fault);
            Fig75Alu f75(AluOp::Add);
            f75.injectFault(fault);
            for (int k = 0; k < 16; ++k) {
                const auto a = static_cast<std::uint8_t>(rng.below(256));
                const auto b = static_cast<std::uint8_t>(rng.below(256));
                const auto want = aluReference(AluOp::Add, a, b).value;
                const auto oa = adr.execute(a, b);
                ++adr_total;
                adr_ok += oa.result.value == want;
                adr_retries += oa.retried;
                const auto of = f75.execute(a, b);
                ++f75_total;
                f75_ok += of.result.value == want;
                f75_votes += of.voted;
            }
        }
        util::Table f({"configuration", "operations", "correct",
                       "recoveries triggered"});
        f.addRow({"ADR (duplicate + alternate data retry)",
                  util::Table::num(adr_total),
                  util::Table::num(adr_ok),
                  util::Table::num(adr_retries)});
        f.addRow({"normal + SCAL parallel, voted (Fig 7.5)",
                  util::Table::num(f75_total),
                  util::Table::num(f75_ok),
                  util::Table::num(f75_votes)});
        f.print(std::cout);
        std::cout << "\nBoth configurations return the correct result "
                     "under every injected single stuck-at fault; "
                     "they differ in hardware cost.\n";
    }

    util::banner(std::cout,
                 "Section 7.4 — hardware/time comparison (S = 2, "
                 "A measured from the CPU datapath)");
    const double a = measuredFactorA();
    std::cout << "\nmeasured SCAL conversion factor A = "
              << util::Table::num(a, 2)
              << " (paper's library average: 1.8)\n\n";
    util::Table costs({"configuration", "hardware (xN), A=1.8",
                       "hardware (xN), measured A", "time factor",
                       "detects", "corrects"});
    const auto paper_rows = section74Comparison(1.8);
    const auto meas_rows = section74Comparison(a);
    for (std::size_t i = 0; i < paper_rows.size(); ++i) {
        costs.addRow({paper_rows[i].name,
                      util::Table::num(paper_rows[i].hardware, 2),
                      util::Table::num(meas_rows[i].hardware, 2),
                      util::Table::num(paper_rows[i].timeFactor, 1),
                      paper_rows[i].detects ? "yes" : "no",
                      paper_rows[i].corrects ? "yes" : "no"});
    }
    costs.print(std::cout);
    std::cout
        << "\nShape, as in the thesis: ADR at A*S ~ 4N is worse than "
           "TMR (3N) for similar capability, while the Figure 7.5 "
           "parallel normal+SCAL system at (1+A)N undercuts TMR "
           "whenever A < 2 and still corrects single faults at full "
           "speed (falling to half speed only during recovery).\n";

    util::banner(std::cout, "Per-operation datapath costs");
    util::Table alu_t({"op", "unchecked gates", "SCAL gates",
                       "factor"});
    for (const AluCostRow &row : measureAluCosts()) {
        alu_t.addRow({aluOpName(row.op),
                      util::Table::num((long long)row.normalGates),
                      util::Table::num((long long)row.scalGates),
                      row.normalGates
                          ? util::Table::num(row.factor, 2)
                          : "- (wiring only)"});
    }
    alu_t.print(std::cout);
    std::cout << "\nThe adder line shows the paper's flagship case: "
                 "its SCAL form costs little extra because sum and "
                 "carry are inherently self-dual; the logical "
                 "operations pay the full self-dualization price.\n";
    return 0;
}
