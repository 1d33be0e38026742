/**
 * @file
 * Regenerates Figure 1: effective HBM bandwidth of 8xH100 vs SN40L-8 /
 * SN40L-16 on Llama-3.1 8B/70B token generation, replayed through the
 * roofline model from the published fractions of peak [5, 19]. The
 * qualitative claim: GPUs use under half of peak HBM bandwidth on these
 * memory-bound workloads, the SDA a much larger fraction.
 */
#include <iostream>

#include "analysis/roofline.hh"
#include "support/cli.hh"
#include "support/table.hh"

using namespace step;

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    std::cout << "=== Figure 1: SDA vs GPU effective bandwidth (TB/s) "
                 "===\n\n";
    Table t({"Workload", "Platform", "PeakHBM(TB/s)", "FracOfPeak",
             "Effective(TB/s)"});
    bool gpu_under_half = true;
    bool sda_over_half = true;
    for (const auto& b : figure1Bars()) {
        t.row()
            .cell(b.workload)
            .cell(b.platform)
            .cellF(b.peakHbmTBs, 1)
            .cellF(b.fracOfPeak, 2)
            .cellF(b.effectiveTBs(), 2);
        if (b.platform == "8xH100")
            gpu_under_half &= b.fracOfPeak < 0.5;
        else
            sda_over_half &= b.fracOfPeak > 0.5;
    }
    t.print();
    std::cout << "\ncheck: GPU under half of peak on all workloads: "
              << (gpu_under_half ? "PASS" : "FAIL") << "\n";
    std::cout << "check: SDA above half of peak on all workloads: "
              << (sda_over_half ? "PASS" : "FAIL") << "\n";
    return gpu_under_half && sda_over_half ? 0 : 1;
}
