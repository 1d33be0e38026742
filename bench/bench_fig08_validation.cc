/**
 * @file
 * Regenerates Figure 8 (section 4.5): cycle counts and off-chip traffic
 * of a SwiGLU layer across 15 tile configurations, comparing the
 * cycle-approximate STeP simulator against the cycle-level reference
 * ("HDL") model, with the Pearson correlation the paper reports (0.99 on
 * their testbed; the pass bar here is r > 0.9).
 */
#include <iostream>

#include "hdlref/swiglu.hh"
#include "support/cli.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace step;

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    std::cout << "=== Figure 8: STeP simulator vs cycle-level reference, "
                 "SwiGLU (batch=64, hidden=256, inter=512) ===\n\n";
    Table t({"TileSize(B,H,I)", "HDL cycles", "STeP cycles", "ratio",
             "traffic MB (both)", "traffic match"});
    std::vector<double> hdl_cycles;
    std::vector<double> step_cycles;
    bool traffic_ok = true;
    for (int64_t bt : {16, 32, 64}) {
        for (int64_t it : {16, 32, 64, 128, 256}) {
            SwigluConfig c;
            c.batchTile = bt;
            c.interTile = it;
            SwigluResult hdl = simulateSwigluHdl(c);
            SwigluResult stp = simulateSwigluStep(c);
            int64_t analytic = swigluTrafficBytes(c);
            bool match = hdl.offChipBytes == analytic &&
                         stp.offChipBytes == analytic;
            traffic_ok &= match;
            hdl_cycles.push_back(static_cast<double>(hdl.cycles));
            step_cycles.push_back(static_cast<double>(stp.cycles));
            std::string tiles = "(";
            tiles += std::to_string(bt);
            tiles += ",256,";
            tiles += std::to_string(it);
            tiles += ')';
            t.row()
                .cell(tiles)
                .cell(hdl.cycles)
                .cell(stp.cycles)
                .cellF(static_cast<double>(stp.cycles) /
                           static_cast<double>(hdl.cycles), 3)
                .cellF(static_cast<double>(analytic) / 1e6, 3)
                .cell(match ? "yes" : "MISMATCH");
        }
    }
    t.print();

    double r = pearson(hdl_cycles, step_cycles);
    std::cout << "\nPearson correlation (cycles): " << r << "\n";
    std::cout << "check: correlation > 0.9 (paper: 0.99): "
              << (r > 0.9 ? "PASS" : "FAIL") << "\n";
    std::cout << "check: symbolic/measured off-chip traffic identical in "
                 "both simulators: "
              << (traffic_ok ? "PASS" : "FAIL") << "\n";
    return (r > 0.9 && traffic_ok) ? 0 : 1;
}
