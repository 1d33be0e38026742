/**
 * @file
 * Regenerates Table 1 (abstraction landscape) and Table 2 (optimization
 * -> enabling STeP features) from the executable capability registry,
 * and verifies the paper's expressibility claims: only STeP expresses
 * all three dynamic optimizations.
 */
#include <iostream>

#include "analysis/landscape.hh"
#include "support/cli.hh"
#include "support/table.hh"

using namespace step;

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    std::cout << "=== Table 1: Landscape of programming abstractions for "
                 "SDAs ===\n\n";
    auto yn = [](bool b) { return b ? "yes" : "-"; };
    Table t1({"Abstraction", "DataFlow", "ExplicitRate", "ExplicitMem",
              "DynRouting", "DynOnChipTiling"});
    for (const auto& p : landscapeProfiles()) {
        std::string routing =
            p.has(Capability::DynamicRouting) ? "yes"
            : p.has(Capability::LimitedDynamicRouting) ? "limited" : "-";
        std::string tiling =
            p.has(Capability::DynamicOnChipTiling) ? "yes"
            : p.has(Capability::LimitedDynamicTiling) ? "limited" : "-";
        t1.row()
            .cell(p.name)
            .cell(yn(p.has(Capability::DataFlow)))
            .cell(yn(p.has(Capability::ExplicitDataRate)))
            .cell(yn(p.has(Capability::ExplicitMemHierarchy)))
            .cell(routing)
            .cell(tiling);
    }
    t1.print();

    std::cout << "\n=== Table 2: optimizations and the STeP features that "
                 "enable them ===\n\n";
    Table t2({"Optimization", "Spatial", "Revet", "StreamIt", "SAM",
              "Ripple", "STeP"});
    auto profiles = landscapeProfiles();
    bool step_all = true;
    bool others_all = false;
    for (const auto& opt : optimizationSpecs()) {
        t2.row().cell(opt.name);
        for (const auto& p : profiles) {
            bool ok = canExpress(p, opt);
            t2.cell(ok ? "expressible" : "-");
            if (p.name == "STeP")
                step_all &= ok;
            else
                others_all |= ok && opt.name == "Dynamic Tiling";
        }
    }
    t2.print();

    std::cout << "\ncheck: STeP expresses all three optimizations: "
              << (step_all ? "PASS" : "FAIL") << "\n";
    std::cout << "check: no prior abstraction expresses dynamic tiling: "
              << (!others_all ? "PASS" : "FAIL") << "\n";
    return step_all && !others_all ? 0 : 1;
}
