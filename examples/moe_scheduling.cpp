/**
 * @file
 * Domain scenario: scheduling a production MoE layer. Uses the public
 * workload API to explore the static-tile design space of the
 * Qwen3-30B-A3B MoE layer under a real routing distribution, then shows
 * how dynamic tiling (section 5.2) and configuration time-multiplexing
 * (section 5.3) move the design point — the DSE flow of section 5.6.
 */
#include <iostream>

#include "analysis/pareto.hh"
#include "ops/source_sink.hh"
#include "support/cli.hh"
#include "support/table.hh"
#include "trace/trace.hh"
#include "workloads/decoder.hh"

using namespace step;

namespace {

SimResult
runConfig(const ModelConfig& cfg, const ExpertTrace& trace, Tiling tiling,
          int64_t tile, int64_t regions)
{
    MoeParams p;
    p.cfg = cfg;
    p.batch = static_cast<int64_t>(trace.perToken.size());
    p.tiling = tiling;
    p.tileRows = tile;
    p.parallelRegions = regions;
    p.computeBwPerMatmul = cfg.moeMatmulBw;
    Graph g(iterationSimConfig(p.batch));
    MoeBuild mb = buildMoeLayer(g, p, trace);
    g.add<SinkOp>("out", mb.out);
    return g.run();
}

} // namespace

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    ModelConfig cfg = qwen3_30b_a3b();
    ExpertTrace trace = representativeExpertTrace(99, 64, cfg.numExperts,
                                                  cfg.topK);
    std::cout << "Qwen3-30B-A3B MoE layer, batch 64, top-" << cfg.topK
              << " routing, " << trace.activeExperts()
              << " active experts\n\n";

    Table t({"Schedule", "Cycles", "OnChipMem(MB)", "Traffic(MB)",
             "Util(%)"});
    std::vector<DesignPoint> static_pts;
    for (int64_t tile : {8, 16, 32, 64}) {
        SimResult r = runConfig(cfg, trace, Tiling::Static, tile, 0);
        static_pts.push_back(
            {static_cast<double>(r.cycles),
             static_cast<double>(r.onChipPeakBytes),
             "tile=" + std::to_string(tile)});
        t.row()
            .cell("static tile=" + std::to_string(tile))
            .cell(r.cycles)
            .cellF(static_cast<double>(r.onChipPeakBytes) / 1e6, 1)
            .cellF(static_cast<double>(r.offChipBytes) / 1e6, 0)
            .cellF(100.0 * r.computeUtilization(), 2);
    }
    SimResult dyn = runConfig(cfg, trace, Tiling::Dynamic, 0, 0);
    t.row()
        .cell("dynamic tiling")
        .cell(dyn.cycles)
        .cellF(static_cast<double>(dyn.onChipPeakBytes) / 1e6, 1)
        .cellF(static_cast<double>(dyn.offChipBytes) / 1e6, 0)
        .cellF(100.0 * dyn.computeUtilization(), 2);
    SimResult mux = runConfig(cfg, trace, Tiling::Dynamic, 0, 16);
    t.row()
        .cell("dynamic + 16 time-muxed regions")
        .cell(mux.cycles)
        .cellF(static_cast<double>(mux.onChipPeakBytes) / 1e6, 1)
        .cellF(static_cast<double>(mux.offChipBytes) / 1e6, 0)
        .cellF(100.0 * mux.computeUtilization(), 2);
    t.print();

    double pid = paretoImprovementDistance(
        {static_cast<double>(dyn.cycles),
         static_cast<double>(dyn.onChipPeakBytes), "dynamic"},
        static_pts);
    std::cout << "\ndynamic tiling PID over the static frontier: " << pid
              << "\n";
    std::cout << "time-multiplexing frees "
              << 100.0 * (1.0 - static_cast<double>(
                                    mux.allocatedComputeBw) /
                                    static_cast<double>(
                                        dyn.allocatedComputeBw))
              << "% of allocated compute at "
              << static_cast<double>(mux.cycles) /
                     static_cast<double>(dyn.cycles)
              << "x the cycles\n";
    return 0;
}
