/**
 * @file
 * Domain scenario: decode-attention serving under ragged KV caches.
 * Samples serving batches with different KV-length variability (the
 * continuous-batching situation of section 5.4), and compares the three
 * parallelization strategies — including the dynamic Partition /
 * EagerMerge / Dispatcher loop of Figure 16 — on latency and balance.
 */
#include <iostream>

#include "ops/source_sink.hh"
#include "support/cli.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "trace/trace.hh"
#include "workloads/decoder.hh"

using namespace step;

namespace {

SimResult
runStrategy(const ModelConfig& cfg, const std::vector<int64_t>& lens,
            ParStrategy s)
{
    AttnParams p;
    p.cfg = cfg;
    p.batch = static_cast<int64_t>(lens.size());
    p.strategy = s;
    p.regions = 4;
    p.kvTileRows = 32;
    p.computeBw = 1024;
    p.coarseBlock = p.batch / p.regions;
    Graph g(iterationSimConfig(p.batch));
    AttnBuild ab = buildAttentionLayer(g, p, lens);
    g.add<SinkOp>("out", ab.out);
    return g.run();
}

} // namespace

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    ModelConfig cfg = qwen3_30b_a3b();
    std::cout << "Decode attention, batch 64 over 4 parallel regions, "
              << "KV width " << cfg.numKvHeads * cfg.headDim << "\n\n";
    Table t({"KV variability", "lenStdDev", "Coarse", "Interleaved",
             "Dynamic", "best"});
    for (auto [var, name] : {std::pair{KvVarClass::Low, "low"},
                             std::pair{KvVarClass::Med, "median"},
                             std::pair{KvVarClass::High, "high"}}) {
        auto lens = sampleKvBatch(2024, 64, var);
        std::vector<double> d(lens.begin(), lens.end());
        SimResult c = runStrategy(cfg, lens, ParStrategy::StaticCoarse);
        SimResult i = runStrategy(cfg, lens,
                                  ParStrategy::StaticInterleaved);
        SimResult dy = runStrategy(cfg, lens, ParStrategy::Dynamic);
        const char* best =
            dy.cycles <= c.cycles && dy.cycles <= i.cycles ? "dynamic"
            : i.cycles <= c.cycles ? "interleaved" : "coarse";
        t.row()
            .cell(name)
            .cellF(stddev(d), 0)
            .cell(c.cycles)
            .cell(i.cycles)
            .cell(dy.cycles)
            .cell(best);
    }
    t.print();
    std::cout << "\nDynamic parallelization dispatches each request to "
                 "whichever region\nfrees up first (Figure 16), so long "
                 "requests stop serializing a region.\n";
    return 0;
}
