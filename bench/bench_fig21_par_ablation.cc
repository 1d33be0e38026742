/**
 * @file
 * Regenerates Figure 21 (appendix B.5): normalized performance of the
 * three parallelization strategies across batch sizes (16, 64, 64+16
 * micro-batched) and KV-length variability classes, geometric mean over
 * three sampled batches per class. Paper shape: dynamic best everywhere;
 * among statics, interleaved wins at small batch, coarse at large batch.
 */
#include <iostream>

#include "bench_common.hh"
#include "support/cli.hh"
#include "support/stats.hh"

using namespace step;
using namespace step::bench;

namespace {

/** Coarse assignment for (possibly micro-batched) request sequences. */
std::vector<uint32_t>
coarseAssign(const std::vector<int64_t>& micro_batches, int64_t regions)
{
    std::vector<uint32_t> assign;
    for (int64_t mb : micro_batches) {
        int64_t block = std::max<int64_t>(1, mb / regions);
        for (int64_t i = 0; i < mb; ++i)
            assign.push_back(static_cast<uint32_t>(
                std::min(i / block, regions - 1)));
    }
    return assign;
}

std::vector<uint32_t>
interleaveAssign(const std::vector<int64_t>& micro_batches,
                 int64_t regions)
{
    std::vector<uint32_t> assign;
    for (int64_t mb : micro_batches)
        for (int64_t i = 0; i < mb; ++i)
            assign.push_back(static_cast<uint32_t>(i % regions));
    return assign;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    banner("Figure 21: parallelization ablation (normalized cycles, "
           "geomean of 3 batches)");
    ModelConfig cfg = qwen3_30b_a3b();
    const int64_t regions = 4;

    struct BatchClass
    {
        const char* name;
        std::vector<int64_t> micro;
    };
    const std::vector<BatchClass> batches{
        {"B=16", {16}}, {"B=64", {64}}, {"B=64+16", {64, 16}}};
    const std::vector<std::pair<KvVarClass, const char*>> vars{
        {KvVarClass::High, "High"},
        {KvVarClass::Med, "Med"},
        {KvVarClass::Low, "Low"}};

    bool dynamic_best = true;
    Table t({"Batch", "KV var", "Coarse(norm)", "Interleave(norm)",
             "Dynamic(norm)"});
    for (const auto& bc : batches) {
        int64_t total = 0;
        for (int64_t mb : bc.micro)
            total += mb;
        for (auto [var, vname] : vars) {
            std::vector<double> coarse_r, inter_r, dyn_r;
            for (uint64_t s = 0; s < 3; ++s) {
                std::vector<int64_t> lens;
                for (int64_t mb : bc.micro) {
                    auto part = sampleKvBatch(9000 + s * 97, mb, var);
                    lens.insert(lens.end(), part.begin(), part.end());
                }
                (void)total;
                auto ca = coarseAssign(bc.micro, regions);
                auto ia = interleaveAssign(bc.micro, regions);
                SimResult c = runAttention(cfg, lens,
                                           ParStrategy::StaticCoarse,
                                           regions, &ca);
                SimResult i = runAttention(
                    cfg, lens, ParStrategy::StaticInterleaved, regions,
                    &ia);
                SimResult d = runAttention(cfg, lens,
                                           ParStrategy::Dynamic, regions);
                coarse_r.push_back(static_cast<double>(c.cycles) /
                                   static_cast<double>(d.cycles));
                inter_r.push_back(static_cast<double>(i.cycles) /
                                  static_cast<double>(d.cycles));
                dyn_r.push_back(1.0);
            }
            double cg = geomean(coarse_r);
            double ig = geomean(inter_r);
            t.row()
                .cell(bc.name)
                .cell(vname)
                .cellF(cg, 3)
                .cellF(ig, 3)
                .cellF(1.0, 3);
            dynamic_best &= cg >= 0.99 && ig >= 0.99;
        }
    }
    t.print();
    std::cout << "\ncheck: dynamic parallelization best (normalized <= "
                 "statics) in every class: "
              << (dynamic_best ? "PASS" : "FAIL") << "\n";
    return dynamic_best ? 0 : 1;
}
