/**
 * @file
 * Integration tests for the MoE workload: the full STeP graph (Figure 7
 * structure with SwiGLU experts) is run in functional mode on a tiny
 * configuration and compared against a dense reference, across all four
 * combinations of tiling strategy and expert placement, plus metric
 * sanity checks in timing mode.
 */
#include <gtest/gtest.h>

#include "ops/source_sink.hh"
#include "workloads/decoder.hh"

#include "helpers.hh"

namespace step {
namespace {

std::vector<std::vector<float>>
randomTokens(uint64_t seed, int64_t batch, int64_t hidden)
{
    Rng rng(seed);
    std::vector<std::vector<float>> rows;
    for (int64_t t = 0; t < batch; ++t) {
        std::vector<float> r;
        for (int64_t d = 0; d < hidden; ++d)
            r.push_back(static_cast<float>(rng.uniform() - 0.5));
        rows.push_back(std::move(r));
    }
    return rows;
}

struct MoeCase
{
    Tiling tiling;
    int64_t regions; // 0 = dedicated
    const char* label;
};

class MoeFunctional : public ::testing::TestWithParam<MoeCase> {};

TEST_P(MoeFunctional, MatchesDenseReference)
{
    MoeCase mc = GetParam();
    MoeParams p;
    p.cfg = tinyConfig();
    p.batch = 10;
    p.tiling = mc.tiling;
    p.tileRows = 3; // non-divisor: exercises padding
    p.weightTileCols = 4;
    p.computeBwPerMatmul = 64;
    p.parallelRegions = mc.regions;
    p.functional = true;
    p.seed = 7;

    Rng rng(99);
    ExpertTrace trace = generateExpertTrace(rng, p.batch,
                                            p.cfg.numExperts, p.cfg.topK);
    auto tokens = randomTokens(3, p.batch, p.cfg.hidden);

    Graph g(iterationSimConfig(p.batch));
    MoeBuild mb = buildMoeLayer(g, p, trace, &tokens);
    auto& sink = g.add<SinkOp>("out", mb.out, true);
    auto res = g.run();

    auto ref = referenceMoe(p, trace, tokens);
    ASSERT_EQ(sink.dataCount(), static_cast<uint64_t>(p.batch))
        << mc.label;
    size_t t = 0;
    for (const auto& tok : sink.tokens()) {
        if (!tok.isData())
            continue;
        const Tile& row = tok.value().tile();
        ASSERT_EQ(row.cols(), p.cfg.hidden);
        for (int64_t d = 0; d < p.cfg.hidden; ++d) {
            EXPECT_NEAR(row.at(0, d), ref[t][static_cast<size_t>(d)],
                        1e-3f)
                << mc.label << " token " << t << " dim " << d;
        }
        ++t;
    }
    EXPECT_GT(res.offChipBytes, 0);
    EXPECT_GT(res.totalFlops, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, MoeFunctional,
    ::testing::Values(MoeCase{Tiling::Static, 0, "static_dedicated"},
                      MoeCase{Tiling::Dynamic, 0, "dynamic_dedicated"},
                      MoeCase{Tiling::Static, 2, "static_timemux"},
                      MoeCase{Tiling::Dynamic, 2, "dynamic_timemux"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(MoeTiming, DynamicTilingCutsTrafficVsSmallStaticTile)
{
    // Timing mode, scaled-down dims: dynamic tiling must reduce weight
    // reloads relative to a small static tile, and FLOPs relative to a
    // padded static tile.
    MoeParams base;
    base.cfg = tinyConfig();
    base.cfg.hidden = 32;
    base.cfg.moeIntermediate = 32;
    base.cfg.numExperts = 8;
    base.cfg.topK = 2;
    base.batch = 32;
    base.weightTileCols = 8;
    base.computeBwPerMatmul = 128;

    Rng rng(5);
    ExpertTrace trace = generateExpertTrace(rng, base.batch,
                                            base.cfg.numExperts,
                                            base.cfg.topK);

    auto run_cfg = [&](Tiling tiling, int64_t tile) {
        MoeParams p = base;
        p.tiling = tiling;
        p.tileRows = tile;
        Graph g(iterationSimConfig(p.batch));
        MoeBuild mb = buildMoeLayer(g, p, trace, nullptr);
        g.add<SinkOp>("out", mb.out);
        return g.run();
    };

    SimResult small_static = run_cfg(Tiling::Static, 2);
    SimResult big_static = run_cfg(Tiling::Static, 16);
    SimResult dynamic = run_cfg(Tiling::Dynamic, 2);

    // Dynamic tiling loads each active expert's weights exactly once:
    // least traffic of the three.
    EXPECT_LT(dynamic.offChipBytes, small_static.offChipBytes);
    EXPECT_LE(dynamic.offChipBytes, big_static.offChipBytes);
    // Padding inflates static FLOPs; dynamic runs only useful FLOPs.
    EXPECT_LT(dynamic.totalFlops, big_static.totalFlops);
    // Large static tiles hold bigger on-chip tiles than small ones.
    EXPECT_GT(big_static.onChipPeakBytes, small_static.onChipPeakBytes);
}

TEST(MoeTiming, TimeMuxSavesAllocatedCompute)
{
    MoeParams base;
    base.cfg = tinyConfig();
    base.cfg.hidden = 32;
    base.cfg.moeIntermediate = 32;
    base.cfg.numExperts = 8;
    base.cfg.topK = 2;
    base.batch = 32;
    base.weightTileCols = 8;
    base.computeBwPerMatmul = 128;
    base.tiling = Tiling::Static;
    base.tileRows = 4;

    Rng rng(5);
    ExpertTrace trace = generateExpertTrace(rng, base.batch,
                                            base.cfg.numExperts,
                                            base.cfg.topK);

    auto run_regions = [&](int64_t regions) {
        MoeParams p = base;
        p.parallelRegions = regions;
        Graph g(iterationSimConfig(p.batch));
        MoeBuild mb = buildMoeLayer(g, p, trace, nullptr);
        g.add<SinkOp>("out", mb.out);
        return g.run();
    };

    SimResult dedicated = run_regions(0);
    SimResult muxed = run_regions(2);
    EXPECT_LT(muxed.allocatedComputeBw, dedicated.allocatedComputeBw);
    EXPECT_GT(muxed.computeUtilization(), dedicated.computeUtilization());
    // Same useful work either way.
    EXPECT_EQ(muxed.totalFlops, dedicated.totalFlops);
}

} // namespace
} // namespace step
