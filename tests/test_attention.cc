/**
 * @file
 * Integration tests for the decode-attention workload: functional
 * equivalence against dense softmax attention for all three
 * parallelization strategies, and timing properties (dynamic beats
 * static under skewed KV lengths; coarse wastes regions at small batch).
 */
#include <gtest/gtest.h>

#include "ops/source_sink.hh"
#include "trace/trace.hh"
#include "workloads/decoder.hh"

#include "support/stats.hh"

#include "helpers.hh"

namespace step {
namespace {

struct Payloads
{
    std::vector<std::vector<float>> qs, ks, vs;
};

Payloads
randomPayloads(uint64_t seed, const std::vector<int64_t>& lens, int64_t d)
{
    Rng rng(seed);
    Payloads pl;
    for (int64_t L : lens) {
        std::vector<float> q, k, v;
        for (int64_t i = 0; i < d; ++i)
            q.push_back(static_cast<float>(rng.uniform() - 0.5));
        for (int64_t i = 0; i < L * d; ++i) {
            k.push_back(static_cast<float>(rng.uniform() - 0.5));
            v.push_back(static_cast<float>(rng.uniform() - 0.5));
        }
        pl.qs.push_back(std::move(q));
        pl.ks.push_back(std::move(k));
        pl.vs.push_back(std::move(v));
    }
    return pl;
}

class AttnFunctional : public ::testing::TestWithParam<ParStrategy> {};

TEST_P(AttnFunctional, MatchesDenseReference)
{
    AttnParams p;
    p.cfg = tinyConfig();
    p.batch = 9;
    p.strategy = GetParam();
    p.regions = 3;
    p.kvTileRows = 2;
    p.coarseBlock = 3;
    p.computeBw = 64;
    p.functional = true;

    std::vector<int64_t> lens{4, 2, 8, 2, 6, 2, 4, 2, 2};
    Payloads pl = randomPayloads(11, lens,
                                 p.cfg.numKvHeads * p.cfg.headDim);

    Graph g(iterationSimConfig(p.batch));
    AttnBuild ab = buildAttentionLayer(g, p, lens, &pl.qs, &pl.ks,
                                       &pl.vs);
    auto& sink = g.add<SinkOp>("out", ab.out, true);
    (void)g.run();

    auto ref = referenceAttention(p, lens, pl.qs, pl.ks, pl.vs);
    ASSERT_EQ(sink.dataCount(), lens.size());
    // Outputs return in request order regardless of strategy.
    size_t t = 0;
    for (const auto& tok : sink.tokens()) {
        if (!tok.isData())
            continue;
        const Tile& row = tok.value().tile();
        for (int64_t j = 0; j < row.cols(); ++j) {
            EXPECT_NEAR(row.at(0, j), ref[t][static_cast<size_t>(j)],
                        2e-3f)
                << "strategy " << static_cast<int>(GetParam())
                << " request " << t;
        }
        ++t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AttnFunctional,
    ::testing::Values(ParStrategy::StaticCoarse,
                      ParStrategy::StaticInterleaved,
                      ParStrategy::Dynamic),
    [](const auto& info) {
        switch (info.param) {
          case ParStrategy::StaticCoarse: return "coarse";
          case ParStrategy::StaticInterleaved: return "interleaved";
          default: return "dynamic";
        }
    });

dam::Cycle
runTiming(ParStrategy s, const std::vector<int64_t>& lens)
{
    AttnParams p;
    p.cfg = tinyConfig();
    p.cfg.headDim = 16;
    p.batch = static_cast<int64_t>(lens.size());
    p.strategy = s;
    p.regions = 4;
    p.kvTileRows = 4;
    p.coarseBlock = p.batch / p.regions;
    p.computeBw = 256;
    Graph g(iterationSimConfig(p.batch));
    AttnBuild ab = buildAttentionLayer(g, p, lens);
    g.add<SinkOp>("out", ab.out);
    return g.run().cycles;
}

TEST(AttnTiming, DynamicBeatsInterleavedUnderSkew)
{
    // One very long request per round-robin "column" lands repeatedly on
    // region 0 under interleaving; dynamic rebalances.
    std::vector<int64_t> lens;
    for (int i = 0; i < 32; ++i)
        lens.push_back(i % 4 == 0 ? 512 : 16);
    dam::Cycle inter = runTiming(ParStrategy::StaticInterleaved, lens);
    dam::Cycle dyn = runTiming(ParStrategy::Dynamic, lens);
    EXPECT_LT(dyn, inter);
}

TEST(AttnTiming, CoarseWastesRegionsAtSmallBatch)
{
    // Batch 8 with coarseBlock sized for batch 64: requests crowd into
    // the first region while the rest idle.
    std::vector<int64_t> lens(8, 128);
    AttnParams p;
    p.cfg = tinyConfig();
    p.cfg.headDim = 16;
    p.batch = 8;
    p.regions = 4;
    p.kvTileRows = 4;
    p.coarseBlock = 16; // sized for a batch of 64
    p.computeBw = 256;

    auto run_one = [&](ParStrategy s) {
        AttnParams q = p;
        q.strategy = s;
        SimConfig sc;
        sc.channelCapacity = 64;
        Graph g(sc);
        AttnBuild ab = buildAttentionLayer(g, q, lens);
        g.add<SinkOp>("out", ab.out);
        return g.run().cycles;
    };
    dam::Cycle coarse = run_one(ParStrategy::StaticCoarse);
    dam::Cycle dyn = run_one(ParStrategy::Dynamic);
    EXPECT_LT(dyn, coarse);
}

TEST(KvTrace, VarianceClassesAreOrdered)
{
    auto lo = sampleKvBatch(1, 64, KvVarClass::Low);
    auto md = sampleKvBatch(1, 64, KvVarClass::Med);
    auto hi = sampleKvBatch(1, 64, KvVarClass::High);
    auto sd = [](const std::vector<int64_t>& xs) {
        std::vector<double> d(xs.begin(), xs.end());
        return stddev(d);
    };
    EXPECT_LT(sd(lo), sd(md));
    EXPECT_LT(sd(md), sd(hi));
    EXPECT_EQ(lo.size(), 64u);
}

TEST(ExpertTraceGen, TopKDistinctAndCounted)
{
    Rng rng(3);
    ExpertTrace tr = generateExpertTrace(rng, 100, 16, 4);
    EXPECT_EQ(tr.perToken.size(), 100u);
    int64_t total = 0;
    for (const auto& picks : tr.perToken) {
        EXPECT_EQ(picks.size(), 4u);
        for (size_t i = 1; i < picks.size(); ++i)
            EXPECT_NE(picks[i], picks[i - 1]); // sorted + distinct
    }
    for (int64_t c : tr.binCounts())
        total += c;
    EXPECT_EQ(total, 400);
    EXPECT_LE(tr.activeExperts(), 16);
}

TEST(ExpertTraceGen, RepresentativePicksNearAverage)
{
    ExpertTrace tr = representativeExpertTrace(7, 64, 8, 2, 8);
    EXPECT_EQ(tr.perToken.size(), 64u);
    EXPECT_GT(tr.binStddev(), 0.0);
}

} // namespace
} // namespace step
