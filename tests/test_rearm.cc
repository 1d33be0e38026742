/**
 * @file
 * Correctness of the structure-preserving rearm path: over a hundred-
 * plus serving iterations with seeded per-iteration batch sizes, KV
 * lengths, expert traces, and policy bandwidths, the rearm fast path
 * must produce metrics bit-identical to (a) recycle+rebuild on a reused
 * graph and (b) a cold graph built from scratch. The batch size is a
 * rearm payload, not structure: a walk over 1..64 (single steps, jumps,
 * batches below the attention region count) builds the graph once, and
 * after every rearm the graph's metadata — port shapes, channel depths,
 * priming counts, the verifier's report — equals a fresh build's. The
 * seed is not structure either: one graph serves engines (cluster
 * replicas) with different seeds.
 */
#include <gtest/gtest.h>

#include <map>
#include <regex>

#include "support/framepool.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"
#include "workloads/decoder.hh"

namespace step {
namespace {

DecoderParams
baseParams(ParStrategy attn)
{
    DecoderParams p;
    p.cfg = servingSimConfig();
    p.attnStrategy = attn;
    p.moeRegions = 4;
    p.moeTile = 16;
    p.denseTile = 16;
    return p;
}

IterationSpec
specFor(const DecoderParams& p, uint64_t seed, int64_t batch)
{
    IterationSpec spec;
    Rng rng(seed * 9176 + 13);
    spec.trace = generateExpertTrace(rng, batch, p.cfg.numExperts,
                                     p.cfg.topK);
    spec.kvLens = sampleKvBatch(seed, batch, KvVarClass::Med);
    return spec;
}

void
expectIdentical(const SimResult& a, const SimResult& b, int64_t iter,
                const char* what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what << " iter " << iter;
    EXPECT_EQ(a.offChipBytes, b.offChipBytes) << what << " iter " << iter;
    EXPECT_EQ(a.offChipReadBytes, b.offChipReadBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.offChipWriteBytes, b.offChipWriteBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.onChipPeakBytes, b.onChipPeakBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.totalFlops, b.totalFlops) << what << " iter " << iter;
    EXPECT_EQ(a.allocatedComputeBw, b.allocatedComputeBw)
        << what << " iter " << iter;
    EXPECT_EQ(a.contextSwitches, b.contextSwitches)
        << what << " iter " << iter;
}

/**
 * Seeded decode-batch walk over [1, 64]: a scripted prefix that steps
 * down below the attention region count (4), jumps 1 -> 64 -> 2 and
 * climbs back, then single steps with an occasional uniform jump, the
 * way a continuous batcher's batch moves.
 */
std::vector<int64_t>
batchWalk(uint64_t seed, size_t n)
{
    std::vector<int64_t> walk = {4, 3, 2, 1, 64, 2, 1, 2, 3, 4, 5};
    Rng rng(seed);
    while (walk.size() < n) {
        int64_t b = walk.back();
        if (rng.uniformInt(10) == 0)
            b = rng.uniformRange(1, 64);
        else
            b = std::clamp<int64_t>(b + (rng.uniformInt(2) ? 1 : -1), 1,
                                    64);
        walk.push_back(b);
    }
    return walk;
}

/**
 * A port shape's (or dtype's) text with fresh symbols (ragged "R12", dynamic "D3")
 * renamed by first appearance in @p names, so two builds of one graph
 * compare equal whatever the global symbol counter stood at. Named
 * symbols such as the batch extent "B" are kept.
 */
std::string
canonicalShape(const std::string& shape,
               std::map<std::string, std::string>& names)
{
    static const std::regex kFresh("[A-Za-z]+[0-9]+");
    std::string out;
    auto it = std::sregex_iterator(shape.begin(), shape.end(), kFresh);
    size_t pos = 0;
    for (; it != std::sregex_iterator(); ++it) {
        out += shape.substr(pos, static_cast<size_t>(it->position()) - pos);
        auto [slot, fresh] = names.try_emplace(it->str(), "");
        if (fresh)
            slot->second = "s" + std::to_string(names.size() - 1);
        out += slot->second;
        pos = static_cast<size_t>(it->position() + it->length());
    }
    return out + shape.substr(pos);
}

/** Every op's ports (direction, canonical shape, dtype, priming) and
 *  every channel's name and depth, one line each. */
std::vector<std::string>
graphMetadata(const Graph& g)
{
    std::vector<std::string> lines;
    std::map<std::string, std::string> names;
    for (const OpBase* op : g.ops()) {
        for (const PortDecl& port : op->ports()) {
            lines.push_back(
                op->name() + (port.isInput ? " in " : " out ") +
                port.ch->name() + " " +
                canonicalShape(port.shape().toString(), names) + " " +
                canonicalShape(port.dtype().toString(), names) +
                " priming " +
                std::to_string(port.priming));
        }
    }
    for (const dam::Channel* ch : g.channels())
        lines.push_back(ch->name() + " capacity " +
                        std::to_string(ch->capacity()));
    return lines;
}

void
runComparison(ParStrategy attn)
{
    const std::vector<int64_t> walk = batchWalk(77, 110);
    const verify::VerifyOptions vopts;
    dam::Scheduler sched;

    GraphArena rearm_arena;
    Graph rearm_graph(SimConfig{}, &rearm_arena);
    DecoderRearmHandles handles;

    GraphArena rebuild_arena;
    Graph rebuild_graph(SimConfig{}, &rebuild_arena);

    for (size_t i = 0; i < walk.size(); ++i) {
        const int64_t B = walk[i];
        const auto iter = static_cast<int64_t>(i);
        // A per-iteration bandwidth wobble stands in for policy splits.
        DecoderParams p = baseParams(attn);
        p.batch = B;
        p.computeBwPerMatmul = 512 + 128 * (iter % 3);
        p.cfg.moeMatmulBw = p.computeBwPerMatmul;
        IterationSpec spec = specFor(p, 1000 + i, B);

        SimResult via_rearm = runDecoderIteration(p, spec, &sched,
                                                  &rearm_graph, &handles);
        SimResult via_rebuild =
            runDecoderIteration(p, spec, &sched, &rebuild_graph);
        SimResult cold = runDecoderIteration(p, spec, &sched);

        expectIdentical(via_rearm, via_rebuild, iter, "rearm vs rebuild");
        expectIdentical(via_rearm, cold, iter, "rearm vs cold");

        // The rearmed graph carries no stale metadata: it matches the
        // graph freshly built for this batch, and so does its static
        // verification.
        EXPECT_EQ(graphMetadata(rearm_graph), graphMetadata(rebuild_graph))
            << "metadata iter " << iter << " B=" << B;
        EXPECT_EQ(rearm_graph.verify(vopts).toJson(),
                  rebuild_graph.verify(vopts).toJson())
            << "verify iter " << iter << " B=" << B;
        if (::testing::Test::HasFailure())
            break;
    }

    // The initial build is the only one: every batch change rearmed.
    EXPECT_EQ(handles.rebuilds, 1u);
    EXPECT_EQ(handles.rearms, walk.size() - 1);
}

TEST(Rearm, BitIdenticalStaticAttention)
{
    runComparison(ParStrategy::StaticInterleaved);
}

TEST(Rearm, BitIdenticalStaticCoarseAttention)
{
    runComparison(ParStrategy::StaticCoarse);
}

TEST(Rearm, BitIdenticalDynamicAttention)
{
    runComparison(ParStrategy::Dynamic);
}

TEST(Rearm, GraphBuiltUnderOneSeedRearmsForAnother)
{
    // A cluster worker lends one graph to every replica it steps, and
    // each replica runs under its own seed. A graph built under seed A
    // and rearmed for an iteration under seed B must run exactly as a
    // cold build under B, with the same port shapes and channel depths.
    for (ParStrategy attn : {ParStrategy::StaticInterleaved,
                             ParStrategy::Dynamic}) {
        dam::Scheduler sched;
        GraphArena arena;
        Graph shared(SimConfig{}, &arena);
        DecoderRearmHandles handles;
        DecoderParams a = baseParams(attn);
        a.seed = 101;
        a.batch = 6;
        runDecoderIteration(a, specFor(a, 5, 6), &sched, &shared, &handles);

        for (int64_t B : {6, 3, 17}) {
            DecoderParams b = baseParams(attn);
            b.seed = 202 + static_cast<uint64_t>(B);
            b.batch = B;
            b.computeBwPerMatmul = 768;
            b.cfg.moeMatmulBw = b.computeBwPerMatmul;
            ASSERT_TRUE(decoderStructKey(a, a.batch) ==
                        decoderStructKey(b, B));
            const IterationSpec spec = specFor(b, 9 + B, B);
            const SimResult rearmed =
                runDecoderIteration(b, spec, &sched, &shared, &handles);

            GraphArena cold_arena;
            Graph cold(SimConfig{}, &cold_arena);
            DecoderRearmHandles cold_handles;
            const SimResult fresh = runDecoderIteration(
                b, spec, &sched, &cold, &cold_handles);
            expectIdentical(rearmed, fresh, B, "seed A rearmed vs seed B");
            EXPECT_EQ(graphMetadata(shared), graphMetadata(cold))
                << "metadata B=" << B;
        }
        // The first build was the only one.
        EXPECT_EQ(handles.rebuilds, 1u);
        EXPECT_EQ(handles.rearms, 3u);
    }
}

TEST(Rearm, RepeatedRearmWithoutRunIsIdempotent)
{
    DecoderParams p = baseParams(ParStrategy::StaticInterleaved);
    p.batch = 4;
    IterationSpec spec = specFor(p, 7, 4);

    dam::Scheduler sched;
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles h;
    SimResult first = runDecoderIteration(p, spec, &sched, &g, &h);

    // Benches time rearmDecoderLayer in a loop without running the
    // graph in between; the extra rearms must not perturb the next run.
    for (int i = 0; i < 5; ++i)
        rearmDecoderLayer(g, h, p, spec);
    SimResult again = runDecoderIteration(p, spec, &sched, &g, &h);
    expectIdentical(first, again, 0, "after repeated rearm");
}

TEST(Rearm, FramePoolRecyclesFrames)
{
    DecoderParams p = baseParams(ParStrategy::StaticInterleaved);
    p.batch = 4;
    IterationSpec spec = specFor(p, 11, 4);

    dam::Scheduler sched;
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles h;
    runDecoderIteration(p, spec, &sched, &g, &h); // builds all frames

    FramePool::Stats before = FramePool::stats();
    runDecoderIteration(p, spec, &sched, &g, &h);
    FramePool::Stats after = FramePool::stats();
    // A steady-state iteration allocates every coroutine frame from the
    // pool's freelists, not the heap.
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
}

} // namespace
} // namespace step
