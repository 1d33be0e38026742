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
 * replicas) with different seeds. Below the decoder, every operator
 * type with run state re-runs from a fresh state after Graph::rearm.
 */
#include <gtest/gtest.h>

#include <map>

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/onchip.hh"
#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/framepool.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"
#include "workloads/decoder.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::list;
using test::scalarTile;
using test::val;
using test::vec;

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
 * A port shape's (or dtype's) text with fresh symbols (ragged "R12",
 * dynamic "D3": a maximal letter run followed by a digit run) renamed
 * by first appearance in @p names, so two builds of one graph compare
 * equal whatever the global symbol counter stood at. Named symbols such
 * as the batch extent "B" are kept.
 */
std::string
canonicalShape(const std::string& shape,
               std::map<std::string, std::string>& names)
{
    auto letter = [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
    };
    auto digit = [](char c) { return c >= '0' && c <= '9'; };
    std::string out;
    size_t i = 0;
    while (i < shape.size()) {
        if (!letter(shape[i])) {
            out += shape[i++];
            continue;
        }
        size_t j = i;
        while (j < shape.size() && letter(shape[j]))
            ++j;
        size_t k = j;
        while (k < shape.size() && digit(shape[k]))
            ++k;
        if (k == j) {
            out.append(shape, i, j - i); // a named symbol
        } else {
            auto [slot, fresh] = names.try_emplace(shape.substr(i, k - i));
            if (fresh)
                slot->second = "s" + std::to_string(names.size() - 1);
            out += slot->second;
        }
        i = k;
    }
    return out;
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

/** A selector stream: one multi-hot selector per group, then Done. */
std::vector<Token>
selectors(std::initializer_list<std::initializer_list<uint32_t>> sels)
{
    std::vector<Token> toks;
    for (auto sel : sels)
        toks.push_back(Token::data(Selector(std::vector<uint32_t>(sel))));
    toks.push_back(Token::done());
    return toks;
}

/**
 * A small graph that records its sources' streams and its capturing
 * sinks, so it can be run, rearmed, re-fed and run again.
 */
class RerunGraph
{
  public:
    StreamPort
    source(const std::string& name, std::vector<Token> toks,
           StreamShape shape, DataType dtype, dam::Cycle ii = 1)
    {
        auto& op = g.add<SourceOp>(name, toks, std::move(shape),
                                   std::move(dtype), ii);
        sources_.emplace_back(&op, std::move(toks));
        return op.out();
    }

    void
    sink(const std::string& name, const StreamPort& in)
    {
        sinks_.push_back(&g.add<SinkOp>(name, in, true));
    }

    void
    store(const std::string& name, const StreamPort& in)
    {
        store_ = &g.add<LinearOffChipStoreOp>(name, in, 0x1000);
    }

    /** Everything a run leaves behind that the test compares. */
    struct Observed
    {
        SimResult res;
        std::vector<std::string> out;
    };

    Observed
    run()
    {
        Observed o;
        o.res = g.run();
        for (const SinkOp* s : sinks_)
            o.out.push_back(s->name() + ": " + tokensToString(s->tokens()) +
                            " (" + std::to_string(s->dataCount()) +
                            " data)");
        if (store_)
            o.out.push_back("store: " +
                            std::to_string(store_->bytesStored()) +
                            " bytes, last write " +
                            std::to_string(store_->lastWrite()));
        return o;
    }

    /** Graph::rearm, then give every source its stream again. */
    void
    rearm()
    {
        g.rearm(g.config());
        for (auto& [op, toks] : sources_)
            op->setTokens(toks);
    }

    Graph g;

  private:
    std::vector<std::pair<SourceOp*, std::vector<Token>>> sources_;
    std::vector<SinkOp*> sinks_;
    LinearOffChipStoreOp* store_ = nullptr;
};

/** An operator type with run state, built into a small graph. */
struct OperatorCase
{
    const char* name;
    void (*build)(RerunGraph&);
};

const OperatorCase kOperatorCases[] = {
    {"Flatten",
     [](RerunGraph& r) {
         Nested n = list({list({vec({1, 2}), vec({3})}),
                          list({vec({4}), vec({5, 6, 7})})});
         StreamPort in = r.source(
             "in", encodeNested(n, 3),
             StreamShape({Dim::fixed(2), Dim::fixed(2), Dim::ragged()}),
             scalarTile());
         r.sink("out", r.g.add<FlattenOp>("fl", in, 0, 1).out());
     }},
    {"ReshapeWithPad",
     [](RerunGraph& r) {
         StreamPort in = r.source(
             "in", encodeNested(list({vec({1, 2, 3, 4, 5})}), 2),
             StreamShape({Dim::fixed(1), Dim::ragged()}), scalarTile());
         auto& rs = r.g.add<ReshapeOp>("rs", in, 0, 2,
                                       std::optional<Value>(val(0)));
         r.sink("out", rs.out());
         r.sink("pad", rs.padOut());
     }},
    {"Repeat",
     [](RerunGraph& r) {
         StreamPort in = r.source("in", encodeNested(vec({1, 2}), 1),
                                  StreamShape::fixed({2}), scalarTile());
         r.sink("out", r.g.add<RepeatOp>("rp", in, 3).out());
     }},
    {"Filter",
     [](RerunGraph& r) {
         StreamPort d = r.source(
             "d", encodeNested(list({vec({1, 2, 3, 4})}), 2),
             StreamShape::fixed({1, 4}), scalarTile());
         StreamPort m = r.source(
             "m", encodeNested(list({vec({0, 1, 0, 1})}), 2),
             StreamShape::fixed({1, 4}), scalarTile());
         r.sink("out", r.g.add<FilterOp>("f", d, m).out());
     }},
    {"Promote",
     [](RerunGraph& r) {
         StreamPort in = r.source("in", encodeNested(vec({1, 2}), 1),
                                  StreamShape::fixed({2}), scalarTile());
         r.sink("out", r.g.add<PromoteOp>("pr", in).out());
     }},
    {"Expand",
     [](RerunGraph& r) {
         Nested in = list({list({vec({7})}), list({vec({9})})});
         Nested ref = list({list({vec({0, 0}), vec({0, 0})}),
                            list({vec({0, 0})})});
         StreamPort si = r.source("in", encodeNested(in, 3),
                                  StreamShape::fixed({2, 1, 1}),
                                  scalarTile());
         StreamPort sr = r.source(
             "ref", encodeNested(ref, 3),
             StreamShape({Dim::fixed(2), Dim::ragged(), Dim::fixed(2)}),
             scalarTile());
         r.sink("out", r.g.add<ExpandOp>("ex", si, sr, 2).out());
     }},
    {"Bufferize",
     [](RerunGraph& r) {
         StreamPort in = r.source(
             "in", encodeNested(list({vec({1, 2}), vec({3})}), 2),
             StreamShape({Dim::fixed(2), Dim::ragged()}), scalarTile());
         r.sink("out", r.g.add<BufferizeOp>("buf", in, 1).out());
     }},
    {"Streamify",
     [](RerunGraph& r) {
         StreamPort in = r.source(
             "in", encodeNested(list({vec({1, 2, 3}), vec({4})}), 2),
             StreamShape({Dim::fixed(2), Dim::ragged()}), scalarTile());
         auto& buf = r.g.add<BufferizeOp>("buf", in, 1);
         StreamPort ref = r.source(
             "ref", encodeNested(list({vec({0, 0}), vec({0})}), 2),
             StreamShape({Dim::fixed(2), Dim::ragged()}), scalarTile());
         r.sink("out",
                r.g.add<StreamifyOp>("sf", buf.out(), ref, 1).out());
     }},
    {"Partition",
     [](RerunGraph& r) {
         Nested n = list({vec({1}), vec({2, 3}), vec({4})});
         StreamPort in = r.source(
             "in", encodeNested(n, 2),
             StreamShape({Dim::fixed(3), Dim::ragged()}), scalarTile());
         StreamPort sel = r.source("sel", selectors({{0, 1}, {1}, {0}}),
                                   StreamShape({Dim::fixed(3)}),
                                   DataType::selector(2));
         auto& part = r.g.add<PartitionOp>("part", in, sel, 1, 2);
         r.sink("out0", part.out(0));
         r.sink("out1", part.out(1));
     }},
    {"Reassemble",
     [](RerunGraph& r) {
         Nested n = list({vec({1}), vec({2}), vec({3}), vec({4})});
         StreamPort in = r.source("in", encodeNested(n, 2),
                                  StreamShape::fixed({4, 1}),
                                  scalarTile());
         const std::vector<Token> sels =
             selectors({{0}, {2}, {1}, {0}});
         StreamPort sel_a = r.source("selA", sels,
                                     StreamShape({Dim::fixed(4)}),
                                     DataType::selector(3));
         StreamPort sel_b = r.source("selB", sels,
                                     StreamShape({Dim::fixed(4)}),
                                     DataType::selector(3));
         auto& part = r.g.add<PartitionOp>("part", in, sel_a, 1, 3);
         auto& re = r.g.add<ReassembleOp>(
             "re",
             std::vector<StreamPort>{part.out(0), part.out(1),
                                     part.out(2)},
             sel_b, 1);
         r.sink("out", re.out());
     }},
    {"EagerMerge",
     [](RerunGraph& r) {
         const StreamShape shape({Dim::ragged(), Dim::ragged()});
         StreamPort slow = r.source(
             "slow", encodeNested(list({vec({100}), vec({101})}), 2),
             shape, scalarTile(), 7);
         StreamPort fast = r.source(
             "fast", encodeNested(list({vec({1, 2}), vec({3})}), 2),
             shape, scalarTile());
         auto& em = r.g.add<EagerMergeOp>(
             "em", std::vector<StreamPort>{slow, fast}, 1);
         r.sink("out", em.out());
         r.sink("sel", em.selOut());
     }},
    {"Dispatcher",
     [](RerunGraph& r) {
         StreamPort comps = r.source("comps", selectors({{1}, {1}, {0}}),
                                     StreamShape({Dim::ragged()}),
                                     DataType::selector(2));
         r.sink("out", r.g.add<DispatcherOp>("disp", comps, 2, 5,
                                             Dim::fixed(5))
                           .out());
     }},
    {"Accum",
     [](RerunGraph& r) {
         StreamPort in = r.source(
             "in", encodeNested(list({vec({1, 2}), vec({3, 4, 5})}), 2),
             StreamShape({Dim::fixed(2), Dim::ragged()}), scalarTile());
         r.sink("out", r.g.add<AccumOp>("acc", in, 1,
                                        fns::zeroInit(1, 1, 1),
                                        fns::addUpdate(), 16,
                                        scalarTile())
                           .out());
     }},
    {"Scan",
     [](RerunGraph& r) {
         StreamPort in = r.source(
             "in", encodeNested(list({vec({1, 2, 3}), vec({10})}), 2),
             StreamShape({Dim::fixed(2), Dim::ragged()}), scalarTile());
         r.sink("out", r.g.add<ScanOp>("scan", in, 1,
                                       fns::zeroInit(1, 1, 1),
                                       fns::addUpdate(), 16,
                                       scalarTile())
                           .out());
     }},
    {"FlatMap",
     [](RerunGraph& r) {
         Nested n = list({Nested(Value(Tile::withData(2, 1, {1, 2}))),
                          Nested(Value(Tile::withData(2, 1, {3, 4})))});
         StreamPort in = r.source("in", encodeNested(n, 1),
                                  StreamShape::fixed({2}),
                                  DataType::tile(2, 1));
         r.sink("out", r.g.add<FlatMapOp>("fm", in,
                                          fns::retileStreamify(1),
                                          StreamShape({Dim::ragged()}),
                                          DataType::tile(1, 1), 4)
                           .out());
     }},
    {"LinearOffChipLoad",
     [](RerunGraph& r) {
         std::vector<float> data(16);
         for (size_t i = 0; i < data.size(); ++i)
             data[i] = static_cast<float>(i);
         OffChipTensor t =
             OffChipTensor::fromData(0, 4, 4, 2, 2, data, 1);
         StreamPort ref = r.source("ref", encodeNested(vec({0, 0}), 1),
                                   StreamShape::fixed({2}),
                                   scalarTile());
         r.sink("out", r.g.add<LinearOffChipLoadOp>(
                           "ld", ref, t, std::array<int64_t, 2>{2, 1},
                           std::array<int64_t, 2>{2, 2})
                           .out());
     }},
    {"RandomOffChipLoad",
     [](RerunGraph& r) {
         OffChipTensor t = OffChipTensor::shapeOnly(0, 16, 4, 2, 2);
         StreamPort addr = r.source(
             "addr", encodeNested(list({vec({1, 0}), vec({3})}), 2),
             StreamShape({Dim::fixed(2), Dim::ragged()}), scalarTile());
         r.sink("out", r.g.add<RandomOffChipLoadOp>(
                           "ld", addr, t, 2 * t.tileBytes(),
                           std::array<int64_t, 2>{1, 2}, true)
                           .out());
     }},
    {"LinearOffChipStore",
     [](RerunGraph& r) {
         Nested n = list({Nested(Value(Tile(4, 4, 2))),
                          Nested(Value(Tile(2, 4, 2)))});
         r.store("st", r.source("in", encodeNested(n, 1),
                                StreamShape::fixed({2}),
                                DataType::tile(4, 4)));
     }},
};

TEST(Rearm, EveryOperatorReRunsFromAFreshState)
{
    // A rearmed operator starts its run where a freshly built one does:
    // run state lives in run() (coroutine locals, or members its
    // prologue re-initialises), so a second run after Graph::rearm and
    // fresh source streams must repeat the first exactly — the sinks'
    // (and the store's) captures and every SimResult figure.
    for (const auto& [name, build] : kOperatorCases) {
        SCOPED_TRACE(name);
        RerunGraph r;
        build(r);
        const RerunGraph::Observed first = r.run();
        r.rearm();
        RerunGraph::Observed second;
        ASSERT_NO_THROW(second = r.run());
        EXPECT_EQ(second.out, first.out);
        expectIdentical(second.res, first.res, 1, name);
    }
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
