/**
 * @file
 * Functional tests for higher-order and shape operators: each operator's
 * token-level semantics are checked against the paper's definitions by
 * decoding output streams back into nested tensors.
 */
#include <gtest/gtest.h>

#include "ops/higher_order.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::leaf;
using test::list;
using test::scalarTile;
using test::val;
using test::vec;

TEST(SourceSink, RoundTrip)
{
    Graph g;
    auto toks = encodeNested(list({vec({1, 2}), vec({3})}), 2);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2, 2}),
                                scalarTile());
    auto& sink = g.add<SinkOp>("sink", src.out(), true);
    (void)g.run();
    EXPECT_EQ(tokensToString(sink.tokens()), tokensToString(toks));
    EXPECT_EQ(sink.dataCount(), 3u);
}

TEST(Broadcast, CopiesToAllOutputs)
{
    Graph g;
    auto toks = encodeNested(vec({1, 2, 3}), 1);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({3}),
                                scalarTile());
    auto& bc = g.add<BroadcastOp>("bc", src.out(), 3);
    auto& s0 = g.add<SinkOp>("s0", bc.out(0), true);
    auto& s1 = g.add<SinkOp>("s1", bc.out(1), true);
    auto& s2 = g.add<SinkOp>("s2", bc.out(2), true);
    (void)g.run();
    EXPECT_EQ(tokensToString(s0.tokens()), tokensToString(toks));
    EXPECT_EQ(tokensToString(s1.tokens()), tokensToString(s2.tokens()));
}

TEST(Map, ElementwiseKeepsShape)
{
    Graph g;
    auto toks = encodeNested(list({vec({1, 2}), vec({3})}), 2);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2, 2}),
                                scalarTile());
    MapFn twice = [](const std::vector<Value>& a, int64_t& fl) -> Value {
        fl += 1;
        return Tile::withData(1, 1, {a[0].tile().at(0, 0) * 2}, 1);
    };
    auto& m = g.add<MapOp>("m", std::vector<StreamPort>{src.out()}, twice,
                           16, scalarTile());
    auto& sink = g.add<SinkOp>("sink", m.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{2, 4, 6}));
    EXPECT_EQ(m.measuredFlops(), 3);
}

TEST(Map, TwoInputLockstep)
{
    Graph g;
    auto ta = encodeNested(vec({1, 2, 3}), 1);
    auto tb = encodeNested(vec({10, 20, 30}), 1);
    auto& a = g.add<SourceOp>("a", ta, StreamShape::fixed({3}),
                              scalarTile());
    auto& b = g.add<SourceOp>("b", tb, StreamShape::fixed({3}),
                              scalarTile());
    MapFn addv = [](const std::vector<Value>& xs, int64_t& fl) -> Value {
        fl += 1;
        return Tile::withData(
            1, 1, {xs[0].tile().at(0, 0) + xs[1].tile().at(0, 0)}, 1);
    };
    auto& m = g.add<MapOp>("m", std::vector<StreamPort>{a.out(), b.out()},
                           addv, 16, scalarTile());
    auto& sink = g.add<SinkOp>("sink", m.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 1);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{11, 22, 33}));
}

TEST(Accum, ReducesInnerDim)
{
    Graph g;
    auto toks = encodeNested(list({vec({1, 2}), vec({3, 4, 5})}), 2);
    auto& src = g.add<SourceOp>("src", toks,
                                StreamShape({Dim::fixed(2), Dim::ragged()}),
                                scalarTile());
    auto& acc = g.add<AccumOp>("acc", src.out(), 1, fns::zeroInit(1, 1, 1),
                               fns::addUpdate(), 16, scalarTile());
    auto& sink = g.add<SinkOp>("sink", acc.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 1);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{3, 12}));
}

TEST(Accum, FullRankReduceEmitsOnDone)
{
    Graph g;
    auto toks = encodeNested(vec({1, 2, 3, 4}), 1);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({4}),
                                scalarTile());
    auto& acc = g.add<AccumOp>("acc", src.out(), 1, fns::zeroInit(1, 1, 1),
                               fns::addUpdate(), 16, scalarTile());
    auto& sink = g.add<SinkOp>("sink", acc.out(), true);
    (void)g.run();
    ASSERT_EQ(sink.dataCount(), 1u);
    EXPECT_FLOAT_EQ(sink.tokens()[0].value().tile().at(0, 0), 10.0f);
}

TEST(Accum, RetileRowPacksDynamicTiles)
{
    // [1,2]-row tiles packed into one dynamically-sized tile per group.
    Graph g;
    Nested rows = list({
        list({Nested(Value(Tile::withData(1, 2, {1, 2}))),
              Nested(Value(Tile::withData(1, 2, {3, 4}))),
              Nested(Value(Tile::withData(1, 2, {5, 6})))}),
        list({Nested(Value(Tile::withData(1, 2, {7, 8})))}),
    });
    auto& src = g.add<SourceOp>("src", encodeNested(rows, 2),
                                StreamShape({Dim::fixed(2), Dim::ragged()}),
                                DataType::tile(1, 2));
    auto& acc = g.add<AccumOp>(
        "acc", src.out(), 1, fns::retileRowInit(2), fns::retileRowUpdate(),
        16, DataType::tile(Dim::ragged(), Dim::fixed(2)));
    auto& sink = g.add<SinkOp>("sink", acc.out(), true);
    (void)g.run();
    ASSERT_EQ(sink.dataCount(), 2u);
    const Tile& t0 = sink.tokens()[0].value().tile();
    EXPECT_EQ(t0.rows(), 3);
    EXPECT_EQ(t0.cols(), 2);
    EXPECT_FLOAT_EQ(t0.at(2, 1), 6.0f);
    const Tile& t1 = sink.tokens()[1].value().tile();
    EXPECT_EQ(t1.rows(), 1);
    // On-chip peak tracks the largest accumulated tile.
    EXPECT_EQ(acc.measuredOnChipPeakBytes(), 3 * 2 * 2);
}

TEST(Scan, EmitsRunningState)
{
    Graph g;
    auto toks = encodeNested(list({vec({1, 2, 3}), vec({10, 10})}), 2);
    auto& src = g.add<SourceOp>("src", toks,
                                StreamShape({Dim::fixed(2), Dim::ragged()}),
                                scalarTile());
    auto& sc = g.add<ScanOp>("scan", src.out(), 1, fns::zeroInit(1, 1, 1),
                             fns::addUpdate(), 16, scalarTile());
    auto& sink = g.add<SinkOp>("sink", sc.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 3, 6, 10, 20}));
}

TEST(FlatMap, ExpandsElements)
{
    Graph g;
    // Each [2,1] tile splits into two [1,1] row tiles.
    Nested n = list({Nested(Value(Tile::withData(2, 1, {1, 2}))),
                     Nested(Value(Tile::withData(2, 1, {3, 4})))});
    auto& src = g.add<SourceOp>("src", encodeNested(n, 1),
                                StreamShape::fixed({2}),
                                DataType::tile(2, 1));
    auto& fm = g.add<FlatMapOp>("fm", src.out(), fns::retileStreamify(1),
                                StreamShape({Dim::ragged()}),
                                DataType::tile(1, 1));
    auto& sink = g.add<SinkOp>("sink", fm.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    ASSERT_EQ(out.children().size(), 2u);
    EXPECT_EQ(out.children()[0].children().size(), 2u);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 2, 3, 4}));
}

TEST(Flatten, MergesInnerDims)
{
    Graph g;
    // Example (1) flatten: [2,2,D0] -> [2, D'].
    Nested n = list({list({vec({1, 2}), vec({3})}),
                     list({vec({4}), vec({5, 6, 7})})});
    auto& src = g.add<SourceOp>(
        "src", encodeNested(n, 3),
        StreamShape({Dim::fixed(2), Dim::fixed(2), Dim::ragged()}),
        scalarTile());
    auto& fl = g.add<FlattenOp>("fl", src.out(), 0, 1);
    EXPECT_EQ(fl.out().rank(), 2u);
    EXPECT_TRUE(fl.out().shape.inner(0).isRagged());
    auto& sink = g.add<SinkOp>("sink", fl.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    ASSERT_EQ(out.children().size(), 2u);
    EXPECT_EQ(out.children()[0].children().size(), 3u);
    EXPECT_EQ(out.children()[1].children().size(), 4u);
}

TEST(Reshape, PadsInnermostDim)
{
    Graph g;
    auto toks = encodeNested(list({vec({1, 2, 3, 4, 5})}), 2);
    auto& src = g.add<SourceOp>("src", toks,
                                StreamShape({Dim::fixed(1), Dim::ragged()}),
                                scalarTile());
    auto& rs = g.add<ReshapeOp>("rs", src.out(), 0, 2,
                                std::optional<Value>(val(0)));
    auto& sink = g.add<SinkOp>("sink", rs.out(), true);
    auto& psink = g.add<SinkOp>("psink", rs.padOut(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 3);
    // [1, ceil(5/2)=3, 2] with one padded element.
    ASSERT_EQ(out.children().size(), 1u);
    EXPECT_EQ(out.children()[0].children().size(), 3u);
    EXPECT_EQ(test::leavesOf(out),
              (std::vector<float>{1, 2, 3, 4, 5, 0}));
    Nested pads = decodeNested(psink.tokens(), 3);
    EXPECT_EQ(test::leavesOf(pads),
              (std::vector<float>{0, 0, 0, 0, 0, 1}));
}

TEST(Reshape, ExactMultipleNoPadding)
{
    Graph g;
    auto toks = encodeNested(list({vec({1, 2, 3, 4})}), 2);
    auto& src = g.add<SourceOp>("src", toks,
                                StreamShape({Dim::fixed(1), Dim::ragged()}),
                                scalarTile());
    auto& rs = g.add<ReshapeOp>("rs", src.out(), 0, 2,
                                std::optional<Value>(val(0)));
    auto& sink = g.add<SinkOp>("sink", rs.out(), true);
    g.add<SinkOp>("psink", rs.padOut(), false);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 3);
    EXPECT_EQ(out.children()[0].children().size(), 2u);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 2, 3, 4}));
}

TEST(Reshape, SplitsHigherStaticDim)
{
    Graph g;
    // [4, 1] split at rank 1 by chunk 2 -> [2, 2, 1].
    Nested n = list({vec({1}), vec({2}), vec({3}), vec({4})});
    auto& src = g.add<SourceOp>("src", encodeNested(n, 2),
                                StreamShape::fixed({4, 1}), scalarTile());
    auto& rs = g.add<ReshapeOp>("rs", src.out(), 1, 2);
    auto& sink = g.add<SinkOp>("sink", rs.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 3);
    ASSERT_EQ(out.children().size(), 2u);
    EXPECT_EQ(out.children()[0].children().size(), 2u);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 2, 3, 4}));
}

TEST(Promote, AddsUnitOuterDim)
{
    Graph g;
    auto toks = encodeNested(vec({1, 2}), 1);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2}),
                                scalarTile());
    auto& pr = g.add<PromoteOp>("pr", src.out());
    auto& sink = g.add<SinkOp>("sink", pr.out(), true);
    (void)g.run();
    EXPECT_EQ(tokensToString(sink.tokens()),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, D");
    Nested out = decodeNested(sink.tokens(), 2);
    ASSERT_EQ(out.children().size(), 1u);
    EXPECT_EQ(out.children()[0].children().size(), 2u);
}

TEST(Promote, EmptyStreamStaysEmpty)
{
    Graph g;
    auto& src = g.add<SourceOp>("src",
                                std::vector<Token>{Token::done()},
                                StreamShape({Dim::ragged()}),
                                scalarTile());
    auto& pr = g.add<PromoteOp>("pr", src.out());
    auto& sink = g.add<SinkOp>("sink", pr.out(), true);
    (void)g.run();
    EXPECT_EQ(tokensToString(sink.tokens()), "D");
}

TEST(ExpandStatic, WidensInnermost)
{
    Graph g;
    auto toks = encodeNested(list({vec({1}), vec({2})}), 2);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2, 1}),
                                scalarTile());
    auto& ex = g.add<ExpandStaticOp>("ex", src.out(), 3);
    auto& sink = g.add<SinkOp>("sink", ex.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    EXPECT_EQ(test::leavesOf(out),
              (std::vector<float>{1, 1, 1, 2, 2, 2}));
}

TEST(Expand, FollowsReferenceStructure)
{
    Graph g;
    // Figure 5: input [2,1,1], ref [2,R,2] -> value repeated per ref.
    Nested in = list({list({vec({7})}), list({vec({9})})});
    Nested ref = list({list({vec({0, 0}), vec({0, 0})}),
                       list({vec({0, 0})})});
    auto& si = g.add<SourceOp>("in", encodeNested(in, 3),
                               StreamShape::fixed({2, 1, 1}),
                               scalarTile());
    auto& sr = g.add<SourceOp>(
        "ref", encodeNested(ref, 3),
        StreamShape({Dim::fixed(2), Dim::ragged(), Dim::fixed(2)}),
        scalarTile());
    auto& ex = g.add<ExpandOp>("ex", si.out(), sr.out(), 2);
    auto& sink = g.add<SinkOp>("sink", ex.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 3);
    EXPECT_EQ(test::leavesOf(out),
              (std::vector<float>{7, 7, 7, 7, 9, 9}));
}

TEST(Repeat, AddsInnerDim)
{
    Graph g;
    auto toks = encodeNested(vec({1, 2}), 1);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2}),
                                scalarTile());
    auto& rp = g.add<RepeatOp>("rp", src.out(), 2);
    EXPECT_EQ(rp.out().rank(), 2u);
    auto& sink = g.add<SinkOp>("sink", rp.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    ASSERT_EQ(out.children().size(), 2u);
    EXPECT_EQ(out.children()[0].children().size(), 2u);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 1, 2, 2}));
}

// ---- fan-out aliasing: every output carries the full payload ----------
//
// Operators that send one input token to several outputs copy its value
// for all but the last use and move it into the last. These tests use
// multi-element (heap-backed) tiles and fail if any output sees a value
// that was moved away before its last use.

/** 1x4 functional row r: {r, r+1, r+2, r+3}. */
Tile
payloadRow(float r)
{
    return Tile::withData(1, 4, {r, r + 1, r + 2, r + 3}, 2);
}

/** The data tiles of a captured stream, in order. */
std::vector<Tile>
dataTiles(const std::vector<Token>& toks)
{
    std::vector<Tile> out;
    for (const Token& t : toks)
        if (t.isData())
            out.push_back(t.value().tile());
    return out;
}

void
expectRows(const std::vector<Tile>& got, const std::vector<float>& rows)
{
    ASSERT_EQ(got.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(got[i].hasData()) << "output " << i << " lost its payload";
        EXPECT_TRUE(got[i].equals(payloadRow(rows[i])))
            << "output " << i;
    }
}

TEST(FanOut, RepeatCopiesPayloadToEveryRepetition)
{
    Graph g;
    std::vector<Token> toks{Token::data(payloadRow(1)),
                            Token::data(payloadRow(5)), Token::done()};
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2}),
                                DataType::tile(1, 4));
    auto& rp = g.add<RepeatOp>("rp", src.out(), 3);
    auto& sink = g.add<SinkOp>("sink", rp.out(), true);
    (void)g.run();
    expectRows(dataTiles(sink.tokens()), {1, 1, 1, 5, 5, 5});
}

TEST(FanOut, BroadcastCopiesPayloadToEveryOutput)
{
    Graph g;
    std::vector<Token> toks{Token::data(payloadRow(2)),
                            Token::data(payloadRow(7)), Token::done()};
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({2}),
                                DataType::tile(1, 4));
    auto& bc = g.add<BroadcastOp>("bc", src.out(), 3);
    std::vector<SinkOp*> sinks;
    for (size_t o = 0; o < 3; ++o) {
        std::string name = "s";
        name += std::to_string(o);
        sinks.push_back(&g.add<SinkOp>(name, bc.out(o), true));
    }
    (void)g.run();
    for (SinkOp* s : sinks)
        expectRows(dataTiles(s->tokens()), {2, 7});
}

TEST(Zip, PairsAlignedStreams)
{
    Graph g;
    auto ta = encodeNested(list({vec({1, 2})}), 2);
    auto tb = encodeNested(list({vec({10, 20})}), 2);
    auto& a = g.add<SourceOp>("a", ta, StreamShape::fixed({1, 2}),
                              scalarTile());
    auto& b = g.add<SourceOp>("b", tb, StreamShape::fixed({1, 2}),
                              scalarTile());
    auto& z = g.add<ZipOp>("z", std::vector<StreamPort>{a.out(), b.out()});
    auto& sink = g.add<SinkOp>("sink", z.out(), true);
    (void)g.run();
    ASSERT_EQ(sink.dataCount(), 2u);
    const auto& tup = sink.tokens()[0].value().tupleElems();
    EXPECT_FLOAT_EQ(tup[0].tile().at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(tup[1].tile().at(0, 0), 10.0f);
}

TEST(Filter, DropsMaskedElements)
{
    Graph g;
    auto td = encodeNested(list({vec({1, 2, 3, 4})}), 2);
    auto tm = encodeNested(list({vec({0, 1, 0, 1})}), 2);
    auto& d = g.add<SourceOp>("d", td, StreamShape::fixed({1, 4}),
                              scalarTile());
    auto& m = g.add<SourceOp>("m", tm, StreamShape::fixed({1, 4}),
                              scalarTile());
    auto& f = g.add<FilterOp>("f", d.out(), m.out());
    auto& sink = g.add<SinkOp>("sink", f.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 2);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 3}));
}

TEST(MapTiming, RooflineDominatedByCompute)
{
    Graph g; // compute_bw 8 flops/cycle, 64 flops per element
    auto toks = encodeNested(vec({1, 2, 3, 4}), 1);
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({4}),
                                scalarTile());
    MapFn heavy = [](const std::vector<Value>& a, int64_t& fl) -> Value {
        fl += 64;
        return a[0];
    };
    auto& m = g.add<MapOp>("m", std::vector<StreamPort>{src.out()}, heavy,
                           8, scalarTile());
    auto& sink = g.add<SinkOp>("sink", m.out(), true);
    auto res = g.run();
    // 4 elements x 64/8 = 32 busy cycles on the map.
    EXPECT_GE(m.busyCycles(), 32u);
    EXPECT_GE(res.cycles, 32u);
    EXPECT_EQ(res.totalFlops, 256);
    EXPECT_EQ(res.allocatedComputeBw, 8);
    EXPECT_EQ(sink.dataCount(), 4u);
}

} // namespace
} // namespace step
