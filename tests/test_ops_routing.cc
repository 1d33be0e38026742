/**
 * @file
 * Tests for the dynamic routing and merging operators (section 3.2.3):
 * Partition / Reassemble round trips, Figure 4's reassemble semantics,
 * multi-hot routing, empty partitions, EagerMerge arrival ordering and
 * selector reporting, and the dynamic dispatcher.
 */
#include <gtest/gtest.h>

#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::list;
using test::val;
using test::vec;

std::vector<Token>
selectorStream(std::initializer_list<std::initializer_list<uint32_t>> sels)
{
    std::vector<Token> toks;
    for (auto s : sels)
        toks.push_back(Token::data(Selector(std::vector<uint32_t>(s))));
    toks.push_back(Token::done());
    return toks;
}

StreamPort
selSource(Graph& g, const std::string& name, std::vector<Token> toks,
          int64_t fanout)
{
    auto& src = g.add<SourceOp>(
        name, std::move(toks),
        StreamShape({Dim::fixed(0)}), DataType::selector(fanout));
    return src.out();
}

TEST(Partition, RoutesRowChunksBySelector)
{
    Graph g;
    // Input [4,1]: four single-element rows routed 0,1,0,1.
    Nested n = list({vec({1}), vec({2}), vec({3}), vec({4})});
    auto& in = g.add<SourceOp>("in", encodeNested(n, 2),
                               StreamShape::fixed({4, 1}),
                               test::scalarTile());
    StreamPort sel = selSource(g, "sel",
                               selectorStream({{0}, {1}, {0}, {1}}), 2);
    auto& part = g.add<PartitionOp>("part", in.out(), sel, 1, 2);
    auto& s0 = g.add<SinkOp>("s0", part.out(0), true);
    auto& s1 = g.add<SinkOp>("s1", part.out(1), true);
    (void)g.run();
    EXPECT_EQ(test::leavesOf(decodeNested(s0.tokens(), 2)),
              (std::vector<float>{1, 3}));
    EXPECT_EQ(test::leavesOf(decodeNested(s1.tokens(), 2)),
              (std::vector<float>{2, 4}));
}

TEST(Partition, EmptyPartitionGetsBareDone)
{
    Graph g;
    Nested n = list({vec({1}), vec({2})});
    auto& in = g.add<SourceOp>("in", encodeNested(n, 2),
                               StreamShape::fixed({2, 1}),
                               test::scalarTile());
    StreamPort sel = selSource(g, "sel", selectorStream({{0}, {0}}), 3);
    auto& part = g.add<PartitionOp>("part", in.out(), sel, 1, 3);
    g.add<SinkOp>("s0", part.out(0), true);
    auto& s1 = g.add<SinkOp>("s1", part.out(1), true);
    auto& s2 = g.add<SinkOp>("s2", part.out(2), true);
    (void)g.run();
    EXPECT_EQ(tokensToString(s1.tokens()), "D");
    EXPECT_EQ(tokensToString(s2.tokens()), "D");
}

TEST(Partition, MultiHotBroadcastsChunk)
{
    Graph g;
    Nested n = list({vec({1}), vec({2})});
    auto& in = g.add<SourceOp>("in", encodeNested(n, 2),
                               StreamShape::fixed({2, 1}),
                               test::scalarTile());
    StreamPort sel = selSource(g, "sel", selectorStream({{0, 1}, {1}}), 2);
    auto& part = g.add<PartitionOp>("part", in.out(), sel, 1, 2);
    auto& s0 = g.add<SinkOp>("s0", part.out(0), true);
    auto& s1 = g.add<SinkOp>("s1", part.out(1), true);
    (void)g.run();
    EXPECT_EQ(test::leavesOf(decodeNested(s0.tokens(), 2)),
              (std::vector<float>{1}));
    EXPECT_EQ(test::leavesOf(decodeNested(s1.tokens(), 2)),
              (std::vector<float>{1, 2}));
}

TEST(Partition, MultiHotCopiesPayloadToEverySelectedOutput)
{
    // Fan-out aliasing: a multi-hot selection copies each element to all
    // but the last selected output and moves it into the last; every
    // output must still see the full (heap-backed) payload.
    Graph g;
    auto row = [](float r) {
        return Tile::withData(1, 4, {r, r + 1, r + 2, r + 3}, 2);
    };
    std::vector<Token> in_toks{
        Token::data(row(1)), Token::data(row(2)), Token::stop(1),
        Token::data(row(3)), Token::stop(1), Token::done()};
    auto& in = g.add<SourceOp>("in", std::move(in_toks),
                               StreamShape::fixed({2, 2}),
                               DataType::tile(1, 4));
    StreamPort sel =
        selSource(g, "sel", selectorStream({{0, 1, 2}, {2, 0}}), 3);
    auto& part = g.add<PartitionOp>("part", in.out(), sel, 1, 3);
    std::vector<SinkOp*> sinks;
    for (size_t o = 0; o < 3; ++o)
        sinks.push_back(&g.add<SinkOp>("s" + std::to_string(o),
                                       part.out(o), true));
    (void)g.run();
    const std::vector<std::vector<float>> expect{{1, 2, 3}, {1, 2},
                                                 {1, 2, 3}};
    for (size_t o = 0; o < 3; ++o) {
        std::vector<Tile> got;
        for (const Token& t : sinks[o]->tokens())
            if (t.isData())
                got.push_back(t.value().tile());
        ASSERT_EQ(got.size(), expect[o].size()) << "output " << o;
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(got[i].hasData())
                << "output " << o << " element " << i << " lost its payload";
            EXPECT_TRUE(got[i].equals(row(expect[o][i])))
                << "output " << o << " element " << i;
        }
    }
}

TEST(PartitionReassemble, RoundTripIdentity)
{
    // Partition rows to 3 consumers then reassemble with the same
    // selector stream: values return in the original order.
    Graph g;
    Nested n = list({vec({1}), vec({2}), vec({3}), vec({4}), vec({5})});
    auto& in = g.add<SourceOp>("in", encodeNested(n, 2),
                               StreamShape::fixed({5, 1}),
                               test::scalarTile());
    auto sels = selectorStream({{0}, {2}, {1}, {0}, {2}});
    StreamPort selA = selSource(g, "selA", sels, 3);
    StreamPort selB = selSource(g, "selB", sels, 3);
    auto& part = g.add<PartitionOp>("part", in.out(), selA, 1, 3);
    auto& re = g.add<ReassembleOp>(
        "re",
        std::vector<StreamPort>{part.out(0), part.out(1), part.out(2)},
        selB, 1);
    auto& sink = g.add<SinkOp>("sink", re.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 3);
    EXPECT_EQ(test::leavesOf(out), (std::vector<float>{1, 2, 3, 4, 5}));
    ASSERT_EQ(out.children().size(), 5u);
}

TEST(Reassemble, Figure4Semantics)
{
    // Inputs: s0 = [W W W][Z Z], s1 = [X], s7(->2) = [Y Y].
    // Selectors: (0,1) then (0,2). Multi-hot groups collect whole chunks
    // and close with an incremented stop.
    Graph g;
    auto mk = [&](const std::string& name, Nested n) {
        return g.add<SourceOp>(name, encodeNested(n, 2),
                               StreamShape({Dim::ragged(), Dim::ragged()}),
                               test::scalarTile()).out();
    };
    StreamPort in0 = mk("in0", list({vec({1, 1, 1}), vec({4, 4})}));
    StreamPort in1 = mk("in1", list({vec({2})}));
    StreamPort in2 = mk("in2", list({vec({3, 3})}));
    StreamPort sel = selSource(g, "sel", selectorStream({{0, 1}, {0, 2}}),
                               3);
    auto& re = g.add<ReassembleOp>(
        "re", std::vector<StreamPort>{in0, in1, in2}, sel, 1);
    auto& sink = g.add<SinkOp>("sink", re.out(), true);
    (void)g.run();
    Nested out = decodeNested(sink.tokens(), 3);
    ASSERT_EQ(out.children().size(), 2u);
    // First selector group has chunks from 0 and 1; chunks never
    // interleave.
    EXPECT_EQ(out.children()[0].children().size(), 2u);
    std::vector<float> flat = test::leavesOf(out);
    std::multiset<float> group0(flat.begin(), flat.begin() + 4);
    EXPECT_EQ(group0, (std::multiset<float>{1, 1, 1, 2}));
    std::multiset<float> group1(flat.begin() + 4, flat.end());
    EXPECT_EQ(group1, (std::multiset<float>{3, 3, 4, 4}));
}

TEST(EagerMerge, MergesAllChunksAndReportsOrigins)
{
    Graph g;
    auto mk = [&](const std::string& name, Nested n) {
        return g.add<SourceOp>(name, encodeNested(n, 2),
                               StreamShape({Dim::ragged(), Dim::ragged()}),
                               test::scalarTile()).out();
    };
    StreamPort in0 = mk("in0", list({vec({1}), vec({2})}));
    StreamPort in1 = mk("in1", list({vec({10, 11})}));
    auto& em = g.add<EagerMergeOp>(
        "em", std::vector<StreamPort>{in0, in1}, 1);
    auto& dsink = g.add<SinkOp>("d", em.out(), true);
    auto& ssink = g.add<SinkOp>("s", em.selOut(), true);
    (void)g.run();
    Nested out = decodeNested(dsink.tokens(), 2);
    ASSERT_EQ(out.children().size(), 3u);
    // Selector stream has one origin per chunk; replaying it against the
    // chunks recovers the per-input substreams in order.
    ASSERT_EQ(ssink.dataCount(), 3u);
    std::vector<std::vector<float>> per_input(2);
    for (size_t i = 0; i < 3; ++i) {
        uint32_t origin =
            ssink.tokens()[i].value().selector().indices[0];
        for (float v : test::leavesOf(out.children()[i]))
            per_input[origin].push_back(v);
    }
    EXPECT_EQ(per_input[0], (std::vector<float>{1, 2}));
    EXPECT_EQ(per_input[1], (std::vector<float>{10, 11}));
}

TEST(EagerMerge, Rank0MergesScalars)
{
    Graph g;
    auto& a = g.add<SourceOp>("a", encodeNested(vec({1, 2}), 1),
                              StreamShape({Dim::ragged()}),
                              test::scalarTile());
    auto& b = g.add<SourceOp>("b", encodeNested(vec({3}), 1),
                              StreamShape({Dim::ragged()}),
                              test::scalarTile());
    auto& em = g.add<EagerMergeOp>(
        "em", std::vector<StreamPort>{a.out(), b.out()}, 0);
    auto& dsink = g.add<SinkOp>("d", em.out(), true);
    auto& ssink = g.add<SinkOp>("s", em.selOut(), true);
    (void)g.run();
    EXPECT_EQ(dsink.dataCount(), 3u);
    EXPECT_EQ(ssink.dataCount(), 3u);
}

TEST(EagerMerge, PrefersEarlierArrival)
{
    Graph g;
    // Slow producer: big II on source. Fast producer should merge first.
    Nested slow_n = list({vec({100})});
    Nested fast_n = list({vec({1})});
    auto& slow = g.add<SourceOp>("slow", encodeNested(slow_n, 2),
                                 StreamShape({Dim::ragged(),
                                              Dim::ragged()}),
                                 test::scalarTile(), 500);
    auto& fast = g.add<SourceOp>("fast", encodeNested(fast_n, 2),
                                 StreamShape({Dim::ragged(),
                                              Dim::ragged()}),
                                 test::scalarTile(), 1);
    auto& em = g.add<EagerMergeOp>(
        "em", std::vector<StreamPort>{slow.out(), fast.out()}, 1);
    auto& dsink = g.add<SinkOp>("d", em.out(), true);
    g.add<SinkOp>("s", em.selOut(), false);
    (void)g.run();
    Nested out = decodeNested(dsink.tokens(), 2);
    ASSERT_EQ(out.children().size(), 2u);
    EXPECT_FLOAT_EQ(test::leavesOf(out.children()[0])[0], 1.0f);
    EXPECT_FLOAT_EQ(test::leavesOf(out.children()[1])[0], 100.0f);
}

TEST(Dispatcher, RoundRobinThenCompletionDriven)
{
    Graph g;
    // Completions arrive from region 1 twice then region 0.
    std::vector<Token> comps;
    comps.push_back(Token::data(Selector::oneHot(1)));
    comps.push_back(Token::data(Selector::oneHot(1)));
    comps.push_back(Token::data(Selector::oneHot(0)));
    comps.push_back(Token::done());
    auto& csrc = g.add<SourceOp>("c", comps, StreamShape({Dim::ragged()}),
                                 DataType::selector(2));
    auto& disp = g.add<DispatcherOp>("disp", csrc.out(), 2, 5,
                                     Dim::fixed(5));
    auto& sink = g.add<SinkOp>("sink", disp.out(), true);
    (void)g.run();
    ASSERT_EQ(sink.dataCount(), 5u);
    std::vector<uint32_t> order;
    for (const auto& t : sink.tokens())
        if (t.isData())
            order.push_back(t.value().selector().indices[0]);
    EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 1, 1, 0}));
}

TEST(Dispatcher, RearmTakesNewTotalAndPriming)
{
    auto completions = [] {
        return std::vector<Token>{Token::data(Selector::oneHot(1)),
                                  Token::done()};
    };
    Graph g;
    auto& csrc = g.add<SourceOp>("c", completions(),
                                 StreamShape({Dim::ragged()}),
                                 DataType::selector(2));
    auto& disp = g.add<DispatcherOp>("disp", csrc.out(), 2, 3,
                                     Dim::dynamicExpr(sym::Expr::sym("N")));
    auto& sink = g.add<SinkOp>("sink", disp.out());
    (void)g.run();
    EXPECT_EQ(sink.dataCount(), 3u);
    EXPECT_EQ(disp.ports()[1].priming, 2);

    // A total below the region count primes fewer selectors.
    g.rearm(g.config());
    csrc.setTokens(completions());
    disp.setTotal(1);
    EXPECT_EQ(disp.ports()[1].priming, 1);
    (void)g.run();
    EXPECT_EQ(sink.dataCount(), 1u);
}

TEST(Dispatcher, RearmRejectsNewTotalUnderStaticExtent)
{
    Graph g;
    auto& csrc = g.add<SourceOp>(
        "c", std::vector<Token>{Token::done()},
        StreamShape({Dim::ragged()}), DataType::selector(2));
    auto& disp = g.add<DispatcherOp>("disp", csrc.out(), 2, 3,
                                     Dim::fixed(3));
    g.add<SinkOp>("sink", disp.out());
    EXPECT_NO_THROW(disp.setTotal(3));
    EXPECT_THROW(disp.setTotal(4), PanicError);
}

} // namespace
} // namespace step
