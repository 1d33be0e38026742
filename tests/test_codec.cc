/**
 * @file
 * Tests of the stop-token protocol: encode/decode round trips, the
 * paper's example streams, stop coalescing, empty groups, and
 * well-formedness checking.
 */
#include <gtest/gtest.h>

#include "support/rng.hh"
#include "workloads/moe.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::leaf;
using test::list;
using test::vec;

TEST(Codec, PaperExampleOne)
{
    // Example (1): 1,2,S1,3,S2,4,S1,5,6,7,S2,D with shape [2,2,D0].
    Nested n = list({list({vec({1, 2}), vec({3})}),
                     list({vec({4}), vec({5, 6, 7})})});
    auto toks = encodeNested(n, 3);
    EXPECT_EQ(tokensToString(toks),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, Tile[1x1]{3}, S2, "
              "Tile[1x1]{4}, S1, Tile[1x1]{5}, Tile[1x1]{6}, "
              "Tile[1x1]{7}, S2, D");
}

TEST(Codec, Rank1StreamHasNoStops)
{
    auto toks = encodeNested(vec({1, 2, 3}), 1);
    EXPECT_EQ(toks.size(), 4u);
    EXPECT_TRUE(toks[3].isDone());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(toks[static_cast<size_t>(i)].isData());
}

TEST(Codec, Rank2EndsWithS1Done)
{
    auto toks = encodeNested(list({vec({1, 2}), vec({3, 4})}), 2);
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_TRUE(toks[2].isStop());
    EXPECT_EQ(toks[2].level(), 1u);
    EXPECT_TRUE(toks[5].isStop());
    EXPECT_EQ(toks[5].level(), 1u);
    EXPECT_TRUE(toks[6].isDone());
}

TEST(Codec, EmptyStreamIsJustDone)
{
    auto toks = encodeNested(Nested::list({}), 3);
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_TRUE(toks[0].isDone());
}

TEST(Codec, EmptyMiddleGroupEncodesAdjacentStops)
{
    // [2 elements][empty][1 element] at rank 2.
    Nested n = list({vec({1, 2}), vec({}), vec({3})});
    auto toks = encodeNested(n, 2);
    EXPECT_EQ(tokensToString(toks),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, S1, Tile[1x1]{3}, S1, D");
    Nested back = decodeNested(toks, 2);
    ASSERT_EQ(back.children().size(), 3u);
    EXPECT_EQ(back.children()[1].children().size(), 0u);
}

TEST(Codec, TrailingEmptyGroupSurvivesRoundTrip)
{
    Nested n = list({list({vec({1, 2}), vec({})})});
    auto toks = encodeNested(n, 3);
    // The empty trailing vector's S1 upgrades to S2 (highest-stop rule);
    // decode still reconstructs the empty vector.
    EXPECT_EQ(tokensToString(toks),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, S2, D");
    Nested back = decodeNested(toks, 3);
    ASSERT_EQ(back.children().size(), 1u);
    ASSERT_EQ(back.children()[0].children().size(), 2u);
    EXPECT_EQ(back.children()[0].children()[1].children().size(), 0u);
}

TEST(Codec, RaggedRoundTrip)
{
    Nested n = list({vec({1}), vec({2, 3, 4}), vec({}), vec({5, 6})});
    auto toks = encodeNested(n, 2);
    Nested back = decodeNested(toks, 2);
    ASSERT_EQ(back.children().size(), 4u);
    EXPECT_EQ(test::leavesOf(back),
              (std::vector<float>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(back.children()[2].children().size(), 0u);
}

/** Writes through a StopCoalescer the way the STEP_STOP, STEP_FLUSH
 *  and STEP_PASS operator macros do. */
struct CoalescingWriter
{
    StopCoalescer coal;
    std::vector<Token> out;

    void
    flush()
    {
        if (coal.pending())
            out.push_back(Token::stop(coal.take()));
    }
    void
    data(float v)
    {
        flush();
        out.push_back(Token::data(test::val(v)));
    }
    void
    stop(uint32_t level)
    {
        if (uint32_t l = coal.stop(level))
            out.push_back(Token::stop(l));
    }
    void
    done()
    {
        flush();
        out.push_back(Token::done());
    }
};

TEST(Codec, CoalescerUpgradesNestedEnds)
{
    CoalescingWriter w;
    w.data(1);
    w.stop(1);
    w.stop(2); // upgrades the held S1
    w.done();
    EXPECT_EQ(tokensToString(w.out), "Tile[1x1]{1}, S2, D");
}

TEST(Codec, CoalescerKeepsEmptyGroups)
{
    CoalescingWriter w;
    w.stop(1);
    w.stop(1); // same level: releases the first (empty group)
    w.data(1);
    w.done();
    EXPECT_EQ(tokensToString(w.out), "S1, S1, Tile[1x1]{1}, D");
}

TEST(Codec, CoalescerStopReturnsTheStopToWrite)
{
    StopCoalescer c;
    EXPECT_FALSE(c.pending());
    EXPECT_EQ(c.stop(1), 0u); // nothing held
    EXPECT_EQ(c.stop(2), 0u); // upgrade
    EXPECT_EQ(c.stop(2), 2u); // same level releases the held S2
    EXPECT_EQ(c.stop(1), 2u); // lower level too
    EXPECT_TRUE(c.pending());
    EXPECT_EQ(c.take(), 1u);
    EXPECT_FALSE(c.pending());
    EXPECT_EQ(c.take(), 0u);
}

TEST(Codec, HandWrittenRowStreamMatchesTheCodec)
{
    // rowStreamTokens writes [B, 1] of rows without a coalescer; it must
    // equal the codec's rank-2 encoding of one row per group.
    const int64_t hidden = 4;
    for (int64_t batch : {1, 3}) {
        std::vector<Nested> groups;
        for (int64_t t = 0; t < batch; ++t)
            groups.push_back(list({Nested(Value(Tile(1, hidden)))}));
        auto want = encodeNested(Nested::list(groups), 2);
        auto got = rowStreamTokens(batch, hidden);
        EXPECT_EQ(tokensToString(got), tokensToString(want))
            << "batch " << batch;
        EXPECT_FALSE(checkWellFormed(got, 2).has_value());
    }
}

TEST(Codec, WellFormedAcceptsValid)
{
    auto toks = encodeNested(list({vec({1}), vec({2, 3})}), 2);
    EXPECT_FALSE(checkWellFormed(toks, 2).has_value());
}

TEST(Codec, WellFormedRejectsBadLevels)
{
    std::vector<Token> toks{Token::data(test::val(1)), Token::stop(3),
                            Token::done()};
    EXPECT_TRUE(checkWellFormed(toks, 2).has_value());
}

TEST(Codec, WellFormedRejectsMissingDone)
{
    std::vector<Token> toks{Token::data(test::val(1))};
    EXPECT_TRUE(checkWellFormed(toks, 1).has_value());
}

TEST(Codec, WellFormedRejectsUnclosedDims)
{
    // rank 3 stream whose data is never closed by S2.
    std::vector<Token> toks{Token::data(test::val(1)), Token::stop(1),
                            Token::done()};
    EXPECT_TRUE(checkWellFormed(toks, 3).has_value());
}

TEST(Codec, WellFormedRejectsTokenAfterDone)
{
    std::vector<Token> toks{Token::done(), Token::data(test::val(1))};
    EXPECT_TRUE(checkWellFormed(toks, 1).has_value());
}

/** Round-trip property over pseudo-random ragged trees. */
class CodecRoundTrip : public ::testing::TestWithParam<uint64_t> {};

namespace {

Nested
randomTree(Rng& rng, size_t depth, float& counter)
{
    if (depth == 0)
        return leaf(counter++);
    size_t n = rng.uniformInt(4); // 0..3 children
    std::vector<Nested> kids;
    for (size_t i = 0; i < n; ++i)
        kids.push_back(randomTree(rng, depth - 1, counter));
    return Nested::list(std::move(kids));
}

} // namespace

TEST_P(CodecRoundTrip, EncodeDecodeIdentity)
{
    Rng rng(GetParam());
    for (size_t rank = 1; rank <= 4; ++rank) {
        float counter = 1.0f;
        Nested n = randomTree(rng, rank, counter);
        auto toks = encodeNested(n, rank);
        ASSERT_FALSE(checkWellFormed(toks, rank).has_value())
            << tokensToString(toks);
        Nested back = decodeNested(toks, rank);
        EXPECT_EQ(test::leavesOf(back), test::leavesOf(n));
        // Group counts at the top level must survive unless trailing
        // groups were entirely empty (those are preserved too).
        EXPECT_EQ(back.children().size(), n.children().size())
            << "rank " << rank << ": " << tokensToString(toks);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
} // namespace step
