/**
 * @file
 * Property-based tests of the shape semantics: for randomized operator
 * pipelines and randomized ragged inputs, the symbolic shape declared by
 * shape inference must agree with the observed token stream — same
 * rank, and equal extents wherever the inferred dimension is static.
 * Also checks stream conservation laws (Partition/Reassemble round
 * trips preserve multisets; EagerMerge preserves chunk contents), and
 * that chains of the pass-through operators leave a stream exactly as
 * the codec reference says.
 */
#include <gtest/gtest.h>

#include <set>

#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/rng.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::leavesOf;
using test::scalarTile;

/** Observed extents: for each depth, the set of group sizes. */
void
observedExtents(const Nested& n, size_t depth,
                std::vector<std::set<size_t>>& per_level)
{
    if (n.isLeaf())
        return;
    per_level[depth].insert(n.children().size());
    for (const auto& c : n.children())
        observedExtents(c, depth + 1, per_level);
}

/**
 * Check a decoded stream against a symbolic shape: every static dim's
 * extent must equal the observed group size at that level (when any
 * group was observed; trailing-empty collapse makes sizes of absent
 * groups unobservable).
 */
void
checkShapeAgainstStream(const StreamShape& shape,
                        const std::vector<Token>& toks)
{
    size_t rank = shape.rank();
    ASSERT_FALSE(checkWellFormed(toks, rank).has_value())
        << tokensToString(toks);
    if (countData(toks) == 0)
        return; // empty stream: no extents observable
    Nested n = decodeNested(toks, rank);
    std::vector<std::set<size_t>> per_level(rank + 1);
    per_level[0].insert(n.children().size());
    for (const auto& c : n.children())
        observedExtents(c, 1, per_level);
    for (size_t lvl = 0; lvl < rank; ++lvl) {
        const Dim& d = shape.outer(lvl);
        if (!d.isStatic() || per_level[lvl].empty())
            continue;
        auto expect = static_cast<size_t>(d.size.eval({}));
        for (size_t got : per_level[lvl]) {
            // Empty groups are unattributable: a collapsed ragged/empty
            // ancestor shows up as a zero-sized group at this level in
            // the stop-token encoding. Only nonzero extents must match.
            if (got == 0)
                continue;
            EXPECT_EQ(got, expect)
                << "level " << lvl << " of " << shape.toString() << ": "
                << tokensToString(toks);
        }
    }
}

/** Random ragged tensor with exact static outer dims where given. */
Nested
randomNested(Rng& rng, const std::vector<int64_t>& dims, size_t level,
             float& counter)
{
    if (level == dims.size())
        return Nested(test::val(counter++));
    int64_t n = dims[level] >= 0 ? dims[level]
                                 : static_cast<int64_t>(
                                       rng.uniformInt(4));
    std::vector<Nested> kids;
    for (int64_t i = 0; i < n; ++i)
        kids.push_back(randomNested(rng, dims, level + 1, counter));
    return Nested::list(std::move(kids));
}

class ShapeInference : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapeInference, PipelineShapesMatchObservedStreams)
{
    Rng rng(GetParam());
    // Random source: 2-3 dims, mix of static and ragged.
    size_t rank = 2 + rng.uniformInt(2);
    std::vector<int64_t> concrete;
    std::vector<Dim> dims;
    for (size_t i = 0; i < rank; ++i) {
        if (rng.uniform() < 0.5) {
            int64_t s = 1 + static_cast<int64_t>(rng.uniformInt(3));
            concrete.push_back(s);
            dims.push_back(Dim::fixed(s));
        } else {
            concrete.push_back(-1); // ragged
            dims.push_back(Dim::ragged());
        }
    }
    float counter = 1.0f;
    Nested n = randomNested(rng, concrete, 0, counter);
    auto toks = encodeNested(n, rank);

    Graph g;
    StreamPort cur = g.add<SourceOp>("src", toks, StreamShape(dims),
                                     scalarTile()).out();
    // Random chain of shape operators.
    size_t n_ops = 1 + rng.uniformInt(3);
    for (size_t i = 0; i < n_ops; ++i) {
        std::string name = "op" + std::to_string(i);
        switch (rng.uniformInt(4)) {
          case 0: { // Flatten a random inner range
            if (cur.rank() < 2)
                break;
            size_t hi = 1 + rng.uniformInt(cur.rank() - 1);
            cur = g.add<FlattenOp>(name, cur, 0, hi).out();
            break;
          }
          case 1: // Promote
            cur = g.add<PromoteOp>(name, cur).out();
            break;
          case 2: // Repeat (adds a static inner dim)
            cur = g.add<RepeatOp>(
                name, cur,
                1 + static_cast<int64_t>(rng.uniformInt(3))).out();
            break;
          default: // ExpandStatic (widens the innermost dim)
            cur = g.add<ExpandStaticOp>(
                name, cur,
                1 + static_cast<int64_t>(rng.uniformInt(3))).out();
            break;
        }
    }
    auto& sink = g.add<SinkOp>("sink", cur, true);
    (void)g.run();
    checkShapeAgainstStream(cur.shape, sink.tokens());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeInference,
                         ::testing::Range<uint64_t>(1, 41));

class RoutingConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingConservation, PartitionReassembleIsIdentity)
{
    Rng rng(GetParam());
    const auto n_rows =
        static_cast<int64_t>(4 + rng.uniformInt(12));
    const size_t n_out = 2 + rng.uniformInt(3);

    std::vector<Nested> rows;
    std::vector<Token> sels;
    for (int64_t i = 0; i < n_rows; ++i) {
        rows.push_back(test::vec(
            {static_cast<float>(i + 1)}));
        sels.push_back(Token::data(Selector::oneHot(
            static_cast<uint32_t>(rng.uniformInt(n_out)))));
    }
    sels.push_back(Token::done());

    // FIFO sizing discipline (DESIGN.md): channels between Partition
    // and Reassemble must cover the rows in flight per output.
    SimConfig sc;
    sc.channelCapacity = static_cast<size_t>(n_rows) + 8;
    Graph g(sc);
    auto& in = g.add<SourceOp>(
        "in", encodeNested(Nested::list(rows), 2),
        StreamShape({Dim::fixed(n_rows), Dim::fixed(1)}), scalarTile());
    auto& sa = g.add<SourceOp>("sa", sels,
                               StreamShape({Dim::fixed(n_rows)}),
                               DataType::selector(
                                   static_cast<int64_t>(n_out)));
    auto& sb = g.add<SourceOp>("sb", sels,
                               StreamShape({Dim::fixed(n_rows)}),
                               DataType::selector(
                                   static_cast<int64_t>(n_out)));
    auto& part = g.add<PartitionOp>("p", in.out(), sa.out(), 1, n_out);
    std::vector<StreamPort> outs;
    for (size_t i = 0; i < n_out; ++i)
        outs.push_back(part.out(i));
    auto& re = g.add<ReassembleOp>("r", outs, sb.out(), 1);
    auto& sink = g.add<SinkOp>("sink", re.out(), true);
    (void)g.run();

    Nested out = decodeNested(sink.tokens(), 3);
    std::vector<float> got = leavesOf(out);
    std::vector<float> expect;
    for (int64_t i = 0; i < n_rows; ++i)
        expect.push_back(static_cast<float>(i + 1));
    EXPECT_EQ(got, expect) << "round trip must preserve order";
    EXPECT_EQ(out.children().size(), static_cast<size_t>(n_rows));
}

TEST_P(RoutingConservation, EagerMergePreservesChunkMultiset)
{
    Rng rng(GetParam() + 1000);
    const size_t n_in = 2 + rng.uniformInt(3);
    Graph g;
    std::vector<StreamPort> ins;
    std::multiset<float> expect;
    float v = 1.0f;
    for (size_t i = 0; i < n_in; ++i) {
        std::vector<Nested> chunks;
        size_t n_chunks = rng.uniformInt(4);
        for (size_t c = 0; c < n_chunks; ++c) {
            chunks.push_back(test::vec({v}));
            expect.insert(v);
            v += 1.0f;
        }
        ins.push_back(g.add<SourceOp>(
            "in" + std::to_string(i),
            encodeNested(Nested::list(chunks), 2),
            StreamShape({Dim::ragged(), Dim::ragged()}),
            scalarTile()).out());
    }
    auto& em = g.add<EagerMergeOp>("em", ins, 1);
    auto& dsink = g.add<SinkOp>("d", em.out(), true);
    auto& ssink = g.add<SinkOp>("s", em.selOut(), true);
    (void)g.run();
    auto vals = leavesOf(decodeNested(dsink.tokens(), 2));
    std::multiset<float> got(vals.begin(), vals.end());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(ssink.dataCount(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingConservation,
                         ::testing::Range<uint64_t>(1, 21));

// ---- pass-through operators preserve the stream ------------------------

/** @p n with every leaf replaced by fn(leaf). */
template <typename F>
Nested
mapLeaves(const Nested& n, F&& fn)
{
    if (n.isLeaf())
        return fn(n);
    std::vector<Nested> kids;
    for (const auto& c : n.children())
        kids.push_back(mapLeaves(c, fn));
    return Nested::list(std::move(kids));
}

/** Append to @p out, in order, the nodes @p levels list levels below
 *  @p n's children (its children when @p levels is 0). */
void
gatherLevel(const Nested& n, size_t levels, std::vector<Nested>& out)
{
    for (const auto& c : n.children()) {
        if (levels == 0)
            out.push_back(c);
        else
            gatherLevel(c, levels - 1, out);
    }
}

/** Reference Flatten(lo, hi) of a rank-@p rank tree: the lists of
 *  dimensions lo..hi (0 = innermost) merge into one. */
Nested
flattenRef(const Nested& n, size_t rank, size_t lo, size_t hi,
           size_t depth = 0)
{
    if (n.isLeaf())
        return n;
    const size_t inner = rank - 1 - depth;
    std::vector<Nested> kids;
    if (inner == hi) {
        gatherLevel(n, hi - lo, kids);
        return Nested::list(std::move(kids));
    }
    for (const auto& c : n.children())
        kids.push_back(flattenRef(c, rank, lo, hi, depth + 1));
    return Nested::list(std::move(kids));
}

/**
 * Random ragged tree of depth @p depth with empty groups anywhere but at
 * the end of a group: a group that may not be empty (@p nonEmpty) gets
 * at least one child, and every group's last child is such a group.
 */
Nested
randomStreamTree(Rng& rng, size_t depth, bool nonEmpty, float& counter)
{
    if (depth == 0)
        return Nested(test::val(counter++));
    size_t n = rng.uniformInt(4);
    if (nonEmpty && n == 0)
        n = 1;
    std::vector<Nested> kids;
    for (size_t i = 0; i < n; ++i)
        kids.push_back(randomStreamTree(rng, depth - 1, i + 1 == n,
                                        counter));
    return Nested::list(std::move(kids));
}

class PassThrough : public ::testing::TestWithParam<uint64_t> {};

/**
 * Random nested streams (ragged groups, empty groups, coinciding group
 * ends, so runs of nested stops) through a random chain of the
 * operators that forward popped data tokens: Flatten, Repeat(1), Filter
 * with a mask that keeps every element, Promote. The output must be the
 * codec's encoding of the reference tree.
 *
 * The FIFOs are deep, so a stop stays pending in an operator's
 * coalescer when the next data token arrives. Two stream features are
 * left out because these operators do not preserve them:
 *  - a trailing empty group (encoded as an ascending stop run such as
 *    S1, S2): a forwarding coalescer upgrades the first stop into the
 *    second and drops the group;
 *  - a FIFO that runs empty mid-stream: the operators flush a pending
 *    stop when their input is empty, which splits coinciding group ends
 *    into an empty group (ROADMAP item 5's flush rule).
 */
TEST_P(PassThrough, ChainPreservesTheStream)
{
    Rng rng(GetParam() + 2000);
    size_t rank = 2 + rng.uniformInt(2);
    float counter = 1.0f;
    Nested want = randomStreamTree(rng, rank, false, counter);

    SimConfig sc;
    sc.channelCapacity = 256;
    Graph g(sc);
    auto anyShape = [](size_t r) {
        return StreamShape(std::vector<Dim>(r, Dim::ragged()));
    };
    StreamPort cur = g.add<SourceOp>("src", encodeNested(want, rank),
                                     anyShape(rank), scalarTile()).out();
    std::string chain;
    const size_t n_ops = 1 + rng.uniformInt(4);
    for (size_t i = 0; i < n_ops; ++i) {
        std::string name = "op" + std::to_string(i);
        switch (rng.uniformInt(4)) {
          case 0: { // Flatten a random range
            size_t lo = rng.uniformInt(rank);
            size_t hi = lo + rng.uniformInt(rank - lo);
            cur = g.add<FlattenOp>(name, cur, lo, hi).out();
            want = flattenRef(want, rank, lo, hi);
            rank -= hi - lo;
            chain += " flatten(" + std::to_string(lo) + "," +
                     std::to_string(hi) + ")";
            break;
          }
          case 1:
            cur = g.add<RepeatOp>(name, cur, 1).out();
            want = mapLeaves(want, [](const Nested& l) {
                return Nested::list({l});
            });
            ++rank;
            chain += " repeat(1)";
            break;
          case 2: { // a zero mask value keeps the element
            Nested keep = mapLeaves(
                want, [](const Nested&) { return test::leaf(0.0f); });
            auto& mask = g.add<SourceOp>(
                name + ".mask", encodeNested(keep, rank), anyShape(rank),
                scalarTile());
            cur = g.add<FilterOp>(name, cur, mask.out()).out();
            chain += " filter";
            break;
          }
          default:
            cur = g.add<PromoteOp>(name, cur).out();
            if (!want.children().empty())
                want = Nested::list({want});
            ++rank;
            chain += " promote";
            break;
        }
    }
    auto& sink = g.add<SinkOp>("sink", cur, true);
    (void)g.run();

    const std::vector<Token> expect = encodeNested(want, rank);
    ASSERT_FALSE(checkWellFormed(sink.tokens(), rank).has_value())
        << chain << ": " << tokensToString(sink.tokens());
    EXPECT_EQ(tokensToString(sink.tokens()), tokensToString(expect))
        << chain;
    EXPECT_EQ(decodeNested(sink.tokens(), rank).toString(),
              decodeNested(expect, rank).toString())
        << chain;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassThrough,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
} // namespace step
