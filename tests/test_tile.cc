/**
 * @file
 * Tile algebra tests: matmul, elementwise ops, concatenation, slicing,
 * FLOP accounting, and shape-only (timing mode) propagation. Then the
 * value representation: every Value alternative and tile payload store
 * under copy, move, cross-kind move-assign and self-assign, payload
 * sharing between copies (freed exactly once: the suite runs under ASan
 * and TSan in CI), and the observable tile semantics of each store.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/tile.hh"
#include "core/token.hh"
#include "core/value.hh"
#include "support/error.hh"

namespace step {
namespace {

TEST(Tile, MatmulSmall)
{
    Tile a = Tile::withData(2, 3, {1, 2, 3, 4, 5, 6});
    Tile b = Tile::withData(3, 2, {7, 8, 9, 10, 11, 12});
    int64_t flops = 0;
    Tile c = matmul(a, b, &flops);
    EXPECT_EQ(flops, 2 * 2 * 3 * 2);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Tile, MatmulShapeOnlyPropagates)
{
    Tile a(4, 8);
    Tile b(8, 16);
    int64_t flops = 0;
    Tile c = matmul(a, b, &flops);
    EXPECT_EQ(c.rows(), 4);
    EXPECT_EQ(c.cols(), 16);
    EXPECT_FALSE(c.hasData());
    EXPECT_EQ(flops, 2 * 4 * 8 * 16);
}

TEST(Tile, MatmulShapeMismatchThrows)
{
    EXPECT_THROW(matmul(Tile(2, 3), Tile(4, 2)), PanicError);
}

TEST(Tile, AddAndMul)
{
    Tile a = Tile::withData(1, 3, {1, 2, 3});
    Tile b = Tile::withData(1, 3, {10, 20, 30});
    Tile s = add(a, b);
    Tile m = elemMul(a, b);
    EXPECT_FLOAT_EQ(s.at(0, 2), 33.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 40.0f);
}

TEST(Tile, Silu)
{
    Tile a = Tile::withData(1, 2, {0.0f, 100.0f});
    Tile s = silu(a);
    EXPECT_FLOAT_EQ(s.at(0, 0), 0.0f);
    EXPECT_NEAR(s.at(0, 1), 100.0f, 1e-3);
}

TEST(Tile, RetileRowGrowsDynamically)
{
    Tile acc(0, 4, 2);
    Tile row1 = Tile::withData(1, 4, {1, 2, 3, 4});
    Tile row2 = Tile::withData(2, 4, {5, 6, 7, 8, 9, 10, 11, 12});
    Tile r = retileRow(acc, row1);
    EXPECT_EQ(r.rows(), 1);
    r = retileRow(r, row2);
    EXPECT_EQ(r.rows(), 3);
    EXPECT_EQ(r.cols(), 4);
    EXPECT_FLOAT_EQ(r.at(2, 3), 12.0f);
    EXPECT_EQ(r.bytes(), 3 * 4 * 2);
}

TEST(Tile, RetileColConcats)
{
    Tile a = Tile::withData(2, 1, {1, 2});
    Tile b = Tile::withData(2, 2, {3, 4, 5, 6});
    Tile c = retileCol(a, b);
    EXPECT_EQ(c.rows(), 2);
    EXPECT_EQ(c.cols(), 3);
    EXPECT_FLOAT_EQ(c.at(0, 1), 3.0f);
    EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
}

TEST(Tile, SliceRows)
{
    Tile a = Tile::withData(3, 2, {1, 2, 3, 4, 5, 6});
    Tile s = sliceRows(a, 1, 3);
    EXPECT_EQ(s.rows(), 2);
    EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(s.at(1, 1), 6.0f);
}

TEST(Tile, BytesUseElementSize)
{
    Tile bf16(8, 8, 2);
    Tile fp32(8, 8, 4);
    EXPECT_EQ(bf16.bytes(), 128);
    EXPECT_EQ(fp32.bytes(), 256);
}

TEST(Tile, EqualsRespectsTolerance)
{
    Tile a = Tile::withData(1, 1, {1.0f});
    Tile b = Tile::withData(1, 1, {1.0005f});
    EXPECT_FALSE(a.equals(b));
    EXPECT_TRUE(a.equals(b, 1e-2f));
}

// ---- value representation ---------------------------------------------

/** Same alternative and same content (payload compared exactly). */
bool
sameValue(const Value& a, const Value& b)
{
    if (a.isTile() && b.isTile()) {
        const Tile& x = a.tile();
        const Tile& y = b.tile();
        return x.sameShape(y) && x.elemBytes() == y.elemBytes() &&
               x.hasData() == y.hasData() && x.equals(y);
    }
    if (a.isSelector() && b.isSelector())
        return a.selector() == b.selector();
    if (a.isBufferRef() && b.isBufferRef())
        return a.bufferRef() == b.bufferRef() &&
               a.bufferRef().payloadBytes == b.bufferRef().payloadBytes;
    if (a.isTuple() && b.isTuple()) {
        auto xs = a.tupleElems();
        auto ys = b.tupleElems();
        if (xs.size() != ys.size())
            return false;
        for (size_t i = 0; i < xs.size(); ++i)
            if (!sameValue(xs[i], ys[i]))
                return false;
        return true;
    }
    return false;
}

bool
isEmptyValue(const Value& v)
{
    return v.isTile() && v.tile().numel() == 0 && !v.tile().hasData();
}

/**
 * Copy, move, cross-kind move-assign (both directions), self-assign,
 * and destroying or reassigning a moved-from value, all on @p proto.
 */
void
checkValueSemantics(const Value& proto)
{
    SCOPED_TRACE(proto.toString());
    Value a = proto; // copy
    EXPECT_TRUE(sameValue(a, proto));

    Value b = std::move(a); // move: the source is left empty
    EXPECT_TRUE(sameValue(b, proto));
    EXPECT_TRUE(isEmptyValue(a));
    a = proto; // a moved-from value takes a new one
    EXPECT_TRUE(sameValue(a, proto));

    // Cross-kind move-assign into a value of another kind, and back.
    Value other = proto.isSelector() ? Value(BufferRef{9, 64})
                                     : Value(Selector::oneHot(7));
    other = std::move(b);
    EXPECT_TRUE(sameValue(other, proto));
    EXPECT_TRUE(isEmptyValue(b));
    b = Value(Tile(2, 5)); // reassign across kinds after a move
    EXPECT_TRUE(b.isTile() && b.tile().rows() == 2);
    Value c = proto;
    c = Value(BufferRef{3, 24});
    EXPECT_TRUE(c.isBufferRef());
    c = other; // copy-assign across kinds
    EXPECT_TRUE(sameValue(c, proto));

    // Self-assignment keeps the value (and its reference count).
    Value& self = c;
    c = self;
    EXPECT_TRUE(sameValue(c, proto));
    c = std::move(self);
    EXPECT_TRUE(sameValue(c, proto));

    // A moved-from value destroys cleanly.
    {
        Value d = proto;
        Value e = std::move(d);
        EXPECT_TRUE(sameValue(e, proto));
    }
    EXPECT_TRUE(sameValue(proto, proto));
}

TEST(ValueRepr, TokenStaysWithinSixWords)
{
    EXPECT_LE(sizeof(Token), 48u);
    EXPECT_LE(sizeof(Value), 40u);
    EXPECT_LE(sizeof(Tile), 32u);
}

TEST(ValueRepr, ShapeOnlyTile)
{
    Tile t(3, 5, 2);
    EXPECT_FALSE(t.hasData());
    EXPECT_EQ(t.bytes(), 30);
    EXPECT_THROW((void)t.at(0, 0), PanicError);
    EXPECT_THROW((void)t.values(), PanicError);
    checkValueSemantics(t);
}

TEST(ValueRepr, InlineTilesOfOneAndTwoElements)
{
    Tile one = Tile::withData(1, 1, {4.5f}, 4);
    Tile two = Tile::withData(1, 2, {-1.0f, 2.5f});
    EXPECT_TRUE(one.hasData());
    EXPECT_FLOAT_EQ(one.at(0, 0), 4.5f);
    EXPECT_EQ(one.bytes(), 4);
    EXPECT_FLOAT_EQ(two.at(0, 1), 2.5f);
    EXPECT_EQ(two.values().size(), 2u);
    EXPECT_THROW((void)two.at(0, 2), PanicError);
    EXPECT_THROW((void)two.at(1, 0), PanicError);
    // An inline copy owns its own storage; the values match.
    Tile copy = two;
    EXPECT_NE(copy.values().data(), two.values().data());
    EXPECT_TRUE(copy.equals(two));
    checkValueSemantics(one);
    checkValueSemantics(two);
}

TEST(ValueRepr, ThreeElementsSpillToOneSharedBlock)
{
    Tile t = Tile::withData(3, 1, {1.0f, 2.0f, 3.0f});
    EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
    EXPECT_EQ(t.bytes(), 6);
    const float* payload = t.values().data();
    {
        // Copies share the one payload; each release is balanced, and
        // the block is freed once, by the last holder (ASan checks).
        Tile a = t;
        Value v = a;
        Value w = v;
        EXPECT_EQ(a.values().data(), payload);
        EXPECT_EQ(w.tile().values().data(), payload);
        Tile moved = std::move(a);
        EXPECT_EQ(moved.values().data(), payload);
        EXPECT_FALSE(a.hasData());
    }
    EXPECT_FLOAT_EQ(t.at(1, 0), 2.0f);
    checkValueSemantics(t);

    // The last holder may be a copy: the original goes first.
    auto* first = new Tile(Tile::withData(1, 3, {7.0f, 8.0f, 9.0f}));
    Tile survivor = *first;
    delete first;
    EXPECT_FLOAT_EQ(survivor.at(0, 2), 9.0f);
}

TEST(ValueRepr, ZeroTileHasDataButNoPayload)
{
    Tile z = Tile::zeros(4, 8, 2);
    EXPECT_TRUE(z.hasData());
    EXPECT_TRUE(z.isZeroFill());
    EXPECT_EQ(z.bytes(), 64);
    EXPECT_FLOAT_EQ(z.at(3, 7), 0.0f);
    EXPECT_THROW((void)z.at(4, 0), PanicError);
    EXPECT_THROW((void)z.values(), PanicError);
    EXPECT_TRUE(z.equals(Tile::withData(4, 8, std::vector<float>(32))));
    EXPECT_TRUE(z.equals(Tile(4, 8))); // shape-only side: shape decides
    std::vector<float> ones(32, 0.0f);
    ones[5] = 1.0f;
    EXPECT_FALSE(z.equals(Tile::withData(4, 8, ones)));
    EXPECT_TRUE(z.equals(Tile::withData(4, 8, ones), 1.0f));
    // Small zero tiles are plain inline payloads.
    EXPECT_FALSE(Tile::zeros(1, 2).isZeroFill());
    EXPECT_FLOAT_EQ(Tile::zeros(1, 2).at(0, 1), 0.0f);
    // Tile algebra treats a zero fill as zeros, writing real ones only
    // where it meets a stored payload.
    Tile row = Tile::withData(1, 8, {1, 2, 3, 4, 5, 6, 7, 8});
    Tile acc = retileRow(Tile::zeros(1, 8), row);
    EXPECT_FALSE(acc.isZeroFill());
    ASSERT_EQ(acc.values().size(), 16u);
    EXPECT_FLOAT_EQ(acc.values()[3], 0.0f);
    EXPECT_FLOAT_EQ(acc.at(1, 3), 4.0f);
    EXPECT_TRUE(retileRow(z, Tile::zeros(2, 8)).isZeroFill());
    EXPECT_TRUE(sliceRows(z, 1, 3).isZeroFill());
    EXPECT_FLOAT_EQ(add(Tile::zeros(1, 8), row).at(0, 7), 8.0f);
    checkValueSemantics(z);
}

TEST(ValueRepr, EmptyPayloadStillHasData)
{
    Tile t = Tile::withData(0, 4, std::vector<float>{});
    EXPECT_TRUE(t.hasData());
    EXPECT_EQ(t.bytes(), 0);
    checkValueSemantics(t);
}

TEST(ValueRepr, Selectors)
{
    Selector one = Selector::oneHot(3);
    Selector two(IndexVec{1, 4});
    std::vector<uint32_t> wide{0, 1, 2, 3, 4, 5, 6, 7};
    Selector spilled(wide);
    EXPECT_EQ(one.indices.size(), 1u);
    EXPECT_EQ(two.indices[1], 4u);
    ASSERT_EQ(spilled.indices.size(), 8u);
    EXPECT_EQ(spilled.indices[7], 7u);
    EXPECT_THROW((void)two.indices[2], PanicError);
    EXPECT_EQ(Value(spilled).bytes(), 8);
    EXPECT_FALSE(Selector(std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 8}) ==
                 spilled);
    // Spilled indices are shared between copies, not duplicated.
    Value v = spilled;
    Value w = v;
    EXPECT_EQ(w.selector().indices.begin(), spilled.indices.begin());
    EXPECT_TRUE(std::equal(wide.begin(), wide.end(),
                           w.selector().indices.begin()));
    checkValueSemantics(one);
    checkValueSemantics(two);
    checkValueSemantics(spilled);
}

TEST(ValueRepr, BufferRef)
{
    Value v = BufferRef{42, 4096};
    EXPECT_EQ(v.bytes(), 8);
    EXPECT_EQ(v.bufferRef().payloadBytes, 4096);
    checkValueSemantics(v);
}

TEST(ValueRepr, TupleSharesOneBlock)
{
    Value t = Value::tuple({Tile::withData(1, 1, {1.0f}),
                            Tile::withData(1, 3, {1.0f, 2.0f, 3.0f}),
                            Selector::oneHot(2), Tile(2, 2)});
    auto elems = t.tupleElems();
    ASSERT_EQ(elems.size(), 4u);
    EXPECT_EQ(t.bytes(), 2 + 6 + 8 + 8);
    EXPECT_FLOAT_EQ(elems[1].tile().at(0, 2), 3.0f);
    Value u = t;
    EXPECT_EQ(u.tupleElems().data(), elems.data());
    // TupleVal::make moves values in (how Zip builds its tuples).
    std::vector<Value> parts{Tile::withData(1, 3, {4.0f, 5.0f, 6.0f}),
                             BufferRef{1, 8}};
    const float* payload = parts[0].tile().values().data();
    Value moved = TupleVal::make(
        parts.size(), [&](size_t i) -> Value&& { return std::move(parts[i]); });
    EXPECT_TRUE(isEmptyValue(parts[0]));
    EXPECT_EQ(moved.tupleElems()[0].tile().values().data(), payload);
    checkValueSemantics(t);
    checkValueSemantics(moved);

    // Assigning a value one of its own elements: the element outlives
    // the block it lived in.
    Value nest = Value::tuple({Tile::withData(1, 3, {7.0f, 8.0f, 9.0f})});
    nest = nest.tupleElems()[0];
    EXPECT_FLOAT_EQ(nest.tile().at(0, 2), 9.0f);
    Value outer = Value::tuple({Value::tuple({Tile(1, 1)}), Tile(2, 2)});
    outer = outer.tupleElems()[0];
    ASSERT_TRUE(outer.isTuple());
    EXPECT_EQ(outer.tupleElems()[0].tile().rows(), 1);
}

TEST(ValueRepr, SharedPayloadCopiesAcrossThreads)
{
    // Replicas run on worker threads: copies of one payload may be made
    // and dropped concurrently (the refcount is atomic; TSan checks).
    const Value proto = Value::tuple(
        {Tile::withData(1, 4, {1.0f, 2.0f, 3.0f, 4.0f}),
         Selector(std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7})});
    auto churn = [&] {
        for (int i = 0; i < 2000; ++i) {
            Value a = proto;
            Value b = std::move(a);
            a = b;
        }
    };
    std::thread t1(churn);
    std::thread t2(churn);
    churn();
    t1.join();
    t2.join();
    EXPECT_FLOAT_EQ(proto.tupleElems()[0].tile().at(0, 3), 4.0f);
}

} // namespace
} // namespace step
