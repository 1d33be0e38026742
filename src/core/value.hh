/**
 * @file
 * Stream element values. A STeP stream's data type is a tile, a selector,
 * a read-only reference to on-chip memory, or a tuple of these
 * (section 3.1 "Data Type").
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/tile.hh"
#include "support/error.hh"
#include "support/smallvec.hh"

namespace step {

/**
 * Growable index list for building selectors (and other small index
 * sets). One-hot and top-2 lists stay inline.
 */
using IndexVec = SmallVec<uint32_t, 2>;

/**
 * A selector's immutable index list: up to kInline indices stored in
 * place, longer lists in one refcounted block. Like Tile, it is
 * trivially relocatable, and a copy is a POD copy plus at most one
 * refcount increment.
 */
class SelectorIndices
{
  public:
    static constexpr size_t kInline = 6;

    SelectorIndices() noexcept = default;

    SelectorIndices(const uint32_t* first, size_t n)
    {
        if (n > kInline) {
            spill(first, n);
            return;
        }
        std::copy(first, first + n, rep_.inl);
        rep_.n = static_cast<uint32_t>(n);
    }

    SelectorIndices(const SelectorIndices& o) noexcept : rep_(o.rep_)
    {
        retain();
    }
    SelectorIndices(SelectorIndices&& o) noexcept : rep_(o.rep_)
    {
        o.rep_.n = 0;
    }

    SelectorIndices&
    operator=(const SelectorIndices& o) noexcept
    {
        if (this != &o) {
            o.retain();
            release();
            rep_ = o.rep_;
        }
        return *this;
    }

    SelectorIndices&
    operator=(SelectorIndices&& o) noexcept
    {
        if (this != &o) {
            release();
            rep_ = o.rep_;
            o.rep_.n = 0;
        }
        return *this;
    }

    ~SelectorIndices() { release(); }

    size_t size() const { return rep_.n; }
    bool empty() const { return rep_.n == 0; }

    const uint32_t*
    begin() const
    {
        return spilled() ? rep_.block->indices() : rep_.inl;
    }
    const uint32_t* end() const { return begin() + rep_.n; }

    uint32_t
    operator[](size_t i) const
    {
        STEP_ASSERT(i < rep_.n, "selector index " << i << " out of "
                    << rep_.n);
        return begin()[i];
    }

    bool operator==(const SelectorIndices& o) const;

  private:
    friend class Value;

    /** Refcount header; the indices follow it in the same allocation. */
    struct Block
    {
        detail::RefCount rc;

        uint32_t* indices() { return reinterpret_cast<uint32_t*>(this + 1); }
    };

    struct Rep
    {
        union {
            uint32_t inl[kInline];
            Block* block;
        };
        uint32_t n = 0;
    };

    bool spilled() const { return rep_.n > kInline; }

    void
    retain() const noexcept
    {
        if (spilled())
            rep_.block->rc.retain();
    }

    void
    release() noexcept
    {
        if (spilled() && rep_.block->rc.release())
            freeBlock(rep_.block);
    }

    void spill(const uint32_t* first, size_t n);
    static void freeBlock(Block* b) noexcept;

    Rep rep_;
};

/**
 * Multi-hot routing vector: the indices of the selected consumers or
 * producers (Figure 4 writes these as tuples of nonzero indices).
 */
struct Selector
{
    SelectorIndices indices;

    Selector() = default;
    explicit Selector(const IndexVec& idx)
        : indices(idx.begin(), idx.size())
    {}
    explicit Selector(const std::vector<uint32_t>& idx)
        : indices(idx.data(), idx.size())
    {}
    static Selector oneHot(uint32_t i) { return Selector(&i, 1); }

    bool operator==(const Selector& o) const { return indices == o.indices; }
    /** Metric size: one machine word. */
    int64_t bytes() const { return 8; }

  private:
    Selector(const uint32_t* first, size_t n) : indices(first, n) {}
};

/** Read-only reference to a buffer allocated in on-chip memory. */
struct BufferRef
{
    /** Scratchpad allocation id (see mem/scratchpad.hh). */
    uint64_t id = 0;
    /** Total payload bytes of the referenced buffer. */
    int64_t payloadBytes = 0;

    bool operator==(const BufferRef& o) const { return id == o.id; }
    /** Metric size: an address. */
    int64_t bytes() const { return 8; }
};

class Value;

/**
 * Tag selecting a relocating constructor, `T(relocate, src)`: the new
 * object takes over @p src's representation bytewise and @p src is left
 * dead. Its destructor must not run; only raw storage whose owner
 * tracks liveness (a channel's FIFO slots) relocates out this way.
 */
struct RelocateTag
{
    explicit RelocateTag() = default;
};
inline constexpr RelocateTag relocate{};

/**
 * Tag selecting a husking relocation, `T(husk, src)`: like relocate, but
 * @p src is left a husk instead of dead. A husk may be destroyed or
 * assigned to, and must not be read. Only a channel's write path husks
 * (the writer's token is spent by then); std::move still leaves an
 * empty value.
 */
struct HuskTag
{
    explicit HuskTag() = default;
};
inline constexpr HuskTag husk{};

/**
 * Tuple payload (from Zip): one refcounted block holding the elements,
 * drawn from the per-thread FramePool freelists, so building a tuple on
 * the hot path does not touch the heap once the pool is warm.
 */
class TupleVal
{
  public:
    TupleVal() noexcept = default;
    TupleVal(const TupleVal& o) noexcept : block_(o.block_) { retain(); }
    TupleVal(TupleVal&& o) noexcept : block_(o.block_) { o.block_ = nullptr; }

    TupleVal&
    operator=(const TupleVal& o) noexcept
    {
        if (this != &o) {
            // Read @p o first: it may live inside the block this
            // releases.
            Block* b = o.block_;
            o.retain();
            release();
            block_ = b;
        }
        return *this;
    }

    TupleVal&
    operator=(TupleVal&& o) noexcept
    {
        if (this != &o) {
            release();
            block_ = o.block_;
            o.block_ = nullptr;
        }
        return *this;
    }

    ~TupleVal() { release(); }

    /** Tuple of @p n elements, element i constructed from fn(i) (a
     *  Value&& result is moved in). */
    template <typename F> static TupleVal make(size_t n, F&& fn);

    std::span<const Value> elems() const;
    int64_t bytes() const { return block_ ? block_->bytes : 0; }

  private:
    friend class Value;

    struct Block
    {
        detail::RefCount rc;
        uint32_t n = 0;
        /** Sum of the elements' bytes(), kept by make(). */
        int64_t bytes = 0;

        Value* elems() { return reinterpret_cast<Value*>(this + 1); }
    };

    void
    retain() const noexcept
    {
        if (block_)
            block_->rc.retain();
    }

    void
    release() noexcept
    {
        if (block_ && block_->rc.release())
            freeBlock(block_);
    }

    static Block* allocBlock(size_t n);
    static void freeBlock(Block* b) noexcept;

    Block* block_ = nullptr;
};

/**
 * A single data element travelling on a stream.
 *
 * A tagged union whose alternatives are all trivially relocatable: each
 * holds at most one pointer to an immutable refcounted block and no
 * pointer into itself. Copy is therefore a POD copy plus at most one
 * refcount increment, move is a bytewise relocation that leaves the
 * source an empty tile, and destroy is at most one release. A flag
 * records whether the alternative holds a block, so copying or
 * destroying a value that holds none is one test. In timing mode no
 * alternative owns a block, so values travel through channels without
 * touching the allocator.
 */
class Value
{
  public:
    Value() noexcept : tile_() {}
    Value(const Tile& t) noexcept                   // NOLINT implicit
        : tile_(t), owns_(tile_.rep_.store == Tile::Store::Block)
    {}
    Value(Tile&& t) noexcept                        // NOLINT implicit
        : tile_(std::move(t)),
          owns_(tile_.rep_.store == Tile::Store::Block)
    {}
    Value(Selector s) noexcept                      // NOLINT implicit
        : sel_(std::move(s)), kind_(Kind::Selector),
          owns_(sel_.indices.spilled())
    {}
    /** Built over an empty tile, so the union bytes a BufferRef leaves
     *  unused are zero: g++ with ASan otherwise flags them as maybe
     *  uninitialized where a kind test inlines. */
    Value(BufferRef b) noexcept                     // NOLINT implicit
        : tile_(), kind_(Kind::BufferRef)
    {
        new (&buf_) BufferRef(b);
    }
    Value(TupleVal t) noexcept                      // NOLINT implicit
        : tup_(std::move(t)), kind_(Kind::Tuple),
          owns_(tup_.block_ != nullptr)
    {}

    Value(const Value& o) noexcept
    {
        relocateFrom(o);
        if (owns_)
            retainBlock();
    }

    Value(Value&& o) noexcept
    {
        relocateFrom(o);
        o.setEmpty();
    }

    /** Relocate out of @p o, leaving it dead (see RelocateTag). */
    Value(RelocateTag, Value& o) noexcept { relocateFrom(o); }

    /** Relocate out of @p o, leaving it a husk (see HuskTag): it no
     *  longer owns the block, so it releases nothing. */
    Value(HuskTag, Value& o) noexcept
    {
        relocateFrom(o);
        o.owns_ = false;
    }

    Value&
    operator=(const Value& o) noexcept
    {
        // Through a copy: @p o may live inside the tuple this releases.
        Value copy(o);
        return *this = std::move(copy);
    }

    Value&
    operator=(Value&& o) noexcept
    {
        if (this != &o) {
            if (owns_)
                releaseBlock();
            relocateFrom(o);
            o.setEmpty();
        }
        return *this;
    }

    ~Value()
    {
        if (owns_)
            releaseBlock();
    }

    /** Tuple of copies of @p elems (TupleVal::make builds one from
     *  values moved in). */
    static Value tuple(std::initializer_list<Value> elems);

    bool isTile() const { return kind_ == Kind::Tile; }
    bool isSelector() const { return kind_ == Kind::Selector; }
    bool isBufferRef() const { return kind_ == Kind::BufferRef; }
    bool isTuple() const { return kind_ == Kind::Tuple; }

    // Accessors are defined inline below (per-event hot path); the
    // assert only formats its message on failure.
    const Tile& tile() const;
    const Selector& selector() const;
    const BufferRef& bufferRef() const;
    std::span<const Value> tupleElems() const;

    /** Wire size in bytes, used by the roofline timing model. */
    int64_t bytes() const;

    std::string toString() const;

  private:
    enum class Kind : uint8_t { Tile, Selector, BufferRef, Tuple };

    /** Bitwise copy of @p o's representation; no refcount traffic. */
    void
    relocateFrom(const Value& o) noexcept
    {
        std::memcpy(static_cast<void*>(this), static_cast<const void*>(&o),
                    sizeof(Value));
    }

    /** Forget the payload without releasing it (it was relocated):
     *  an empty 0x0 tile is all-zero bytes (see Tile::Rep). */
    void
    setEmpty() noexcept
    {
        std::memset(static_cast<void*>(this), 0, sizeof(Value));
    }

    /** Refcount traffic of a value whose owns_ is set (out of line:
     *  only values that hold a block get here). */
    void retainBlock() const noexcept;
    void releaseBlock() noexcept;

    union {
        Tile tile_;
        Selector sel_;
        BufferRef buf_;
        TupleVal tup_;
    };
    Kind kind_ = Kind::Tile;
    /** The alternative holds a refcounted block (a husk never does). */
    bool owns_ = false;

    static_assert(Kind::Tile == Kind{} && Tile::Store::None == Tile::Store{},
                  "setEmpty writes an empty tile as zero bytes");
};

static_assert(sizeof(Tile) <= 32 && sizeof(Selector) <= 32 &&
                  sizeof(TupleVal) <= 32 && sizeof(BufferRef) <= 32,
              "a Value alternative outgrew its 32-byte slot");

inline const Tile&
Value::tile() const
{
    STEP_ASSERT(isTile(), "value is not a tile: " << toString());
    return tile_;
}

inline const Selector&
Value::selector() const
{
    STEP_ASSERT(isSelector(), "value is not a selector: " << toString());
    return sel_;
}

inline const BufferRef&
Value::bufferRef() const
{
    STEP_ASSERT(isBufferRef(), "value is not a buffer ref: " << toString());
    return buf_;
}

inline std::span<const Value>
Value::tupleElems() const
{
    STEP_ASSERT(isTuple(), "value is not a tuple: " << toString());
    return tup_.elems();
}

inline int64_t
Value::bytes() const
{
    if (isTile())
        return tile_.bytes();
    if (isSelector())
        return sel_.bytes();
    if (isBufferRef())
        return buf_.bytes();
    return tup_.bytes();
}

inline std::span<const Value>
TupleVal::elems() const
{
    if (!block_)
        return {};
    return {block_->elems(), block_->n};
}

template <typename F>
TupleVal
TupleVal::make(size_t n, F&& fn)
{
    TupleVal t;
    t.block_ = allocBlock(n);
    Value* e = t.block_->elems();
    for (size_t i = 0; i < n; ++i) {
        new (e + i) Value(fn(i));
        t.block_->n = static_cast<uint32_t>(i + 1);
        t.block_->bytes += e[i].bytes();
    }
    return t;
}

} // namespace step
