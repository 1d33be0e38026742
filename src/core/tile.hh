/**
 * @file
 * Runtime tile type. A tile is a two-dimensional regular matrix whose shape
 * may be decided at runtime (dynamically-sized tiles are first-class in
 * STeP, section 3.1). Tiles run in one of two modes:
 *
 *  - timing mode: shape-only; hasData() is false. The simulator cost model
 *    only needs rows/cols/element-size, so full model dimensions can be
 *    simulated without materializing weights.
 *  - functional mode: carries float payload so tests can check STeP graphs
 *    against dense references.
 *
 * A tile is a 32-byte shape header plus one of four payload stores, so
 * the constants the operators make per firing never touch the heap:
 *
 *  - none: shape only (timing mode);
 *  - inline: up to kInlineFloats values kept in the header (scalars,
 *    (m, l) pairs, 1x2 metadata, addresses, pad/ack flags);
 *  - zero fill: Tile::zeros with no payload at all; at() reads 0, and
 *    real zeros are written only where a tile operation combines it
 *    with a stored payload;
 *  - block: one allocation holding an atomic refcount and the floats.
 *
 * Payloads are immutable once built and shared between copies, so a copy
 * is a POD copy plus at most one refcount increment and a move is a
 * bytewise relocation. The refcount is atomic: cluster replicas run on
 * worker threads.
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>

#include "support/error.hh"
#include "support/refcount.hh"

namespace step {

/** Default element size: BFloat16, as in the paper's evaluation. */
constexpr int kDefaultElemBytes = 2;

class Tile
{
  public:
    /** Payloads of at most this many floats are stored in the header. */
    static constexpr int64_t kInlineFloats = 2;

    Tile() noexcept = default;

    /** Shape-only tile (timing mode). */
    Tile(int64_t rows, int64_t cols, int elem_bytes = kDefaultElemBytes)
    {
        STEP_ASSERT(rows >= 0 && cols >= 0, "negative tile shape");
        rep_.rows = rows;
        rep_.cols = cols;
        rep_.elemDelta = elem_bytes - kDefaultElemBytes;
    }

    /** Tile with payload (functional mode); data.size()==rows*cols. */
    static Tile withData(int64_t rows, int64_t cols,
                         std::span<const float> data,
                         int elem_bytes = kDefaultElemBytes);

    /** Small-payload form for constants: no std::vector is built. */
    static Tile withData(int64_t rows, int64_t cols,
                         std::initializer_list<float> data,
                         int elem_bytes = kDefaultElemBytes);

    /** Tile of zeros: carries data, but stores no payload. */
    static Tile zeros(int64_t rows, int64_t cols,
                      int elem_bytes = kDefaultElemBytes);

    /**
     * Tile whose payload @p fill writes in place: fill(float* dst) gets
     * numel() row-major floats, zero-initialized. One allocation (none
     * when the payload fits inline), no staging buffer.
     */
    template <typename F>
    static Tile
    generate(int64_t rows, int64_t cols, int elem_bytes, F&& fill)
    {
        Tile t = allocated(rows, cols, elem_bytes);
        fill(t.mutableFloats());
        return t;
    }

    Tile(const Tile& o) noexcept : rep_(o.rep_) { retain(); }
    Tile(Tile&& o) noexcept : rep_(o.rep_) { o.rep_.store = Store::None; }

    Tile&
    operator=(const Tile& o) noexcept
    {
        if (this != &o) {
            o.retain();
            release();
            rep_ = o.rep_;
        }
        return *this;
    }

    Tile&
    operator=(Tile&& o) noexcept
    {
        if (this != &o) {
            release();
            rep_ = o.rep_;
            o.rep_.store = Store::None;
        }
        return *this;
    }

    ~Tile() { release(); }

    int64_t rows() const { return rep_.rows; }
    int64_t cols() const { return rep_.cols; }
    int elemBytes() const { return kDefaultElemBytes + rep_.elemDelta; }
    int64_t numel() const { return rep_.rows * rep_.cols; }
    int64_t bytes() const { return numel() * elemBytes(); }
    bool hasData() const { return rep_.store != Store::None; }
    /** A payload-free Tile::zeros fill: at() reads 0, values() is
     *  unavailable. */
    bool isZeroFill() const { return rep_.store == Store::Zero; }

    /** Holders of the payload block (1 for a sole owner); 0 when the
     *  payload is not a shared block. Diagnostics and tests. */
    uint32_t
    useCount() const
    {
        return rep_.store == Store::Block ? rep_.block->rc.refs.load() : 0;
    }

    /** Element access; requires hasData(). */
    float at(int64_t r, int64_t c) const;

    /** Contiguous row-major payload; requires a stored payload
     *  (hasData() and not a zero fill). */
    std::span<const float> values() const;

    bool
    sameShape(const Tile& o) const
    {
        return rep_.rows == o.rep_.rows && rep_.cols == o.rep_.cols;
    }

    /** Exact equality (shape, and payload when both have data). */
    bool equals(const Tile& o, float tol = 0.0f) const;

  private:
    friend class Value;

    enum class Store : uint8_t { None, Inline, Zero, Block };

    /** Refcount header; the floats follow it in the same allocation. */
    struct Block
    {
        detail::RefCount rc;

        float* floats() { return reinterpret_cast<float*>(this + 1); }
    };

    /** Everything a tile holds, as one trivially copyable record. The
     *  element size is kept relative to kDefaultElemBytes, so an empty
     *  0x0 tile is all-zero bytes (Value::setEmpty relies on it). */
    struct Rep
    {
        int64_t rows = 0;
        int64_t cols = 0;
        union {
            float inl[kInlineFloats];
            Block* block = nullptr;
        };
        int32_t elemDelta = 0;
        Store store = Store::None;
    };

    /** Tile of the given shape with zeroed storage for numel() floats:
     *  inline when they fit, else a fresh block. */
    static Tile allocated(int64_t rows, int64_t cols, int elem_bytes);

    /** Storage of a tile fresh from allocated(). */
    float*
    mutableFloats()
    {
        return rep_.store == Store::Inline ? rep_.inl
                                           : rep_.block->floats();
    }

    void
    retain() const noexcept
    {
        if (rep_.store == Store::Block)
            rep_.block->rc.retain();
    }

    void
    release() noexcept
    {
        if (rep_.store == Store::Block && rep_.block->rc.release())
            freeBlock(rep_.block);
    }

    static void freeBlock(Block* b) noexcept;
    [[noreturn]] void atFailed(int64_t r, int64_t c) const;

    Rep rep_;
};

inline float
Tile::at(int64_t r, int64_t c) const
{
    if (rep_.store == Store::None || r < 0 || r >= rep_.rows || c < 0 ||
        c >= rep_.cols) [[unlikely]]
        atFailed(r, c);
    const int64_t i = r * rep_.cols + c;
    switch (rep_.store) {
    // i < numel() <= 2 here; the mask tells the compiler so.
    case Store::Inline: return rep_.inl[i & 1];
    case Store::Block:  return rep_.block->floats()[i];
    default:            return 0.0f;
    }
}

/** C = A x B. FLOPs = 2*m*k*n (counted even in timing mode). */
Tile matmul(const Tile& a, const Tile& b, int64_t* flops = nullptr);

/** Elementwise sum; shapes must match. */
Tile add(const Tile& a, const Tile& b, int64_t* flops = nullptr);

/** Elementwise (Hadamard) product. */
Tile elemMul(const Tile& a, const Tile& b, int64_t* flops = nullptr);

/** SiLU activation x * sigmoid(x), as used by SwiGLU. */
Tile silu(const Tile& a, int64_t* flops = nullptr);

/** Row-wise concatenation: [a; b]. Used by the RetileRow accumulator. */
Tile retileRow(const Tile& a, const Tile& b);

/** Column-wise concatenation: [a, b]. Used by the RetileCol accumulator. */
Tile retileCol(const Tile& a, const Tile& b);

/** Rows [r0, r1) of the tile. Used by RetileStreamify splitting. */
Tile sliceRows(const Tile& a, int64_t r0, int64_t r1);

} // namespace step
