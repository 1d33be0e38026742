#include "core/tile.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "support/error.hh"

namespace step {

Tile
Tile::allocated(int64_t rows, int64_t cols, int elem_bytes)
{
    Tile t(rows, cols, elem_bytes);
    const int64_t n = t.numel();
    if (n <= kInlineFloats) {
        t.rep_.inl[0] = t.rep_.inl[1] = 0.0f;
        t.rep_.store = Store::Inline;
        return t;
    }
    const size_t bytes = static_cast<size_t>(n) * sizeof(float);
    auto* b = new (::operator new(sizeof(Block) + bytes)) Block();
    std::memset(b->floats(), 0, bytes);
    t.rep_.block = b;
    t.rep_.store = Store::Block;
    return t;
}

void
Tile::freeBlock(Block* b) noexcept
{
    b->~Block();
    ::operator delete(b);
}

Tile
Tile::withData(int64_t rows, int64_t cols, std::span<const float> data,
               int elem_bytes)
{
    STEP_ASSERT(static_cast<int64_t>(data.size()) == rows * cols,
                "payload size " << data.size() << " != " << rows * cols);
    return generate(rows, cols, elem_bytes, [&](float* dst) {
        std::copy(data.begin(), data.end(), dst);
    });
}

Tile
Tile::withData(int64_t rows, int64_t cols, std::initializer_list<float> data,
               int elem_bytes)
{
    return withData(rows, cols,
                    std::span<const float>(data.begin(), data.size()),
                    elem_bytes);
}

Tile
Tile::zeros(int64_t rows, int64_t cols, int elem_bytes)
{
    if (rows * cols <= kInlineFloats)
        return allocated(rows, cols, elem_bytes);
    Tile t(rows, cols, elem_bytes);
    t.rep_.store = Store::Zero;
    return t;
}

void
Tile::atFailed(int64_t r, int64_t c) const
{
    STEP_ASSERT(hasData(), "at() on shape-only tile");
    stepPanic("tile index (" << r << "," << c << ") out of " << rows()
              << "x" << cols());
}

std::span<const float>
Tile::values() const
{
    const auto n = static_cast<size_t>(numel());
    if (rep_.store == Store::Inline)
        return {rep_.inl, n};
    if (rep_.store == Store::Block)
        return {rep_.block->floats(), n};
    STEP_ASSERT(hasData(), "values() on shape-only tile");
    stepPanic("zero-fill tile has no contiguous payload");
}

bool
Tile::equals(const Tile& o, float tol) const
{
    if (!sameShape(o))
        return false;
    if (!hasData() || !o.hasData())
        return true;
    for (int64_t i = 0; i < rows(); ++i) {
        for (int64_t j = 0; j < cols(); ++j) {
            if (std::fabs(at(i, j) - o.at(i, j)) > tol)
                return false;
        }
    }
    return true;
}

namespace {

/** Copy @p t's payload to @p dst; a zero fill leaves the (zeroed)
 *  destination as is. */
void
copyPayload(const Tile& t, float* dst)
{
    if (t.isZeroFill())
        return;
    std::span<const float> v = t.values();
    std::copy(v.begin(), v.end(), dst);
}

} // namespace

Tile
matmul(const Tile& a, const Tile& b, int64_t* flops)
{
    STEP_ASSERT(a.cols() == b.rows(),
                "matmul shape mismatch: " << a.rows() << "x" << a.cols()
                << " * " << b.rows() << "x" << b.cols());
    if (flops)
        *flops += 2 * a.rows() * a.cols() * b.cols();
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows(), b.cols(), a.elemBytes());
    return Tile::generate(a.rows(), b.cols(), a.elemBytes(),
                          [&](float* out) {
        for (int64_t i = 0; i < a.rows(); ++i) {
            for (int64_t k = 0; k < a.cols(); ++k) {
                float av = a.at(i, k);
                if (av == 0.0f)
                    continue;
                for (int64_t j = 0; j < b.cols(); ++j)
                    out[i * b.cols() + j] += av * b.at(k, j);
            }
        }
    });
}

namespace {

template <typename F>
Tile
elementwise2(const Tile& a, const Tile& b, int64_t* flops, F&& f)
{
    STEP_ASSERT(a.sameShape(b), "elementwise shape mismatch: "
                << a.rows() << "x" << a.cols() << " vs "
                << b.rows() << "x" << b.cols());
    if (flops)
        *flops += a.numel();
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows(), a.cols(), a.elemBytes());
    return Tile::generate(a.rows(), a.cols(), a.elemBytes(),
                          [&](float* out) {
        for (int64_t i = 0; i < a.rows(); ++i)
            for (int64_t j = 0; j < a.cols(); ++j)
                out[i * a.cols() + j] = f(a.at(i, j), b.at(i, j));
    });
}

} // namespace

Tile
add(const Tile& a, const Tile& b, int64_t* flops)
{
    return elementwise2(a, b, flops,
                        [](float x, float y) { return x + y; });
}

Tile
elemMul(const Tile& a, const Tile& b, int64_t* flops)
{
    return elementwise2(a, b, flops,
                        [](float x, float y) { return x * y; });
}

Tile
silu(const Tile& a, int64_t* flops)
{
    // Count ~4 ops per element (exp, add, div, mul).
    if (flops)
        *flops += 4 * a.numel();
    if (!a.hasData())
        return Tile(a.rows(), a.cols(), a.elemBytes());
    return Tile::generate(a.rows(), a.cols(), a.elemBytes(),
                          [&](float* out) {
        for (int64_t i = 0; i < a.rows(); ++i) {
            for (int64_t j = 0; j < a.cols(); ++j) {
                float x = a.at(i, j);
                out[i * a.cols() + j] = x / (1.0f + std::exp(-x));
            }
        }
    });
}

Tile
retileRow(const Tile& a, const Tile& b)
{
    if (a.numel() == 0 && a.rows() == 0)
        return b;
    STEP_ASSERT(a.cols() == b.cols(), "retileRow col mismatch: "
                << a.cols() << " vs " << b.cols());
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows() + b.rows(), a.cols(), a.elemBytes());
    if (a.isZeroFill() && b.isZeroFill())
        return Tile::zeros(a.rows() + b.rows(), a.cols(), a.elemBytes());
    return Tile::generate(a.rows() + b.rows(), a.cols(), a.elemBytes(),
                          [&](float* out) {
        copyPayload(a, out);
        copyPayload(b, out + a.numel());
    });
}

Tile
retileCol(const Tile& a, const Tile& b)
{
    if (a.numel() == 0 && a.cols() == 0)
        return b;
    STEP_ASSERT(a.rows() == b.rows(), "retileCol row mismatch: "
                << a.rows() << " vs " << b.rows());
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows(), a.cols() + b.cols(), a.elemBytes());
    const int64_t cols = a.cols() + b.cols();
    return Tile::generate(a.rows(), cols, a.elemBytes(), [&](float* out) {
        for (int64_t i = 0; i < a.rows(); ++i) {
            for (int64_t j = 0; j < a.cols(); ++j)
                out[i * cols + j] = a.at(i, j);
            for (int64_t j = 0; j < b.cols(); ++j)
                out[i * cols + a.cols() + j] = b.at(i, j);
        }
    });
}

Tile
sliceRows(const Tile& a, int64_t r0, int64_t r1)
{
    STEP_ASSERT(0 <= r0 && r0 <= r1 && r1 <= a.rows(),
                "sliceRows [" << r0 << "," << r1 << ") of " << a.rows());
    if (!a.hasData())
        return Tile(r1 - r0, a.cols(), a.elemBytes());
    if (a.isZeroFill())
        return Tile::zeros(r1 - r0, a.cols(), a.elemBytes());
    return Tile::withData(r1 - r0, a.cols(),
                          a.values().subspan(
                              static_cast<size_t>(r0 * a.cols()),
                              static_cast<size_t>((r1 - r0) * a.cols())),
                          a.elemBytes());
}

} // namespace step
