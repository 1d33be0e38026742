#include "core/stream_shape.hh"

#include <atomic>
#include <sstream>

#include "support/error.hh"

namespace step {

namespace {

std::atomic<uint64_t> symCounter{0};

std::string
freshName(const std::string& hint)
{
    return hint + std::to_string(symCounter.fetch_add(1));
}

} // namespace

Dim
Dim::dynamic(const std::string& hint)
{
    return {sym::Expr::sym(freshName(hint)), DimKind::DynamicRegular};
}

Dim
Dim::ragged(const std::string& hint)
{
    return {sym::Expr::sym(freshName(hint)), DimKind::Ragged};
}

std::string
Dim::toString() const
{
    std::string s = size.toString();
    if (kind == DimKind::Ragged)
        s += "~";
    return s;
}

Dim
mergeDims(const Dim* first, const Dim* last)
{
    bool any_ragged = false;
    bool any_dynamic = false;
    std::vector<sym::Expr> sizes;
    for (const Dim* d = first; d != last; ++d) {
        any_ragged |= d->isRagged();
        any_dynamic |= d->isDynamic();
        sizes.push_back(d->size);
    }
    if (any_ragged) {
        // Absorbing property: the result is a fresh ragged dimension
        // (section 3.1, example 1: [2, 2, D0] flattens to [2, D0']).
        return Dim::ragged();
    }
    return {sym::product(sizes), any_dynamic ? DimKind::DynamicRegular
                                             : DimKind::StaticRegular};
}

Dim
mergeDims(const std::vector<Dim>& dims)
{
    return mergeDims(dims.data(), dims.data() + dims.size());
}

StreamShape
StreamShape::fixed(std::initializer_list<int64_t> sizes)
{
    DimVec dims;
    for (int64_t s : sizes)
        dims.push_back(Dim::fixed(s));
    return StreamShape(std::move(dims));
}

sym::Expr
StreamShape::numel() const
{
    std::vector<sym::Expr> sizes;
    for (const auto& d : dims_)
        sizes.push_back(d.size);
    return sym::product(sizes);
}

std::string
StreamShape::toString() const
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < dims_.size(); ++i)
        os << (i ? "," : "") << dims_[i].toString();
    os << "]";
    return os.str();
}

StreamShape
StreamShape::flattened(size_t inner_lo, size_t inner_hi) const
{
    STEP_ASSERT(inner_lo <= inner_hi && inner_hi < rank(),
                "flatten range [" << inner_lo << "," << inner_hi
                << "] out of rank " << rank());
    // Convert paper (inner-first) indices to vector (outer-first) indices.
    size_t v_hi = rank() - 1 - inner_lo;   // innermost of the range
    size_t v_lo = rank() - 1 - inner_hi;   // outermost of the range
    DimVec out(dims_.begin(), dims_.begin() + v_lo);
    out.push_back(mergeDims(dims_.begin() + v_lo,
                            dims_.begin() + v_hi + 1));
    out.append(dims_.begin() + v_hi + 1, dims_.end());
    return StreamShape(std::move(out));
}

StreamShape
StreamShape::dropInner(size_t n) const
{
    STEP_ASSERT(n <= rank(), "dropInner(" << n << ") of rank " << rank());
    return StreamShape(DimVec(dims_.begin(), dims_.end() - n));
}

StreamShape
StreamShape::takeInner(size_t n) const
{
    STEP_ASSERT(n <= rank(), "takeInner(" << n << ") of rank " << rank());
    return StreamShape(DimVec(dims_.end() - n, dims_.end()));
}

StreamShape
StreamShape::pushOuter(Dim d) const
{
    DimVec out;
    out.push_back(std::move(d));
    out.append(dims_.begin(), dims_.end());
    return StreamShape(std::move(out));
}

StreamShape
StreamShape::concatInner(const StreamShape& inner) const
{
    DimVec out = dims_;
    out.append(inner.dims_.begin(), inner.dims_.end());
    return StreamShape(std::move(out));
}

bool
StreamShape::compatibleWith(const StreamShape& o) const
{
    if (rank() != o.rank())
        return false;
    for (size_t i = 0; i < rank(); ++i) {
        const Dim& a = dims_[i];
        const Dim& b = o.dims_[i];
        if (a.isStatic() && b.isStatic() && !a.size.equals(b.size))
            return false;
    }
    return true;
}

} // namespace step
