/**
 * @file
 * Symbolic stream shape semantics (section 3.1 "Stream Shape").
 *
 * A rank-N stream has a shape [D_{N-1}, ..., D_1, D_0] (outermost first,
 * D_0 innermost, matching the paper's notation). Each dimension is
 * static-regular, dynamic-regular (data-dependent constant), or ragged
 * (varying per group). Ragged dimensions absorb arithmetic: any equation
 * containing a ragged dimension yields a fresh ragged dimension.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/smallvec.hh"
#include "symbolic/expr.hh"

namespace step {

enum class DimKind : uint8_t {
    StaticRegular,
    DynamicRegular,
    Ragged,
};

/** One stream dimension: a symbolic size plus its regularity class. */
struct Dim
{
    sym::Expr size;
    DimKind kind = DimKind::StaticRegular;

    /** Compile-time constant dimension. */
    static Dim fixed(int64_t n) { return {sym::Expr(n), DimKind::StaticRegular}; }

    /** Data-dependent constant dimension with a fresh symbol. */
    static Dim dynamic(const std::string& hint = "D");

    /** Dynamic-regular dimension with an explicit size expression. */
    static Dim
    dynamicExpr(const sym::Expr& e)
    {
        return {e, DimKind::DynamicRegular};
    }

    /** Ragged dimension with a fresh symbol. */
    static Dim ragged(const std::string& hint = "R");

    bool isStatic() const { return kind == DimKind::StaticRegular; }
    bool isRagged() const { return kind == DimKind::Ragged; }
    /** Dynamic-regular or ragged-with-data-dependence; per footnote 4 we
     * treat all ragged dims as symbolic (see section 4.2 footnote 8). */
    bool isDynamic() const { return kind != DimKind::StaticRegular; }

    std::string toString() const;
};

/**
 * Combine dimensions under multiplication (e.g. Flatten): ragged absorbs,
 * dynamic-regular dominates static.
 */
Dim mergeDims(const Dim* first, const Dim* last);
Dim mergeDims(const std::vector<Dim>& dims);

/**
 * Dimension list with inline storage: graphs copy shapes with every
 * StreamPort, and nearly all streams have rank <= 4, so shape copies
 * stay off the heap.
 */
using DimVec = SmallVec<Dim, 4>;

/** Shape of a stream: dims().front() is the outermost dimension. */
class StreamShape
{
  public:
    StreamShape() = default;
    explicit StreamShape(DimVec dims) : dims_(std::move(dims)) {}
    StreamShape(std::initializer_list<Dim> dims) : dims_(dims) {}
    explicit StreamShape(const std::vector<Dim>& dims)
        : dims_(dims.begin(), dims.end())
    {}

    /** Convenience: all-static shape, outermost first. */
    static StreamShape fixed(std::initializer_list<int64_t> sizes);

    size_t rank() const { return dims_.size(); }
    const DimVec& dims() const { return dims_; }

    /** Dimension by paper index: inner(0) == D_0 (innermost). */
    const Dim&
    inner(size_t i) const
    {
        return dims_[dims_.size() - 1 - i];
    }
    /** Dimension counted from outside: outer(0) is outermost. */
    const Dim& outer(size_t i) const { return dims_[i]; }

    /** Product of all dimension sizes (the stream cardinality ||X||). */
    sym::Expr numel() const;

    /** "[2, 2, D0]" (outermost first, as in the paper). */
    std::string toString() const;

    /**
     * Flatten the paper-indexed dimension range [inner_lo, inner_hi] into
     * one dimension (ragged absorbing).
     */
    StreamShape flattened(size_t inner_lo, size_t inner_hi) const;

    /** Drop the n innermost dims (Bufferize/Accum over rank b). */
    StreamShape dropInner(size_t n) const;

    /** Keep only the n innermost dims. */
    StreamShape takeInner(size_t n) const;

    /** Add a dimension outside everything (Promote/Partition-new-dim). */
    StreamShape pushOuter(Dim d) const;

    /** Append dims inside everything (loads, Streamify, FlatMap). */
    StreamShape concatInner(const StreamShape& inner) const;

    /**
     * Structural compatibility: same rank and, where both sides are
     * static, equal sizes. Symbolic dims unify with anything of any kind
     * (the runtime carries the precise value).
     */
    bool compatibleWith(const StreamShape& o) const;

  private:
    DimVec dims_;
};

} // namespace step
