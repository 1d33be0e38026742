/**
 * @file
 * Higher-order operators (section 3.2.4): Map, Accum, Scan, FlatMap. Each
 * takes a hardware-supported function and a programmer-specified compute
 * bandwidth; per input element the operator advances its clock by the
 * roofline equation of section 4.3.
 */
#pragma once

#include <functional>

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

/** Elementwise function over (possibly zipped) inputs. */
using MapFn =
    std::function<Value(const std::vector<Value>&, int64_t& flops)>;

/** Accumulator functions. */
using AccumInitFn = std::function<Value()>;
using AccumUpdateFn =
    std::function<Value(const Value& in, Value state, int64_t& flops)>;

/**
 * Element expansion: appends a rank-b sub-stream (stops < b allowed) to
 * @p out. The operator clears and reuses one scratch vector across
 * elements, so expansion performs no steady-state allocation.
 */
using FlatMapFn = std::function<void(const Value&, std::vector<Token>& out,
                                     int64_t& flops)>;

/**
 * Map applies an element-wise function without changing the stream shape.
 * With two inputs the streams are read in lockstep (token kinds and stop
 * levels must align), as in Listing 1's matmul over (activations,
 * weights).
 */
class MapOp : public OpBase
{
  public:
    MapOp(Graph& g, const std::string& name, std::vector<StreamPort> ins,
          MapFn fn, int64_t compute_bw, DataType out_dtype);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    int64_t allocatedComputeBw() const override { return computeBw_; }
    sym::Expr onChipMemExpr() const override { return onChipExpr_; }

    /**
     * Declare this Map a matrix-multiplication unit for the memory
     * metric: on-chip requirement 16 x in_tile_col + |weight tile|
     * (section 4.2), with input index @p weight_input holding the weight.
     */
    void setMatmulMemSpec(size_t weight_input);

    void rearm(const RearmSpec& spec) override;

  private:
    std::vector<StreamPort> ins_;
    MapFn fn_;
    int64_t computeBw_;
    StreamPort out_;
    int weightInput_ = -1;
    sym::Expr onChipExpr_ = sym::Expr(0);
    /** Per-element argument pack (capacity reused across events). */
    std::vector<Value> argScratch_;
};

/**
 * Accum reduces over the b innermost dimensions: every rank-b subtensor
 * folds into an accumulator that is emitted at the subtensor boundary.
 * The accumulator may grow dynamically (RetileRow over dynamically sized
 * tiles — the key enabler of dynamic tiling, section 5.2).
 */
class AccumOp : public OpBase
{
  public:
    AccumOp(Graph& g, const std::string& name, StreamPort in, size_t rank,
            AccumInitFn init, AccumUpdateFn update, int64_t compute_bw,
            DataType out_dtype);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    int64_t allocatedComputeBw() const override { return computeBw_; }
    /** |output dtype| (section 4.2). */
    sym::Expr
    onChipMemExpr() const override
    {
        return out_.dtype.sizeBytes();
    }

    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    size_t rank_;
    AccumInitFn init_;
    AccumUpdateFn update_;
    int64_t computeBw_;
    StreamPort out_;
    StopCoalescer coal_;
};

/** Scan: like Accum but emits the running state on every element. */
class ScanOp : public OpBase
{
  public:
    ScanOp(Graph& g, const std::string& name, StreamPort in, size_t rank,
           AccumInitFn init, AccumUpdateFn update, int64_t compute_bw,
           DataType out_dtype);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    int64_t allocatedComputeBw() const override { return computeBw_; }
    sym::Expr
    onChipMemExpr() const override
    {
        return out_.dtype.sizeBytes();
    }

    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    size_t rank_;
    AccumInitFn init_;
    AccumUpdateFn update_;
    int64_t computeBw_;
    StreamPort out_;
};

/**
 * FlatMap expands each element into a rank-b sub-stream; consecutive
 * expansions concatenate (separated by S_b), incoming stops shift up by b.
 */
class FlatMapOp : public OpBase
{
  public:
    /**
     * @param fn_dims symbolic dims of one expansion (rank b ==
     *                fn_dims.rank())
     */
    FlatMapOp(Graph& g, const std::string& name, StreamPort in, FlatMapFn fn,
              StreamShape fn_dims, DataType out_dtype,
              int64_t compute_bw = 0);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    int64_t allocatedComputeBw() const override { return computeBw_; }

    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    FlatMapFn fn_;
    size_t rank_;
    int64_t computeBw_;
    StreamPort out_;
    StopCoalescer coal_;
    /** Expansion scratch (capacity reused across events). */
    std::vector<Token> expScratch_;
};

// ---------------------------------------------------------------------
// Function library
// ---------------------------------------------------------------------

namespace fns {

/** C = A x B over a 2-tuple input (activations, weights). */
MapFn matmul();
/** C = A x B^T (scores = q x K^T in attention). */
MapFn matmulBT();
/** Elementwise sum of a 2-input map. */
MapFn addFn();
/** Elementwise product of a 2-input map (SwiGLU gating). */
MapFn mulFn();
/** SiLU activation. */
MapFn siluFn();
/** SwiGLU combine: silu(gate) * up over a tuple (gate, up). */
MapFn swigluFn();

/** Accumulator: empty tile growing by row-wise concatenation. */
AccumInitFn retileRowInit(int64_t cols, int elem_bytes = kDefaultElemBytes);
AccumUpdateFn retileRowUpdate();
/** Accumulator: empty tile growing by column-wise concatenation. */
AccumInitFn retileColInit(int64_t rows, int elem_bytes = kDefaultElemBytes);
AccumUpdateFn retileColUpdate();
/** Accumulator: elementwise running sum starting at zero. */
AccumInitFn zeroInit(int64_t rows, int64_t cols,
                     int elem_bytes = kDefaultElemBytes);
AccumUpdateFn addUpdate();

/**
 * Online-softmax attention accumulator (flash-attention style): state is
 * a tuple (m, l, acc); each input is a tuple (q [1,H], k [T,H], v [T,H]).
 * finishing happens in attnFinish. @p flop_scale multiplies the counted
 * FLOPs (grouped-query attention runs numQHeads/numKvHeads query heads
 * against each KV element; the payload math models one effective head).
 */
AccumInitFn attnInit(int64_t head_dim, int elem_bytes = kDefaultElemBytes);
AccumUpdateFn attnUpdate(int64_t flop_scale = 1);
/** Map finishing the attention state tuple into the output row acc/l. */
MapFn attnFinish();

/** FlatMap fn: split a tile row-wise into chunk_rows-row tiles. */
FlatMapFn retileStreamify(int64_t chunk_rows);

} // namespace fns

} // namespace step
