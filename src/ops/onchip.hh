/**
 * @file
 * On-chip memory operators (section 3.2.2): Bufferize stores rank-b
 * portions of a stream into the scratchpad and emits buffer references;
 * Streamify replays referenced buffers a data-dependent number of times,
 * affinely when the buffer is regular. Together they expose the on-chip
 * memory / off-chip traffic trade-off at the abstraction level.
 */
#pragma once

#include <array>
#include <optional>

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

class BufferizeOp : public OpBase
{
  public:
    BufferizeOp(Graph& g, const std::string& name, StreamPort in,
                size_t rank);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    /** |in dtype| + ||buffer|| * |in dtype| * 2 (double buffering). */
    sym::Expr onChipMemExpr() const override;

  private:
    StreamPort in_;
    size_t rank_;
    StreamPort out_;
};

/** Affine-read parameters for regular buffers (tile-grid indices). */
struct StreamifyAffine
{
    std::array<int64_t, 2> stride{1, 1};
    std::array<int64_t, 2> outShape{1, 1};
};

class StreamifyOp : public OpBase
{
  public:
    /**
     * @param ref_inner_rank c: number of ref dims inside the buffer
     *        stream's dims — each buffer serves one rank-c ref group,
     *        and each ref element in it triggers one pass.
     * @param affine affine read over the buffer's tile grid; when absent
     *        the buffer is replayed linearly (required for
     *        dynamically-sized buffers).
     */
    StreamifyOp(Graph& g, const std::string& name, StreamPort in,
                StreamPort ref, size_t ref_inner_rank,
                std::optional<StreamifyAffine> affine = std::nullopt);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

  private:
    size_t addedRank() const;

    StreamPort in_;
    StreamPort ref_;
    size_t refInnerRank_;
    std::optional<StreamifyAffine> affine_;
    StreamPort out_;
};

} // namespace step
