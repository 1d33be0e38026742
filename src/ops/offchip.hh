/**
 * @file
 * Off-chip memory operators (section 3.2.1): LinearOffChipLoad/Store and
 * RandomOffChipLoad/Store. These are the only operators with nonzero
 * off-chip traffic; coupled with the shape semantics they expose traffic
 * and operational intensity at the abstraction level.
 *
 * Timing: each tile access is issued to the shared MemModel at the unit's
 * local clock (1 request/cycle issue rate); the produced token becomes
 * visible at the DRAM completion time, so the unit pipelines requests and
 * the channel capacity bounds the outstanding-request window.
 */
#pragma once

#include <array>
#include <memory>

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

/** Static description of a tiled tensor resident in off-chip memory. */
struct OffChipTensor
{
    uint64_t baseAddr = 0;
    int64_t tileRows = 1;
    int64_t tileCols = 1;
    int elemBytes = kDefaultElemBytes;
    /** Stored tensor extent in tiles: {rows, cols}. */
    std::array<int64_t, 2> inShapeTiles{1, 1};
    /** Optional functional payload: row-major element tensor. */
    std::shared_ptr<const std::vector<float>> payload;

    int64_t tileBytes() const { return tileRows * tileCols * elemBytes; }

    /** Functional tensor from row-major data (tile grid inferred). */
    static OffChipTensor fromData(uint64_t base, int64_t rows, int64_t cols,
                                  int64_t tile_rows, int64_t tile_cols,
                                  std::vector<float> data,
                                  int elem_bytes = kDefaultElemBytes);

    /** Shape-only tensor. */
    static OffChipTensor shapeOnly(uint64_t base, int64_t rows,
                                   int64_t cols, int64_t tile_rows,
                                   int64_t tile_cols,
                                   int elem_bytes = kDefaultElemBytes);

    /** Extract tile (ti, tj); shape-only when no payload. */
    Tile tileAt(int64_t ti, int64_t tj) const;
};

/**
 * LinearOffChipLoad: for every element of the reference stream, performs
 * one affine read over the stored tensor, emitting a [outR, outC] grid of
 * tiles (two added inner dimensions). The reference stream's contents are
 * ignored — it is a trigger (Figure 2).
 */
class LinearOffChipLoadOp : public OpBase
{
  public:
    LinearOffChipLoadOp(Graph& g, const std::string& name, StreamPort ref,
                        OffChipTensor tensor,
                        std::array<int64_t, 2> stride_tiles,
                        std::array<int64_t, 2> out_shape_tiles);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    sym::Expr offChipTrafficExpr() const override;
    sym::Expr onChipMemExpr() const override;

  private:
    StreamPort ref_;
    OffChipTensor tensor_;
    std::array<int64_t, 2> stride_;
    std::array<int64_t, 2> outShape_;
    StreamPort out_;
};

/** LinearOffChipStore: writes the input tiles linearly from baseAddr. */
class LinearOffChipStoreOp : public OpBase
{
  public:
    LinearOffChipStoreOp(Graph& g, const std::string& name, StreamPort in,
                         uint64_t base_addr);

    dam::SimTask run() override;

    sym::Expr offChipTrafficExpr() const override;
    sym::Expr onChipMemExpr() const override;

    /** Completion time of the last store. */
    dam::Cycle lastWrite() const { return lastWrite_; }
    int64_t bytesStored() const { return cursor_; }

  private:
    StreamPort in_;
    uint64_t base_;
    /** Bytes stored and last completion of the latest run; run() zeroes
     *  them. */
    int64_t cursor_ = 0;
    dam::Cycle lastWrite_ = 0;
};

/**
 * RandomOffChipLoad: data-dependent reads. Each address-stream element
 * selects a block (addr index x blockStrideBytes past baseAddr). In
 * single-tile mode one tile is emitted per address and the stream rank is
 * preserved (Table 3); in grid mode a [outR, outC] grid is emitted per
 * address (used for expert weights under configuration
 * time-multiplexing, Figure 11).
 */
class RandomOffChipLoadOp : public OpBase
{
  public:
    RandomOffChipLoadOp(Graph& g, const std::string& name, StreamPort addr,
                        OffChipTensor tensor, int64_t block_stride_bytes,
                        std::array<int64_t, 2> out_shape_tiles = {1, 1},
                        bool grid_mode = false);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    sym::Expr offChipTrafficExpr() const override;
    sym::Expr onChipMemExpr() const override;

    /** Interpret an address-stream element as a block index. */
    static int64_t addrIndexOf(const Value& v);

    /** Swap in new tensor metadata for the next run (e.g. per-iteration
     *  KV extents); the block stride and output grid stay as built. */
    void setTensor(const OffChipTensor& tensor) { tensor_ = tensor; }

  private:
    StreamPort addr_;
    OffChipTensor tensor_;
    int64_t blockStride_;
    std::array<int64_t, 2> outShape_;
    bool gridMode_;
    StreamPort out_;
};

/**
 * RandomOffChipStore: writes each wdata element at the block selected by
 * the corresponding waddr element; emits a bool acknowledgement stream of
 * the waddr shape.
 */
class RandomOffChipStoreOp : public OpBase
{
  public:
    RandomOffChipStoreOp(Graph& g, const std::string& name, StreamPort waddr,
                         StreamPort wdata, uint64_t base_addr,
                         int64_t block_stride_bytes);

    StreamPort ackOut() const { return ack_; }

    dam::SimTask run() override;

    sym::Expr offChipTrafficExpr() const override;
    sym::Expr onChipMemExpr() const override;

  private:
    StreamPort waddr_;
    StreamPort wdata_;
    uint64_t base_;
    int64_t blockStride_;
    StreamPort ack_;
};

} // namespace step
