#include "ops/offchip.hh"

#include "support/error.hh"

namespace step {

OffChipTensor
OffChipTensor::fromData(uint64_t base, int64_t rows, int64_t cols,
                        int64_t tile_rows, int64_t tile_cols,
                        std::vector<float> data, int elem_bytes)
{
    STEP_ASSERT(rows % tile_rows == 0 && cols % tile_cols == 0,
                "tensor " << rows << "x" << cols
                << " not divisible by tile " << tile_rows << "x"
                << tile_cols);
    STEP_ASSERT(static_cast<int64_t>(data.size()) == rows * cols,
                "payload size mismatch");
    OffChipTensor t;
    t.baseAddr = base;
    t.tileRows = tile_rows;
    t.tileCols = tile_cols;
    t.elemBytes = elem_bytes;
    t.inShapeTiles = {rows / tile_rows, cols / tile_cols};
    t.payload = std::make_shared<const std::vector<float>>(std::move(data));
    return t;
}

OffChipTensor
OffChipTensor::shapeOnly(uint64_t base, int64_t rows, int64_t cols,
                         int64_t tile_rows, int64_t tile_cols,
                         int elem_bytes)
{
    STEP_ASSERT(rows % tile_rows == 0 && cols % tile_cols == 0,
                "tensor " << rows << "x" << cols
                << " not divisible by tile " << tile_rows << "x"
                << tile_cols);
    OffChipTensor t;
    t.baseAddr = base;
    t.tileRows = tile_rows;
    t.tileCols = tile_cols;
    t.elemBytes = elem_bytes;
    t.inShapeTiles = {rows / tile_rows, cols / tile_cols};
    return t;
}

Tile
OffChipTensor::tileAt(int64_t ti, int64_t tj) const
{
    STEP_ASSERT(ti >= 0 && ti < inShapeTiles[0] && tj >= 0 &&
                tj < inShapeTiles[1],
                "tile (" << ti << "," << tj << ") outside grid "
                << inShapeTiles[0] << "x" << inShapeTiles[1]);
    if (!payload)
        return Tile(tileRows, tileCols, elemBytes);
    int64_t tensor_cols = inShapeTiles[1] * tileCols;
    return Tile::generate(tileRows, tileCols, elemBytes, [&](float* data) {
        for (int64_t r = 0; r < tileRows; ++r) {
            int64_t src = (ti * tileRows + r) * tensor_cols + tj * tileCols;
            for (int64_t c = 0; c < tileCols; ++c)
                data[r * tileCols + c] =
                    (*payload)[static_cast<size_t>(src + c)];
        }
    });
}

// ---------------------------------------------------------------------
// LinearOffChipLoad
// ---------------------------------------------------------------------

LinearOffChipLoadOp::LinearOffChipLoadOp(Graph& g, const std::string& name,
                                         StreamPort ref,
                                         OffChipTensor tensor,
                                         std::array<int64_t, 2> stride_tiles,
                                         std::array<int64_t, 2>
                                             out_shape_tiles)
    : OpBase(g, name), ref_(ref), tensor_(std::move(tensor)),
      stride_(stride_tiles), outShape_(out_shape_tiles)
{
    bindInput(ref_);
    bindOutput(out_, name + ".out",
               ref_.shape.concatInner(
                   StreamShape::fixed({outShape_[0], outShape_[1]})),
               DataType::tile(tensor_.tileRows, tensor_.tileCols,
                              tensor_.elemBytes));
}

dam::SimTask
LinearOffChipLoadOp::run()
{
    StopCoalescer coal;
    while (true) {
        if (ref_.ch->empty())
            STEP_FLUSH(out_.ch, coal);
        Token t = co_await ref_.ch->read(*this);
        if (t.isData()) {
            for (int64_t i = 0; i < outShape_[0]; ++i) {
                for (int64_t j = 0; j < outShape_[1]; ++j) {
                    int64_t li = i * stride_[0] + j * stride_[1];
                    int64_t ti = li / tensor_.inShapeTiles[1];
                    int64_t tj = li % tensor_.inShapeTiles[1];
                    uint64_t addr = tensor_.baseAddr +
                        static_cast<uint64_t>(li * tensor_.tileBytes());
                    dam::Cycle done_at = graph_.memModel().access(
                        addr, tensor_.tileBytes(), now(), false);
                    busyAdvance(1);
                    STEP_FLUSH(out_.ch, coal);
                    co_await out_.ch->writeAt(
                        *this, Token::data(tensor_.tileAt(ti, tj)),
                        done_at);
                }
                STEP_STOP(out_.ch, coal, 1);
            }
            STEP_STOP(out_.ch, coal, 2);
        } else if (t.isStop()) {
            STEP_STOP(out_.ch, coal, t.level() + 2);
        } else {
            STEP_PASS(out_.ch, coal, Token::done());
            break;
        }
    }
    co_return;
}

sym::Expr
LinearOffChipLoadOp::offChipTrafficExpr() const
{
    return out_.shape.numel() * sym::Expr(tensor_.tileBytes());
}

sym::Expr
LinearOffChipLoadOp::onChipMemExpr() const
{
    return out_.dtype.sizeBytes() * sym::Expr(2);
}

// ---------------------------------------------------------------------
// LinearOffChipStore
// ---------------------------------------------------------------------

LinearOffChipStoreOp::LinearOffChipStoreOp(Graph& g, const std::string& name,
                                           StreamPort in, uint64_t base_addr)
    : OpBase(g, name), in_(in), base_(base_addr)
{
    bindInput(in_);
}

dam::SimTask
LinearOffChipStoreOp::run()
{
    cursor_ = 0;
    lastWrite_ = 0;
    while (true) {
        Token t = co_await in_.ch->read(*this);
        if (t.isData()) {
            int64_t bytes = t.value().bytes();
            dam::Cycle done_at = graph_.memModel().access(
                base_ + static_cast<uint64_t>(cursor_), bytes, now(), true);
            lastWrite_ = std::max(lastWrite_, done_at);
            cursor_ += bytes;
            busyAdvance(1);
        } else if (t.isDone()) {
            break;
        }
    }
    co_return;
}

sym::Expr
LinearOffChipStoreOp::offChipTrafficExpr() const
{
    return in_.shape.numel() * in_.dtype.sizeBytes();
}

sym::Expr
LinearOffChipStoreOp::onChipMemExpr() const
{
    return in_.dtype.sizeBytes() * sym::Expr(2);
}

// ---------------------------------------------------------------------
// RandomOffChipLoad
// ---------------------------------------------------------------------

RandomOffChipLoadOp::RandomOffChipLoadOp(Graph& g, const std::string& name,
                                         StreamPort addr,
                                         OffChipTensor tensor,
                                         int64_t block_stride_bytes,
                                         std::array<int64_t, 2>
                                             out_shape_tiles,
                                         bool grid_mode)
    : OpBase(g, name), addr_(addr), tensor_(std::move(tensor)),
      blockStride_(block_stride_bytes), outShape_(out_shape_tiles),
      gridMode_(grid_mode)
{
    bindInput(addr_);
    bindOutput(out_, name + ".out",
               gridMode_ ? addr_.shape.concatInner(StreamShape::fixed(
                               {outShape_[0], outShape_[1]}))
                         : addr_.shape,
               DataType::tile(tensor_.tileRows, tensor_.tileCols,
                              tensor_.elemBytes));
}

int64_t
RandomOffChipLoadOp::addrIndexOf(const Value& v)
{
    if (v.isSelector()) {
        STEP_ASSERT(!v.selector().indices.empty(),
                    "empty selector as address");
        return v.selector().indices[0];
    }
    const Tile& t = v.tile();
    STEP_ASSERT(t.hasData() && t.numel() >= 1,
                "address tile must carry a value");
    return static_cast<int64_t>(t.at(0, 0));
}

dam::SimTask
RandomOffChipLoadOp::run()
{
    StopCoalescer coal;
    while (true) {
        if (addr_.ch->empty())
            STEP_FLUSH(out_.ch, coal);
        Token t = co_await addr_.ch->read(*this);
        if (t.isData()) {
            int64_t idx = addrIndexOf(t.value());
            uint64_t block_base = tensor_.baseAddr +
                static_cast<uint64_t>(idx * blockStride_);
            for (int64_t i = 0; i < outShape_[0]; ++i) {
                for (int64_t j = 0; j < outShape_[1]; ++j) {
                    int64_t li = i * outShape_[1] + j;
                    uint64_t a = block_base +
                        static_cast<uint64_t>(li * tensor_.tileBytes());
                    dam::Cycle done_at = graph_.memModel().access(
                        a, tensor_.tileBytes(), now(), false);
                    busyAdvance(1);
                    // Functional payload: block idx maps to grid row
                    // offset idx*outR when a payload is present.
                    Tile tile = tensor_.payload
                        ? tensor_.tileAt(
                              (idx * outShape_[0] + i) %
                                  tensor_.inShapeTiles[0],
                              j % tensor_.inShapeTiles[1])
                        : Tile(tensor_.tileRows, tensor_.tileCols,
                               tensor_.elemBytes);
                    STEP_FLUSH(out_.ch, coal);
                    co_await out_.ch->writeAt(
                        *this, Token::data(std::move(tile)), done_at);
                }
                if (gridMode_)
                    STEP_STOP(out_.ch, coal, 1);
            }
            if (gridMode_)
                STEP_STOP(out_.ch, coal, 2);
        } else if (t.isStop()) {
            STEP_STOP(out_.ch, coal, t.level() + (gridMode_ ? 2 : 0));
        } else {
            STEP_PASS(out_.ch, coal, Token::done());
            break;
        }
    }
    co_return;
}

sym::Expr
RandomOffChipLoadOp::offChipTrafficExpr() const
{
    return out_.shape.numel() * sym::Expr(tensor_.tileBytes());
}

sym::Expr
RandomOffChipLoadOp::onChipMemExpr() const
{
    return out_.dtype.sizeBytes() * sym::Expr(2);
}

// ---------------------------------------------------------------------
// RandomOffChipStore
// ---------------------------------------------------------------------

RandomOffChipStoreOp::RandomOffChipStoreOp(Graph& g, const std::string& name,
                                           StreamPort waddr, StreamPort wdata,
                                           uint64_t base_addr,
                                           int64_t block_stride_bytes)
    : OpBase(g, name), waddr_(waddr), wdata_(wdata), base_(base_addr),
      blockStride_(block_stride_bytes)
{
    bindInput(waddr_);
    bindInput(wdata_);
    bindOutput(ack_, name + ".ack", waddr_.shape, DataType::tile(1, 1, 1));
}

dam::SimTask
RandomOffChipStoreOp::run()
{
    while (true) {
        Token ta = co_await waddr_.ch->read(*this);
        Token td = co_await wdata_.ch->read(*this);
        STEP_ASSERT(ta.kind() == td.kind() &&
                    (!ta.isStop() || ta.level() == td.level()),
                    "waddr/wdata streams misaligned in " << name());
        if (ta.isData()) {
            int64_t idx = RandomOffChipLoadOp::addrIndexOf(ta.value());
            int64_t bytes = td.value().bytes();
            dam::Cycle done_at = graph_.memModel().access(
                base_ + static_cast<uint64_t>(idx * blockStride_), bytes,
                now(), true);
            busyAdvance(1);
            Token ack = Token::data(Tile::withData(1, 1, {1.0f}, 1));
            co_await ack_.ch->writeAt(*this, std::move(ack), done_at);
        } else if (ta.isStop()) {
            STEP_EMIT_RAW(ack_.ch, std::move(ta));
        } else {
            STEP_EMIT_RAW(ack_.ch, Token::done());
            break;
        }
    }
    co_return;
}

sym::Expr
RandomOffChipStoreOp::offChipTrafficExpr() const
{
    return waddr_.shape.numel() * wdata_.dtype.sizeBytes();
}

sym::Expr
RandomOffChipStoreOp::onChipMemExpr() const
{
    return wdata_.dtype.sizeBytes() * sym::Expr(2);
}

} // namespace step
