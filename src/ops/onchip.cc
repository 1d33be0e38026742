#include "ops/onchip.hh"

#include "mem/scratchpad.hh"
#include "support/error.hh"

namespace step {

// ---------------------------------------------------------------------
// Bufferize
// ---------------------------------------------------------------------

BufferizeOp::BufferizeOp(Graph& g, const std::string& name, StreamPort in,
                         size_t rank)
    : OpBase(g, name), in_(in), rank_(rank)
{
    STEP_ASSERT(rank_ >= 1 && rank_ <= in_.rank(),
                "bufferize rank " << rank_ << " of input rank "
                << in_.rank() << " in " << name);
    bindInput(in_);
    StreamShape taken = in_.shape.takeInner(rank_);
    std::vector<Dim> buf_dims(taken.dims().begin(), taken.dims().end());
    bindOutput(out_, name + ".out", in_.shape.dropInner(rank_),
               DataType::bufferRef(buf_dims, in_.dtype));
}

namespace {

/** Compute tile-grid extents of a buffered rank-b group, if regular. */
std::vector<int64_t>
gridDimsOf(const std::vector<Token>& toks, size_t rank)
{
    if (rank == 1)
        return {static_cast<int64_t>(countData(toks))};
    if (rank != 2)
        return {};
    // rows separated by S1; regular iff all rows equal length.
    int64_t rows = 0;
    int64_t cols = -1;
    int64_t cur = 0;
    for (const auto& t : toks) {
        if (t.isData()) {
            ++cur;
        } else if (t.isStop() && t.level() >= 1) {
            if (cols < 0)
                cols = cur;
            else if (cols != cur)
                return {};
            ++rows;
            cur = 0;
        }
    }
    if (cur > 0) {
        if (cols < 0)
            cols = cur;
        else if (cols != cur)
            return {};
        ++rows;
    }
    return {rows, cols < 0 ? 0 : cols};
}

} // namespace

dam::SimTask
BufferizeOp::run()
{
    const auto b = static_cast<uint32_t>(rank_);
    const bool full = rank_ == in_.rank();
    std::vector<Token> toks;
    int64_t payload = 0;
    auto flush_buffer = [&]() -> Token {
        StoredBuffer buf;
        buf.payloadBytes = payload;
        buf.gridDims = gridDimsOf(toks, rank_);
        buf.rank = rank_;
        buf.toks = std::move(toks);
        toks.clear();
        uint64_t id = graph_.scratchpad().alloc(std::move(buf));
        Token out = Token::data(BufferRef{id, payload});
        payload = 0;
        return out;
    };

    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await in_.ch->read(*this);
        if (t.isData()) {
            ++elements_;
            int64_t bytes = t.value().bytes();
            payload += bytes;
            busyAdvance(std::max<dam::Cycle>(
                1, static_cast<dam::Cycle>(
                    (bytes + graph_.config().onChipBwBytesPerCycle - 1) /
                    graph_.config().onChipBwBytesPerCycle)));
            toks.push_back(std::move(t));
        } else if (t.isStop()) {
            busyAdvance(1);
            if (t.level() >= b) {
                Token buf = flush_buffer();
                STEP_EMIT(out_.ch, coal_.onData(buf.value()));
                if (t.level() > b)
                    STEP_EMIT(out_.ch, coal_.onStop(t.level() - b));
            } else {
                toks.push_back(std::move(t));
            }
        } else {
            if (full && (!toks.empty() || payload > 0)) {
                Token buf = flush_buffer();
                STEP_EMIT(out_.ch, coal_.onData(buf.value()));
            }
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}

sym::Expr
BufferizeOp::onChipMemExpr() const
{
    return in_.dtype.sizeBytes() +
           out_.dtype.referencedBytes() * sym::Expr(2);
}

// ---------------------------------------------------------------------
// Streamify
// ---------------------------------------------------------------------

StreamifyOp::StreamifyOp(Graph& g, const std::string& name, StreamPort in,
                         StreamPort ref, size_t ref_inner_rank,
                         std::optional<StreamifyAffine> affine)
    : OpBase(g, name), in_(in), ref_(ref), refInnerRank_(ref_inner_rank),
      affine_(affine)
{
    STEP_ASSERT(in_.dtype.isBufferRef(),
                "streamify input must carry buffer references");
    STEP_ASSERT(ref_.rank() == in_.rank() + refInnerRank_,
                "streamify ref rank " << ref_.rank() << " != in rank "
                << in_.rank() << " + " << refInnerRank_ << " in " << name);
    bindInput(in_);
    bindInput(ref_);

    StreamShape added = affine_
        ? StreamShape::fixed({affine_->outShape[0], affine_->outShape[1]})
        : StreamShape(in_.dtype.bufferDims());
    bindOutput(out_, name + ".out", ref_.shape.concatInner(added),
               in_.dtype.pointee());
}

size_t
StreamifyOp::addedRank() const
{
    return affine_ ? 2 : in_.dtype.bufferDims().size();
}

dam::SimTask
StreamifyOp::run()
{
    const auto added = static_cast<uint32_t>(addedRank());
    const auto c = static_cast<uint32_t>(refInnerRank_);
    std::optional<uint64_t> cur;
    auto bw = graph_.config().onChipBwBytesPerCycle;

    auto release_current = [&]() {
        if (cur) {
            graph_.scratchpad().release(*cur);
            cur.reset();
        }
    };

    while (true) {
        if (ref_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await ref_.ch->read(*this);
        if (t.isData()) {
            ++elements_;
            while (!cur) {
                Token ti = co_await in_.ch->read(*this);
                STEP_ASSERT(!ti.isDone(),
                            "streamify buffers ended before ref in "
                            << name());
                if (ti.isData())
                    cur = ti.value().bufferRef().id;
            }
            const StoredBuffer& buf = graph_.scratchpad().get(*cur);
            if (affine_) {
                STEP_ASSERT(buf.gridDims.size() == 2,
                            "affine streamify over irregular buffer in "
                            << name());
                std::vector<const Value*> grid;
                grid.reserve(buf.toks.size());
                for (const auto& bt : buf.toks)
                    if (bt.isData())
                        grid.push_back(&bt.value());
                for (int64_t i = 0; i < affine_->outShape[0]; ++i) {
                    for (int64_t j = 0; j < affine_->outShape[1]; ++j) {
                        int64_t li = i * affine_->stride[0] +
                                     j * affine_->stride[1];
                        STEP_ASSERT(li >= 0 && li <
                                    static_cast<int64_t>(grid.size()),
                                    "affine read index " << li
                                    << " outside buffer of "
                                    << grid.size() << " tiles");
                        const Value& v = *grid[static_cast<size_t>(li)];
                        busyAdvance(std::max<dam::Cycle>(
                            1, static_cast<dam::Cycle>(
                                (v.bytes() + bw - 1) / bw)));
                        STEP_EMIT(out_.ch, coal_.onData(v));
                    }
                    STEP_EMIT(out_.ch, coal_.onStop(1));
                }
                STEP_EMIT(out_.ch, coal_.onStop(2));
            } else {
                for (const auto& bt : buf.toks) {
                    if (bt.isData()) {
                        busyAdvance(std::max<dam::Cycle>(
                            1, static_cast<dam::Cycle>(
                                (bt.value().bytes() + bw - 1) / bw)));
                        STEP_EMIT(out_.ch, coal_.onData(bt.value()));
                    } else {
                        STEP_EMIT(out_.ch, coal_.onStop(bt.level()));
                    }
                }
                STEP_EMIT(out_.ch, coal_.onStop(added));
            }
            if (c == 0)
                release_current();
        } else if (t.isStop()) {
            busyAdvance(1);
            STEP_EMIT(out_.ch, coal_.onStop(t.level() + added));
            if (t.level() >= c && c > 0)
                release_current();
        } else {
            release_current();
            while (true) {
                Token ti = co_await in_.ch->read(*this);
                if (ti.isDone())
                    break;
                if (ti.isData())
                    graph_.scratchpad().release(
                        ti.value().bufferRef().id);
            }
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}


void
BufferizeOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
}

void
StreamifyOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
}

} // namespace step
