#include "ops/shape_ops.hh"

#include "support/error.hh"

namespace step {

// ---------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------

FlattenOp::FlattenOp(Graph& g, const std::string& name, StreamPort in,
                     size_t lo, size_t hi)
    : OpBase(g, name), in_(in), lo_(lo), hi_(hi)
{
    STEP_ASSERT(lo <= hi && hi < in.rank(),
                "flatten range [" << lo << "," << hi << "] of rank "
                << in.rank() << " in " << name);
    bindInput(in_);
    bindOutput(out_, name + ".out", in_.shape.flattened(lo, hi), in_.dtype);
}

dam::SimTask
FlattenOp::run()
{
    const auto drop = static_cast<uint32_t>(hi_ - lo_);
    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await in_.ch->read(*this);
        busyAdvance(1);
        if (t.isData()) {
            ++elements_;
            STEP_EMIT(out_.ch, coal_.onData(t.value()));
        } else if (t.isStop()) {
            uint32_t l = t.level();
            if (l <= lo_) {
                STEP_EMIT(out_.ch, coal_.onStop(l));
            } else if (l <= hi_) {
                // separator inside the flattened range: dissolves
            } else {
                STEP_EMIT(out_.ch, coal_.onStop(l - drop));
            }
        } else {
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Reshape
// ---------------------------------------------------------------------

ReshapeOp::ReshapeOp(Graph& g, const std::string& name, StreamPort in,
                     size_t rank, int64_t chunk, std::optional<Value> pad)
    : OpBase(g, name), in_(in), rank_(rank), chunk_(chunk),
      pad_(std::move(pad))
{
    STEP_ASSERT(chunk_ >= 1, "reshape chunk must be >= 1");
    STEP_ASSERT(rank_ < in.rank(), "reshape rank " << rank_
                << " out of input rank " << in.rank());
    STEP_ASSERT(!pad_ || rank_ == 0,
                "padding only supported when splitting the innermost dim");
    bindInput(in_);

    // Split inner(rank): [..., D, ...] -> [..., ceil(D/S), S, ...].
    DimVec dims = in_.shape.dims();
    size_t vidx = in_.rank() - 1 - rank_;
    Dim d = dims[static_cast<size_t>(vidx)];
    Dim outer{sym::ceilDiv(d.size, sym::Expr(chunk_)), d.kind};
    if (d.isRagged())
        outer = Dim::ragged();
    dims[vidx] = outer;
    dims.insert(vidx + 1, Dim::fixed(chunk_));
    bindOutput(out_, name + ".out", StreamShape(dims), in_.dtype);
    if (pad_)
        bindOutput(padOut_, name + ".pad", StreamShape(dims),
                   DataType::tile(1, 1, 1));
}

dam::SimTask
ReshapeOp::run()
{
    const auto b = static_cast<uint32_t>(rank_);
    int64_t count = 0; // elements (rank 0) or chunks (rank b) seen
    while (true) {
        if (in_.ch->empty()) {
            STEP_EMIT(out_.ch, coal_.flush());
            if (padOut_.ch)
                STEP_EMIT(padOut_.ch, padCoal_.flush());
        }
        Token t = co_await in_.ch->read(*this);
        busyAdvance(1);
        if (t.isData()) {
            ++elements_;
            if (b == 0) {
                STEP_EMIT(out_.ch, coal_.onData(t.value()));
                if (padOut_.ch) {
                    STEP_EMIT(padOut_.ch, padCoal_.onData(
                        Tile::withData(1, 1, {0.0f}, 1)));
                }
                if (++count % chunk_ == 0) {
                    STEP_EMIT(out_.ch, coal_.onStop(1));
                    if (padOut_.ch)
                        STEP_EMIT(padOut_.ch, padCoal_.onStop(1));
                }
            } else {
                STEP_EMIT(out_.ch, coal_.onData(t.value()));
            }
        } else if (t.isStop()) {
            uint32_t l = t.level();
            if (b == 0) {
                if (count % chunk_ != 0) {
                    STEP_ASSERT(pad_, "dimension " << count
                                << " not divisible by " << chunk_
                                << " and no pad value in " << name());
                    while (count % chunk_ != 0) {
                        STEP_EMIT(out_.ch, coal_.onData(*pad_));
                        if (padOut_.ch) {
                            STEP_EMIT(padOut_.ch, padCoal_.onData(
                                Tile::withData(1, 1, {1.0f}, 1)));
                        }
                        ++count;
                    }
                }
                count = 0;
                STEP_EMIT(out_.ch, coal_.onStop(l + 1));
                if (padOut_.ch)
                    STEP_EMIT(padOut_.ch, padCoal_.onStop(l + 1));
            } else {
                if (l < b) {
                    STEP_EMIT(out_.ch, coal_.onStop(l));
                } else if (l == b) {
                    ++count;
                    STEP_EMIT(out_.ch, coal_.onStop(
                        count % chunk_ == 0 ? b + 1 : b));
                } else {
                    STEP_ASSERT(count % chunk_ == 0,
                                "dim at rank " << rank_ << " (" << count
                                << " chunks) not divisible by " << chunk_
                                << " in " << name());
                    count = 0;
                    STEP_EMIT(out_.ch, coal_.onStop(l + 1));
                }
            }
        } else {
            // A rank-1 input's innermost dimension closes at Done: pad
            // the trailing partial chunk and emit its boundary stop.
            if (b == 0 && count % chunk_ != 0) {
                STEP_ASSERT(pad_, "trailing dimension of " << count
                            << " not divisible by " << chunk_
                            << " and no pad value in " << name());
                while (count % chunk_ != 0) {
                    STEP_EMIT(out_.ch, coal_.onData(*pad_));
                    if (padOut_.ch) {
                        STEP_EMIT(padOut_.ch, padCoal_.onData(
                            Tile::withData(1, 1,
                                           std::vector<float>{1.0f}, 1)));
                    }
                    ++count;
                }
                STEP_EMIT(out_.ch, coal_.onStop(1));
                if (padOut_.ch)
                    STEP_EMIT(padOut_.ch, padCoal_.onStop(1));
            }
            STEP_EMIT(out_.ch, coal_.onDone());
            if (padOut_.ch)
                STEP_EMIT(padOut_.ch, padCoal_.onDone());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Promote
// ---------------------------------------------------------------------

PromoteOp::PromoteOp(Graph& g, const std::string& name, StreamPort in)
    : OpBase(g, name), in_(in)
{
    bindInput(in_);
    Dim outer{sym::min(sym::Expr(1), in_.shape.rank()
                       ? in_.shape.outer(0).size : sym::Expr(0)),
              in_.shape.rank() && in_.shape.outer(0).isStatic()
                  ? DimKind::StaticRegular : DimKind::DynamicRegular};
    bindOutput(out_, name + ".out", in_.shape.pushOuter(outer), in_.dtype);
}

dam::SimTask
PromoteOp::run()
{
    const auto r = static_cast<uint32_t>(in_.rank());
    bool seen = false;
    StopCoalescer coal;
    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal.flush());
        Token t = co_await in_.ch->read(*this);
        busyAdvance(1);
        if (t.isData()) {
            ++elements_;
            seen = true;
            STEP_EMIT(out_.ch, coal.onData(t.value()));
        } else if (t.isStop()) {
            seen = true;
            STEP_EMIT(out_.ch, coal.onStop(t.level()));
        } else {
            if (seen)
                STEP_EMIT(out_.ch, coal.onStop(r));
            STEP_EMIT(out_.ch, coal.onDone());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Expand (reference-driven)
// ---------------------------------------------------------------------

ExpandOp::ExpandOp(Graph& g, const std::string& name, StreamPort in,
                   StreamPort ref, size_t rank)
    : OpBase(g, name), in_(in), ref_(ref), rank_(rank)
{
    STEP_ASSERT(in.rank() == ref.rank(),
                "Expand input/ref rank mismatch in " << name);
    bindInput(in_);
    bindInput(ref_);
    bindOutput(out_, name + ".out", ref_.shape, in_.dtype);
}

dam::SimTask
ExpandOp::run()
{
    StopCoalescer coal;
    std::optional<Value> cur;
    while (true) {
        if (ref_.ch->empty())
            STEP_EMIT(out_.ch, coal.flush());
        Token t = co_await ref_.ch->read(*this);
        busyAdvance(1);
        if (t.isData()) {
            ++elements_;
            while (!cur) {
                Token ti = co_await in_.ch->read(*this);
                STEP_ASSERT(!ti.isDone(), "Expand input ended before ref "
                            << "in " << name());
                if (ti.isData())
                    cur = ti.value();
            }
            STEP_EMIT(out_.ch, coal.onData(*cur));
        } else if (t.isStop()) {
            if (t.level() >= rank_)
                cur.reset(); // next outer element -> next input value
            STEP_EMIT(out_.ch, coal.onStop(t.level()));
        } else {
            // Drain the input's trailing stops and Done.
            while (true) {
                Token ti = co_await in_.ch->read(*this);
                if (ti.isDone())
                    break;
            }
            STEP_EMIT(out_.ch, coal.onDone());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// ExpandStatic
// ---------------------------------------------------------------------

ExpandStaticOp::ExpandStaticOp(Graph& g, const std::string& name,
                               StreamPort in, int64_t count)
    : OpBase(g, name), in_(in), count_(count)
{
    STEP_ASSERT(count_ >= 1, "expand count must be >= 1");
    bindInput(in_);
    DimVec dims = in_.shape.dims();
    STEP_ASSERT(!dims.empty(), "expand on rank-0 stream");
    Dim& inner = dims.back();
    inner = Dim{inner.size * sym::Expr(count_), inner.kind};
    bindOutput(out_, name + ".out", StreamShape(dims), in_.dtype);
}

dam::SimTask
ExpandStaticOp::run()
{
    while (true) {
        Token t = co_await in_.ch->read(*this);
        busyAdvance(1);
        if (t.isData()) {
            ++elements_;
            for (int64_t i = 0; i < count_; ++i)
                STEP_EMIT_RAW(out_.ch, t);
        } else {
            bool done = t.isDone();
            STEP_EMIT_RAW(out_.ch, t);
            if (done)
                break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Repeat
// ---------------------------------------------------------------------

RepeatOp::RepeatOp(Graph& g, const std::string& name, StreamPort in,
                   int64_t count)
    : OpBase(g, name), in_(in), count_(count)
{
    STEP_ASSERT(count_ >= 1, "repeat count must be >= 1");
    bindInput(in_);
    bindOutput(out_, name + ".out",
               in_.shape.concatInner(StreamShape::fixed({count_})),
               in_.dtype);
}

dam::SimTask
RepeatOp::run()
{
    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await in_.ch->read(*this);
        busyAdvance(1);
        if (t.isData()) {
            ++elements_;
            for (int64_t i = 0; i < count_; ++i)
                STEP_EMIT(out_.ch, coal_.onData(t.value()));
            STEP_EMIT(out_.ch, coal_.onStop(1));
        } else if (t.isStop()) {
            STEP_EMIT(out_.ch, coal_.onStop(t.level() + 1));
        } else {
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Zip
// ---------------------------------------------------------------------

ZipOp::ZipOp(Graph& g, const std::string& name, std::vector<StreamPort> ins)
    : OpBase(g, name), ins_(std::move(ins))
{
    STEP_ASSERT(ins_.size() >= 2, "Zip needs >= 2 inputs");
    std::vector<DataType> dts;
    for (auto& p : ins_) {
        bindInput(p);
        STEP_ASSERT(p.shape.compatibleWith(ins_[0].shape),
                    "Zip shapes misaligned in " << name);
        dts.push_back(p.dtype);
    }
    bindOutput(out_, name + ".out", ins_[0].shape,
               DataType::tuple(std::move(dts)));
}

dam::SimTask
ZipOp::run()
{
    while (true) {
        std::vector<Token> ts;
        ts.reserve(ins_.size());
        for (auto& p : ins_)
            ts.push_back(co_await p.ch->read(*this));
        busyAdvance(1);
        for (size_t i = 1; i < ts.size(); ++i) {
            STEP_ASSERT(ts[i].kind() == ts[0].kind() &&
                        (!ts[0].isStop() ||
                         ts[i].level() == ts[0].level()),
                        "Zip inputs misaligned in " << name() << ": "
                        << ts[0].toString() << " vs " << ts[i].toString());
        }
        if (ts[0].isData()) {
            ++elements_;
            std::vector<Value> vals;
            vals.reserve(ts.size());
            for (auto& t : ts)
                vals.push_back(t.value());
            STEP_EMIT_RAW(out_.ch, Token::data(Value::tuple(
                std::move(vals))));
        } else {
            bool done = ts[0].isDone();
            STEP_EMIT_RAW(out_.ch, ts[0]);
            if (done)
                break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------

FilterOp::FilterOp(Graph& g, const std::string& name, StreamPort in,
                   StreamPort mask)
    : OpBase(g, name), in_(in), mask_(mask)
{
    bindInput(in_);
    bindInput(mask_);
    DimVec dims = in_.shape.dims();
    STEP_ASSERT(!dims.empty(), "filter on rank-0 stream");
    dims.back() = Dim::ragged();
    bindOutput(out_, name + ".out", StreamShape(dims), in_.dtype);
}

dam::SimTask
FilterOp::run()
{
    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await in_.ch->read(*this);
        Token m = co_await mask_.ch->read(*this);
        busyAdvance(1);
        STEP_ASSERT(t.kind() == m.kind() &&
                    (!t.isStop() || t.level() == m.level()),
                    "Filter mask misaligned in " << name());
        if (t.isData()) {
            ++elements_;
            bool padded = m.value().tile().hasData() &&
                          m.value().tile().at(0, 0) != 0.0f;
            if (!padded)
                STEP_EMIT(out_.ch, coal_.onData(t.value()));
        } else if (t.isStop()) {
            STEP_EMIT(out_.ch, coal_.onStop(t.level()));
        } else {
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}


// ---------------------------------------------------------------------
// rearm overrides: reset the stop-coalescing state machines
// ---------------------------------------------------------------------

void
FlattenOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
}

void
ReshapeOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
    padCoal_.reset();
}

void
RepeatOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
}

void
FilterOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
}

} // namespace step
