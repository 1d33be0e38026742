#include "ops/higher_order.hh"

#include <cmath>

#include "support/error.hh"

namespace step {

// ---------------------------------------------------------------------
// MapOp
// ---------------------------------------------------------------------

MapOp::MapOp(Graph& g, const std::string& name, std::vector<StreamPort> ins,
             MapFn fn, int64_t compute_bw, DataType out_dtype)
    : OpBase(g, name), ins_(std::move(ins)), fn_(std::move(fn)),
      computeBw_(compute_bw)
{
    STEP_ASSERT(ins_.size() == 1 || ins_.size() == 2,
                "Map takes 1 or 2 inputs");
    for (auto& p : ins_)
        bindInput(p);
    if (ins_.size() == 2) {
        STEP_ASSERT(ins_[0].shape.compatibleWith(ins_[1].shape),
                    "Map input shapes misaligned: "
                    << ins_[0].shape.toString() << " vs "
                    << ins_[1].shape.toString() << " in " << name);
    }
    bindOutput(out_, name + ".out", ins_[0].shape, std::move(out_dtype));
    // Reserve at build time so the per-element path never allocates.
    argScratch_.reserve(ins_.size());
}

void
MapOp::setMatmulMemSpec(size_t weight_input)
{
    STEP_ASSERT(weight_input < ins_.size(), "bad weight input index");
    weightInput_ = static_cast<int>(weight_input);
    const DataType& in_dt = ins_[1 - weight_input].dtype;
    const DataType& w_dt = ins_[weight_input].dtype;
    // Section 4.2: 16 x in_tile_col + |weight tile| (in bytes).
    onChipExpr_ = sym::Expr(16) * in_dt.tileCols().size *
        sym::Expr(int64_t{in_dt.elemBytes()}) + w_dt.sizeBytes();
}

dam::SimTask
MapOp::run()
{
    while (true) {
        Token t0 = co_await ins_[0].ch->read(*this);
        if (ins_.size() == 2) {
            Token t1 = co_await ins_[1].ch->read(*this);
            STEP_ASSERT(t0.kind() == t1.kind() &&
                        (!t0.isStop() || t0.level() == t1.level()),
                        "Map inputs misaligned in " << name() << ": "
                        << t0.toString() << " vs " << t1.toString());
            if (t0.isData()) {
                ++elements_;
                int64_t flops = 0;
                // In-place assignment (not clear+push) so the scratch
                // slots move-assign same-kind values with no
                // destroy/construct cycle.
                if (argScratch_.size() != 2)
                    argScratch_.resize(2);
                argScratch_[0] = t0.takeValue();
                argScratch_[1] = t1.takeValue();
                const std::vector<Value>& args = argScratch_;
                Value out = fn_(args, flops);
                flops_ += flops;
                int64_t in_bytes = args[0].bytes() + args[1].bytes();
                dam::Cycle dt = std::max<dam::Cycle>(
                    1, rooflineCyclesMemo(in_bytes, flops, out.bytes(),
                                      computeBw_, false, false));
                busyAdvance(dt);
                if (weightInput_ >= 0) {
                    // Section 4.2: 16 x in_tile_col + |weight tile|
                    // (partial-input rows + resident weight).
                    const Tile& in_tile =
                        args[static_cast<size_t>(1 - weightInput_)].tile();
                    int64_t mem = 16 * in_tile.cols() *
                            in_tile.elemBytes() +
                        args[static_cast<size_t>(weightInput_)].bytes();
                    onChipPeak_ = std::max(onChipPeak_, mem);
                }
                STEP_EMIT_RAW(out_.ch, Token::data(std::move(out)));
                continue;
            }
        } else if (t0.isData()) {
            ++elements_;
            int64_t flops = 0;
            if (argScratch_.size() != 1)
                argScratch_.resize(1);
            argScratch_[0] = t0.takeValue();
            const std::vector<Value>& args = argScratch_;
            Value out = fn_(args, flops);
            flops_ += flops;
            dam::Cycle dt = std::max<dam::Cycle>(
                1, rooflineCyclesMemo(args[0].bytes(), flops, out.bytes(),
                                  computeBw_, false, false));
            busyAdvance(dt);
            STEP_EMIT_RAW(out_.ch, Token::data(std::move(out)));
            continue;
        }
        // Stop or Done (inputs aligned): forward.
        busyAdvance(1);
        bool done = t0.isDone();
        STEP_EMIT_RAW(out_.ch, t0);
        if (done)
            break;
    }
    co_return;
}

void
MapOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    if (spec.computeBw >= 0)
        computeBw_ = spec.computeBw;
}

// ---------------------------------------------------------------------
// AccumOp
// ---------------------------------------------------------------------

AccumOp::AccumOp(Graph& g, const std::string& name, StreamPort in,
                 size_t rank, AccumInitFn init, AccumUpdateFn update,
                 int64_t compute_bw, DataType out_dtype)
    : OpBase(g, name), in_(in), rank_(rank), init_(std::move(init)),
      update_(std::move(update)), computeBw_(compute_bw)
{
    STEP_ASSERT(rank_ >= 1 && rank_ <= in_.rank(),
                "Accum rank " << rank_ << " vs input rank " << in_.rank()
                << " in " << name);
    bindInput(in_);
    bindOutput(out_, name + ".out", in_.shape.dropInner(rank_),
               std::move(out_dtype));
}

dam::SimTask
AccumOp::run()
{
    Value state = init_();
    bool saw_data = false;
    const bool full_reduce = rank_ == in_.rank();
    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await in_.ch->read(*this);
        if (t.isData()) {
            ++elements_;
            saw_data = true;
            int64_t flops = 0;
            int64_t in_bytes = t.value().bytes();
            state = update_(t.value(), std::move(state), flops);
            flops_ += flops;
            onChipPeak_ = std::max(onChipPeak_, state.bytes());
            dam::Cycle dt = std::max<dam::Cycle>(
                1, rooflineCyclesMemo(in_bytes, flops, 0, computeBw_, false,
                                  false));
            busyAdvance(dt);
        } else if (t.isStop()) {
            if (t.level() >= rank_) {
                STEP_EMIT(out_.ch, coal_.onData(std::move(state)));
                state = init_();
                if (t.level() > rank_) {
                    STEP_EMIT(out_.ch, coal_.onStop(
                        t.level() - static_cast<uint32_t>(rank_)));
                }
            }
            busyAdvance(1);
        } else {
            if (full_reduce && saw_data)
                STEP_EMIT(out_.ch, coal_.onData(std::move(state)));
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}

void
AccumOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
    if (spec.computeBw >= 0)
        computeBw_ = spec.computeBw;
}

// ---------------------------------------------------------------------
// ScanOp
// ---------------------------------------------------------------------

ScanOp::ScanOp(Graph& g, const std::string& name, StreamPort in, size_t rank,
               AccumInitFn init, AccumUpdateFn update, int64_t compute_bw,
               DataType out_dtype)
    : OpBase(g, name), in_(in), rank_(rank), init_(std::move(init)),
      update_(std::move(update)), computeBw_(compute_bw)
{
    STEP_ASSERT(rank_ >= 1 && rank_ <= in_.rank(),
                "Scan rank " << rank_ << " vs input rank " << in_.rank());
    bindInput(in_);
    bindOutput(out_, name + ".out", in_.shape, std::move(out_dtype));
}

dam::SimTask
ScanOp::run()
{
    Value state = init_();
    while (true) {
        Token t = co_await in_.ch->read(*this);
        if (t.isData()) {
            ++elements_;
            int64_t flops = 0;
            int64_t in_bytes = t.value().bytes();
            state = update_(t.value(), std::move(state), flops);
            flops_ += flops;
            onChipPeak_ = std::max(onChipPeak_, state.bytes());
            dam::Cycle dt = std::max<dam::Cycle>(
                1, rooflineCyclesMemo(in_bytes, flops, state.bytes(),
                                  computeBw_, false, false));
            busyAdvance(dt);
            STEP_EMIT_RAW(out_.ch, Token::data(state));
        } else if (t.isStop()) {
            if (t.level() >= rank_)
                state = init_(); // reset at reduction-group boundary
            busyAdvance(1);
            STEP_EMIT_RAW(out_.ch, t);
        } else {
            STEP_EMIT_RAW(out_.ch, Token::done());
            break;
        }
    }
    co_return;
}

void
ScanOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    if (spec.computeBw >= 0)
        computeBw_ = spec.computeBw;
}

// ---------------------------------------------------------------------
// FlatMapOp
// ---------------------------------------------------------------------

FlatMapOp::FlatMapOp(Graph& g, const std::string& name, StreamPort in,
                     FlatMapFn fn, StreamShape fn_dims, DataType out_dtype,
                     int64_t compute_bw)
    : OpBase(g, name), in_(in), fn_(std::move(fn)), rank_(fn_dims.rank()),
      computeBw_(compute_bw)
{
    STEP_ASSERT(rank_ >= 1, "FlatMap expansion rank must be >= 1");
    bindInput(in_);
    // [D_a..D_1, D'_b..D'_0]: the input's innermost dim persists as the
    // expansion-count dim; fn_dims appends inside it (Table 5).
    bindOutput(out_, name + ".out", in_.shape.concatInner(fn_dims),
               std::move(out_dtype));
}

dam::SimTask
FlatMapOp::run()
{
    const auto b = static_cast<uint32_t>(rank_);
    while (true) {
        if (in_.ch->empty())
            STEP_EMIT(out_.ch, coal_.flush());
        Token t = co_await in_.ch->read(*this);
        if (t.isData()) {
            ++elements_;
            int64_t flops = 0;
            expScratch_.clear();
            fn_(t.value(), expScratch_, flops);
            const std::vector<Token>& expansion = expScratch_;
            flops_ += flops;
            busyAdvance(std::max<dam::Cycle>(
                1, rooflineCyclesMemo(t.value().bytes(), flops, 0, computeBw_,
                                  false, false)));
            for (auto& et : expansion) {
                STEP_ASSERT(!et.isDone() && (!et.isStop() ||
                            et.level() < b),
                            "FlatMap fn emitted token beyond rank "
                            << rank_);
                STEP_EMIT(out_.ch, coal_.onToken(et));
            }
            STEP_EMIT(out_.ch, coal_.onStop(b));
        } else if (t.isStop()) {
            busyAdvance(1);
            STEP_EMIT(out_.ch, coal_.onStop(t.level() + b));
        } else {
            STEP_EMIT(out_.ch, coal_.onDone());
            break;
        }
    }
    co_return;
}

void
FlatMapOp::rearm(const RearmSpec& spec)
{
    OpBase::rearm(spec);
    coal_.reset();
    if (spec.computeBw >= 0)
        computeBw_ = spec.computeBw;
}

// ---------------------------------------------------------------------
// Function library
// ---------------------------------------------------------------------

namespace fns {

MapFn
matmul()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        STEP_ASSERT(args.size() == 2, "matmul needs 2 inputs");
        return step::matmul(args[0].tile(), args[1].tile(), &flops);
    };
}

MapFn
matmulBT()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        STEP_ASSERT(args.size() == 2, "matmulBT needs 2 inputs");
        const Tile& a = args[0].tile();
        const Tile& b = args[1].tile();
        flops += 2 * a.rows() * a.cols() * b.rows();
        if (!a.hasData() || !b.hasData())
            return Tile(a.rows(), b.rows(), a.elemBytes());
        std::vector<float> out(static_cast<size_t>(a.rows() * b.rows()));
        for (int64_t i = 0; i < a.rows(); ++i)
            for (int64_t j = 0; j < b.rows(); ++j) {
                float acc = 0.0f;
                for (int64_t k = 0; k < a.cols(); ++k)
                    acc += a.at(i, k) * b.at(j, k);
                out[static_cast<size_t>(i * b.rows() + j)] = acc;
            }
        return Tile::withData(a.rows(), b.rows(), std::move(out),
                              a.elemBytes());
    };
}

MapFn
addFn()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        return step::add(args[0].tile(), args[1].tile(), &flops);
    };
}

MapFn
mulFn()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        return step::elemMul(args[0].tile(), args[1].tile(), &flops);
    };
}

MapFn
siluFn()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        return step::silu(args[0].tile(), &flops);
    };
}

MapFn
swigluFn()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        const Tile* gate;
        const Tile* up;
        if (args.size() == 2) {
            gate = &args[0].tile();
            up = &args[1].tile();
        } else {
            const auto& tup = args[0].tupleElems();
            gate = &tup[0].tile();
            up = &tup[1].tile();
        }
        return step::elemMul(step::silu(*gate, &flops), *up, &flops);
    };
}

AccumInitFn
retileRowInit(int64_t cols, int elem_bytes)
{
    return [cols, elem_bytes]() -> Value {
        return Tile(0, cols, elem_bytes);
    };
}

AccumUpdateFn
retileRowUpdate()
{
    return [](const Value& in, Value state, int64_t&) -> Value {
        return retileRow(state.tile(), in.tile());
    };
}

AccumInitFn
retileColInit(int64_t rows, int elem_bytes)
{
    return [rows, elem_bytes]() -> Value {
        return Tile(rows, 0, elem_bytes);
    };
}

AccumUpdateFn
retileColUpdate()
{
    return [](const Value& in, Value state, int64_t&) -> Value {
        return retileCol(state.tile(), in.tile());
    };
}

AccumInitFn
zeroInit(int64_t rows, int64_t cols, int elem_bytes)
{
    return [rows, cols, elem_bytes]() -> Value {
        return Tile::zeros(rows, cols, elem_bytes);
    };
}

AccumUpdateFn
addUpdate()
{
    return [](const Value& in, Value state, int64_t& flops) -> Value {
        return step::add(state.tile(), in.tile(), &flops);
    };
}

AccumInitFn
attnInit(int64_t head_dim, int elem_bytes)
{
    return [head_dim, elem_bytes]() -> Value {
        // (m = -inf, l = 0, acc = 0)
        return Value::tuple({
            Tile::withData(1, 1, {-1e30f}, elem_bytes),
            Tile::withData(1, 1, {0.0f}, elem_bytes),
            Tile::zeros(1, head_dim, elem_bytes),
        });
    };
}

AccumUpdateFn
attnUpdate(int64_t flop_scale)
{
    return [flop_scale](const Value& in, Value state,
                        int64_t& flops) -> Value {
        const auto& tin = in.tupleElems();
        const Tile& q = tin[0].tile();
        const Tile& k = tin[1].tile();
        const Tile& v = tin[2].tile();
        const auto& st = state.tupleElems();
        const Tile& m_t = st[0].tile();
        const Tile& l_t = st[1].tile();
        const Tile& acc_t = st[2].tile();

        int64_t t_rows = k.rows();
        int64_t hd = q.cols();
        // scores = q k^T; softmax-rescaled accumulate of v.
        flops += flop_scale *
                 (2 * t_rows * hd   // scores
                  + 4 * t_rows      // exp + max bookkeeping
                  + 2 * t_rows * hd // weighted v accumulate
                  + 2 * hd);        // rescale
        if (!q.hasData() || !k.hasData() || !v.hasData()) {
            return Value::tuple({Tile(1, 1, q.elemBytes()),
                                 Tile(1, 1, q.elemBytes()),
                                 Tile(1, hd, q.elemBytes())});
        }
        float m_old = m_t.hasData() ? m_t.at(0, 0) : -1e30f;
        float l_old = l_t.hasData() ? l_t.at(0, 0) : 0.0f;
        std::vector<float> scores(static_cast<size_t>(t_rows));
        float m_new = m_old;
        float scale = 1.0f / std::sqrt(static_cast<float>(hd));
        for (int64_t t = 0; t < t_rows; ++t) {
            float s = 0.0f;
            for (int64_t d = 0; d < hd; ++d)
                s += q.at(0, d) * k.at(t, d);
            s *= scale;
            scores[static_cast<size_t>(t)] = s;
            m_new = std::max(m_new, s);
        }
        float corr = std::exp(m_old - m_new);
        float l_new = l_old * corr;
        std::vector<float> acc(static_cast<size_t>(hd));
        for (int64_t d = 0; d < hd; ++d)
            acc[static_cast<size_t>(d)] =
                (acc_t.hasData() ? acc_t.at(0, d) : 0.0f) * corr;
        for (int64_t t = 0; t < t_rows; ++t) {
            float p = std::exp(scores[static_cast<size_t>(t)] - m_new);
            l_new += p;
            for (int64_t d = 0; d < hd; ++d)
                acc[static_cast<size_t>(d)] += p * v.at(t, d);
        }
        return Value::tuple({
            Tile::withData(1, 1, {m_new}, q.elemBytes()),
            Tile::withData(1, 1, {l_new}, q.elemBytes()),
            Tile::withData(1, hd, std::move(acc), q.elemBytes()),
        });
    };
}

MapFn
attnFinish()
{
    return [](const std::vector<Value>& args, int64_t& flops) -> Value {
        const auto& st = args[0].tupleElems();
        const Tile& l_t = st[1].tile();
        const Tile& acc = st[2].tile();
        flops += acc.cols();
        if (!acc.hasData() || !l_t.hasData())
            return Tile(1, acc.cols(), acc.elemBytes());
        float l = l_t.at(0, 0);
        std::vector<float> out(static_cast<size_t>(acc.cols()));
        for (int64_t d = 0; d < acc.cols(); ++d)
            out[static_cast<size_t>(d)] =
                l > 0.0f ? acc.at(0, d) / l : 0.0f;
        return Tile::withData(1, acc.cols(), std::move(out),
                              acc.elemBytes());
    };
}

FlatMapFn
retileStreamify(int64_t chunk_rows)
{
    return [chunk_rows](const Value& v, std::vector<Token>& out, int64_t&) {
        const Tile& t = v.tile();
        for (int64_t r = 0; r < t.rows(); r += chunk_rows) {
            out.push_back(Token::data(
                sliceRows(t, r, std::min(r + chunk_rows, t.rows()))));
        }
    };
}

} // namespace fns

} // namespace step
