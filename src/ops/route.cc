#include "ops/route.hh"

#include <algorithm>

#include "dam/scheduler.hh"
#include "support/error.hh"

namespace step {

namespace {

/** Routing cost of one token through a switch at on-chip bandwidth. */
dam::Cycle
routeCost(const Token& t, int64_t bw)
{
    if (!t.isData())
        return 1;
    return std::max<dam::Cycle>(
        1, static_cast<dam::Cycle>((t.value().bytes() + bw - 1) / bw));
}

} // namespace

// ---------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------

PartitionOp::PartitionOp(Graph& g, const std::string& name, StreamPort in,
                         StreamPort sel, size_t rank, size_t num_consumers)
    : OpBase(g, name), in_(in), sel_(sel), rank_(rank)
{
    STEP_ASSERT(num_consumers >= 1, "partition needs >= 1 consumers");
    STEP_ASSERT(in_.rank() == sel_.rank() + rank_,
                "partition rank mismatch: in rank " << in_.rank()
                << " != sel rank " << sel_.rank() << " + " << rank_
                << " in " << name);
    bindInput(in_);
    bindInput(sel_);

    // [sel outer dims..., D^i (ragged), chunk dims...]
    StreamShape out_shape = sel_.shape.dropInner(1)
        .concatInner(StreamShape({Dim::ragged()}))
        .concatInner(in_.shape.takeInner(rank_));
    outs_.resize(num_consumers);
    coals_.resize(num_consumers);
    for (size_t i = 0; i < num_consumers; ++i)
        bindOutput(outs_[i], name + ".out" + std::to_string(i), out_shape,
                   in_.dtype);
}

dam::SimTask
PartitionOp::run()
{
    const auto p = static_cast<uint32_t>(rank_);
    coals_.assign(outs_.size(), StopCoalescer{});
    while (true) {
        if (sel_.ch->empty()) {
            for (size_t o = 0; o < outs_.size(); ++o)
                STEP_FLUSH(outs_[o].ch, coals_[o]);
        }
        Token ts = co_await sel_.ch->read(*this);
        if (ts.isData()) {
            const auto& sel = ts.value().selector().indices;
            for (uint32_t i : sel)
                STEP_ASSERT(i < outs_.size(), "selector index " << i
                            << " out of " << outs_.size() << " outputs");
            // Route one rank-p chunk.
            while (true) {
                Token t = co_await in_.ch->read(*this);
                STEP_ASSERT(!t.isDone(),
                            "input ended mid-selection in " << name());
                busyAdvance(routeCost(
                    t, graph_.config().onChipBwBytesPerCycle));
                if (t.isData()) {
                    // Copies for all but the last selected output, which
                    // takes the spent token's value.
                    for (size_t k = 0; k < sel.size(); ++k) {
                        const uint32_t i = sel[k];
                        if (k + 1 < sel.size())
                            STEP_PASS(outs_[i].ch, coals_[i],
                                      Token::data(t.value()));
                        else
                            STEP_PASS(outs_[i].ch, coals_[i],
                                      Token::data(t.takeValue()));
                    }
                } else if (t.level() < p) {
                    for (uint32_t i : sel)
                        STEP_STOP(outs_[i].ch, coals_[i], t.level());
                } else {
                    // Chunk terminator; levels above p close selector
                    // dims and broadcast to every output.
                    for (uint32_t i : sel)
                        STEP_STOP(outs_[i].ch, coals_[i], t.level());
                    if (t.level() > p) {
                        for (size_t o = 0; o < outs_.size(); ++o) {
                            if (std::find(sel.begin(), sel.end(),
                                          static_cast<uint32_t>(o)) ==
                                sel.end()) {
                                STEP_STOP(outs_[o].ch, coals_[o],
                                          t.level());
                            }
                        }
                    }
                    break;
                }
            }
        } else if (ts.isStop()) {
            busyAdvance(1); // structure already mirrored via input stops
        } else {
            Token t = co_await in_.ch->read(*this);
            STEP_ASSERT(t.isDone(), "input/selector length mismatch in "
                        << name() << ": leftover " << t.toString());
            for (size_t o = 0; o < outs_.size(); ++o)
                STEP_PASS(outs_[o].ch, coals_[o], Token::done());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Reassemble
// ---------------------------------------------------------------------

ReassembleOp::ReassembleOp(Graph& g, const std::string& name,
                           std::vector<StreamPort> ins, StreamPort sel,
                           size_t rank)
    : OpBase(g, name), ins_(std::move(ins)), sel_(sel), rank_(rank)
{
    STEP_ASSERT(!ins_.empty(), "reassemble needs inputs");
    for (auto& p : ins_) {
        bindInput(p);
        STEP_ASSERT(p.rank() == rank_ + 1,
                    "reassemble input rank " << p.rank() << " != rank+1 ("
                    << rank_ + 1 << ") in " << name);
    }
    bindInput(sel_);
    StreamShape out_shape = sel_.shape
        .concatInner(StreamShape({Dim::ragged()}))
        .concatInner(ins_[0].shape.takeInner(rank_));
    bindOutput(out_, name + ".out", std::move(out_shape), ins_[0].dtype);
    // Reserve at build time so per-selection routing never allocates.
    selScratch_.reserve(ins_.size());
}

dam::SimTask
ReassembleOp::run()
{
    const auto b = static_cast<uint32_t>(rank_);
    StopCoalescer coal;
    while (true) {
        if (sel_.ch->empty())
            STEP_FLUSH(out_.ch, coal);
        Token ts = co_await sel_.ch->read(*this);
        if (ts.isData()) {
            const auto& picked = ts.value().selector().indices;
            selScratch_.assign(picked.begin(), picked.end());
            std::vector<uint32_t>& sel = selScratch_;
            // Collect in availability order: inputs whose head token is
            // already present go first (by ready time), the rest last.
            // A stable insertion sort in place: selections are a few
            // entries, and std::stable_sort would allocate a buffer.
            auto key = [&](uint32_t i) -> dam::Cycle {
                const auto* ch = ins_[i].ch;
                return ch->empty() ? ~dam::Cycle{0} : ch->frontTime();
            };
            for (size_t a = 1; a < sel.size(); ++a) {
                const uint32_t v = sel[a];
                const dam::Cycle kv = key(v);
                size_t c = a;
                for (; c > 0 && kv < key(sel[c - 1]); --c)
                    sel[c] = sel[c - 1];
                sel[c] = v;
            }
            for (size_t si = 0; si < sel.size(); ++si) {
                uint32_t i = sel[si];
                STEP_ASSERT(i < ins_.size(), "selector index " << i
                            << " out of " << ins_.size() << " inputs");
                while (true) {
                    Token t = co_await ins_[i].ch->read(*this);
                    STEP_ASSERT(!t.isDone(), "input " << i
                                << " exhausted while selected in "
                                << name());
                    busyAdvance(routeCost(
                        t, graph_.config().onChipBwBytesPerCycle));
                    if (t.isData()) {
                        STEP_PASS(out_.ch, coal, std::move(t));
                    } else if (t.level() < b) {
                        STEP_STOP(out_.ch, coal, t.level());
                    } else {
                        break; // chunk terminator consumed
                    }
                }
                if (si + 1 < sel.size())
                    STEP_STOP(out_.ch, coal, b);
            }
            STEP_STOP(out_.ch, coal, b + 1);
        } else if (ts.isStop()) {
            busyAdvance(1);
            STEP_STOP(out_.ch, coal, b + 1 + ts.level());
        } else {
            for (size_t i = 0; i < ins_.size(); ++i) {
                Token t = co_await ins_[i].ch->read(*this);
                STEP_ASSERT(t.isDone(), "trailing tokens on reassemble "
                            << "input " << i << ": " << t.toString());
            }
            STEP_PASS(out_.ch, coal, Token::done());
            break;
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// EagerMerge
// ---------------------------------------------------------------------

EagerMergeOp::EagerMergeOp(Graph& g, const std::string& name,
                           std::vector<StreamPort> ins, size_t rank)
    : OpBase(g, name), ins_(std::move(ins)), rank_(rank)
{
    STEP_ASSERT(!ins_.empty(), "eager merge needs inputs");
    for (auto& p : ins_) {
        bindInput(p);
        STEP_ASSERT(p.rank() == rank_ + 1 || (rank_ == 0 && p.rank() == 1),
                    "eager merge input rank " << p.rank()
                    << " incompatible with rank " << rank_);
    }
    StreamShape out_shape = StreamShape({Dim::ragged()})
        .concatInner(ins_[0].shape.takeInner(rank_));
    bindOutput(out_, name + ".out", std::move(out_shape), ins_[0].dtype);
    bindOutput(selOut_, name + ".sel", StreamShape({Dim::ragged()}),
               DataType::selector(static_cast<int64_t>(ins_.size())));
    // Reserve at build time so re-blocking and run() never allocate.
    waitScratch_.reserve(ins_.size());
    done_.reserve(ins_.size());
}

int
EagerMergeOp::pickAvailable(const std::vector<bool>& done) const
{
    int best = -1;
    dam::Cycle best_t = ~dam::Cycle{0};
    for (size_t i = 0; i < ins_.size(); ++i) {
        if (done[i] || ins_[i].ch->empty())
            continue;
        dam::Cycle t = ins_[i].ch->frontTime();
        if (t < best_t) {
            best_t = t;
            best = static_cast<int>(i);
        }
    }
    return best;
}

dam::SimTask
EagerMergeOp::run()
{
    const auto b = static_cast<uint32_t>(rank_);
    std::vector<bool>& done = done_;
    done.assign(ins_.size(), false);
    size_t remaining = ins_.size();
    StopCoalescer coal;
    while (remaining > 0) {
        int pick = pickAvailable(done);
        if (pick < 0) {
            STEP_FLUSH(out_.ch, coal);
            waitScratch_.clear();
            for (size_t i = 0; i < ins_.size(); ++i)
                if (!done[i])
                    waitScratch_.push_back(ins_[i].ch);
            // Named awaiter: GCC 12 mis-destroys temporary awaiter
            // objects with non-trivial members (double free).
            dam::WaitAny any_waiter{waitScratch_, *this};
            co_await any_waiter;
            continue;
        }
        // Let producers with earlier clocks act first so "arrival order"
        // approximates hardware availability.
        dam::Cycle avail =
            ins_[static_cast<size_t>(pick)].ch->frontTime();
        std::optional<dam::Cycle> other = scheduler()->minReadyClock(this);
        if (other && *other < avail) {
            // One time-indexed suspension until simulated time catches
            // up to the candidate's availability. Anything pushed in the
            // meantime is visible at the re-pick after the deadline pop.
            dam::WaitUntil until_waiter{*this, avail};
            co_await until_waiter;
            continue;
        }
        auto pi = static_cast<size_t>(pick);
        if (ins_[pi].ch->frontToken().isDone()) {
            co_await ins_[pi].ch->read(*this);
            done[pi] = true;
            --remaining;
            continue;
        }
        // One chunk from the picked input.
        STEP_EMIT_RAW(selOut_.ch, Token::data(
            Selector::oneHot(static_cast<uint32_t>(pick))));
        if (b == 0) {
            Token t = co_await ins_[pi].ch->read(*this);
            busyAdvance(routeCost(
                t, graph_.config().onChipBwBytesPerCycle));
            STEP_PASS(out_.ch, coal, std::move(t));
            continue;
        }
        while (true) {
            Token t = co_await ins_[pi].ch->read(*this);
            busyAdvance(routeCost(
                t, graph_.config().onChipBwBytesPerCycle));
            if (t.isData()) {
                STEP_PASS(out_.ch, coal, std::move(t));
            } else if (t.isStop() && t.level() < b) {
                STEP_STOP(out_.ch, coal, t.level());
            } else if (t.isStop()) {
                STEP_STOP(out_.ch, coal, b);
                break;
            } else {
                STEP_STOP(out_.ch, coal, b);
                done[pi] = true;
                --remaining;
                break;
            }
        }
    }
    STEP_PASS(out_.ch, coal, Token::done());
    STEP_EMIT_RAW(selOut_.ch, Token::done());
    co_return;
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

namespace {

/** Round-robin selectors DispatcherOp emits before reading anything. */
int64_t
dispatcherPriming(size_t regions, uint64_t total)
{
    return static_cast<int64_t>(std::min<uint64_t>(regions, total));
}

} // namespace

DispatcherOp::DispatcherOp(Graph& g, const std::string& name,
                           StreamPort completions, size_t regions,
                           uint64_t total, Dim extent)
    : OpBase(g, name), completions_(completions), regions_(regions),
      total_(total)
{
    bindInput(completions_);
    bindOutput(out_, name + ".out", StreamShape({std::move(extent)}),
               DataType::selector(static_cast<int64_t>(regions)),
               std::max<size_t>(16, 2 * regions),
               dispatcherPriming(regions, total));
}

void
DispatcherOp::setTotal(uint64_t total)
{
    const Dim& extent = out_.shape.outer(0);
    STEP_ASSERT(!extent.isStatic() ||
                extent.size.equals(static_cast<int64_t>(total)),
                name() << " declares the static extent "
                       << extent.toString() << "; rebuild it to change "
                       << "its total to " << total);
    total_ = total;
    setPriming(out_, dispatcherPriming(regions_, total_));
}

dam::SimTask
DispatcherOp::run()
{
    uint64_t issued = 0;
    // Initial round-robin fill (the FlatMap of Figure 16).
    for (size_t r = 0; r < regions_ && issued < total_; ++r, ++issued) {
        busyAdvance(1);
        STEP_EMIT_RAW(out_.ch, Token::data(
            Selector::oneHot(static_cast<uint32_t>(r))));
    }
    // Every completion frees a slot in its region.
    bool comp_done = false;
    while (issued < total_) {
        Token t = co_await completions_.ch->read(*this);
        if (t.isDone()) {
            comp_done = true;
            break;
        }
        if (!t.isData())
            continue;
        ++issued;
        busyAdvance(1);
        STEP_EMIT_RAW(out_.ch, Token::data(t.takeValue()));
    }
    // Emit Done immediately so downstream termination doesn't wait on
    // the trailing completions (which depend on downstream finishing).
    STEP_EMIT_RAW(out_.ch, Token::done());
    while (!comp_done) {
        Token t = co_await completions_.ch->read(*this);
        comp_done = t.isDone();
    }
    co_return;
}

} // namespace step
