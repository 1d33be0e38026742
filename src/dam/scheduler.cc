#include "dam/scheduler.hh"

#include <sstream>

#include "dam/channel.hh"
#include "obs/sink.hh"
#include "support/error.hh"

namespace step::dam {

void
Scheduler::add(Context* ctx)
{
    STEP_ASSERT(ctx->state_ == CtxState::NotStarted,
                "context " << ctx->name() << " registered twice");
    ctx->sched_ = this;
    ctx->id_ = static_cast<uint32_t>(contexts_.size());
    contexts_.push_back(ctx);
    pos_.push_back(kNotQueued);
}

Context*
Scheduler::popMin()
{
    STEP_ASSERT(!heap_.empty(), "popMin on empty ready heap");
    const uint32_t id = heap_.front().id;
    pos_[id] = kNotQueued;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_.front() = last;
        siftDown(0);
    }
    return contexts_[id];
}

void
Scheduler::suspendUntil(Context* ctx, Cycle t)
{
    STEP_ASSERT(ctx->state_ == CtxState::Running,
                "suspendUntil from non-running context");
    ctx->state_ = CtxState::Blocked;
    ctx->block_ = BlockInfo{BlockInfo::Kind::TimedWait, nullptr, 0};
    enqueueAt(ctx, t);
}

std::optional<Cycle>
Scheduler::minReadyClock(const Context* self) const
{
    if (sweeping()) {
        STEP_ASSERT(startQueue_[startHead_] != self->id_,
                    "minReadyClock caller is on the start queue");
        return Cycle{0};
    }
    if (heap_.empty())
        return std::nullopt;
    STEP_ASSERT(heap_.front().id != self->id_,
                "minReadyClock caller is in the ready heap");
    return heap_.front().time;
}

void
Scheduler::start()
{
    finished_ = 0;
    heap_.reserve(contexts_.size());
    startQueue_.clear();
    startQueue_.reserve(contexts_.size());
    startHead_ = 0;
    for (Context* ctx : contexts_) {
        ctx->task_ = ctx->run();
        ctx->state_ = CtxState::Ready;
        if (ctx->now() == 0)
            startQueue_.push_back(ctx->id_);
        else
            enqueue(ctx);
    }
}

void
Scheduler::drain()
{
    while (finished_ < contexts_.size()) {
        // The head key is the scheduler's virtual time: it never runs
        // backwards (wakes and timed waits always re-key at or after
        // the current head), so it is the monotone stamp tracing wants.
        Cycle vnow = 0;
        Context* ctx = nullptr;
        if (sweeping()) {
            // Initial sweep: key (0, start order), ahead of the heap.
            ctx = contexts_[startQueue_[startHead_++]];
        } else {
            if (heap_.empty())
                stepFatal("simulation deadlock:\n" << deadlockReport());
            vnow = heap_.front().time;
            ctx = popMin();
        }
        if (ctx->state_ == CtxState::Blocked) {
            // Timed-wait deadline reached: every other ready context's
            // key is at or past it, so the waiter proceeds.
            STEP_ASSERT(ctx->block_.kind == BlockInfo::Kind::TimedWait,
                        "blocked context " << ctx->name()
                        << " in ready heap");
            ctx->state_ = CtxState::Ready;
            ctx->block_ = BlockInfo{};
        }
        STEP_ASSERT(ctx->state_ == CtxState::Ready,
                    "non-ready context " << ctx->name()
                    << " in ready heap");
        ctx->state_ = CtxState::Running;
        ++switches_;
#ifdef STEP_SWITCH_TRACE
        extern void stepSwitchTraceHook(const char*);
        stepSwitchTraceHook(ctx->name().c_str());
#endif
        if (trace_) [[unlikely]]
            trace_->schedResume(ctx, ctx->name(), vnow);
        ctx->task_.resume();
        if (ctx->task_.done()) {
            if (auto ex = ctx->task_.exception())
                std::rethrow_exception(ex);
            ctx->state_ = CtxState::Finished;
            ++finished_;
            if (trace_) [[unlikely]]
                trace_->schedFinish(ctx, ctx->name(), ctx->now());
        } else if (ctx->state_ == CtxState::Running) {
            // Suspended without blocking (shouldn't happen: every
            // suspension point marks Blocked).
            stepPanic("context " << ctx->name()
                      << " suspended in Running state");
        } else if (trace_) [[unlikely]] {
            // Blocked (read/write/select/timed-wait); the block record
            // is still intact.
            trace_->schedSuspend(ctx, std::max(vnow, ctx->now()),
                                 static_cast<uint8_t>(ctx->block_.kind),
                                 ctx->block_.ch);
        }
    }
}

void
Scheduler::run()
{
    start();
    drain();
}

void
Scheduler::reset()
{
    // Deliberately no per-context bookkeeping: after an abnormal run
    // (deadlock throw) the caller may have destroyed the contexts still
    // sitting in the heap, so their pointers must not be dereferenced.
    // Heap slots live in pos_, indexed by the ids add() hands out, so
    // dropping the heap, the slot map and the start queue wholesale is
    // safe.
    contexts_.clear();
    heap_.clear();
    pos_.clear();
    startQueue_.clear();
    startHead_ = 0;
    seq_ = 0;
    finished_ = 0;
    switches_ = 0;
}

Cycle
Scheduler::elapsed() const
{
    Cycle t = 0;
    for (const Context* c : contexts_)
        t = std::max(t, c->now());
    return t;
}

std::string
Scheduler::deadlockReport() const
{
    std::ostringstream os;
    for (const Context* c : contexts_) {
        if (c->state_ != CtxState::Finished) {
            os << "  [" << c->name() << "] t=" << c->now()
               << " blocked on " << c->block_.toString() << "\n";
        }
    }
    return os.str();
}

} // namespace step::dam
