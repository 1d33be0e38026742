#include "dam/scheduler.hh"

#include <algorithm>
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

void
Scheduler::insertBehindHead(const ReadyEntry& e)
{
    if (ready_.size() == ready_.capacity() && head_ > 0) {
        // Out of room at the tail: move the live entries down over the
        // popped ones rather than reallocate.
        ready_.erase(ready_.begin(), ready_.begin() + head_);
        head_ = 0;
    }
    // The new seq is the largest, so e goes behind every entry whose
    // time is not later than its own.
    size_t i = ready_.size();
    ready_.push_back(e);
    while (i > head_ && ready_[i - 1].time > e.time) {
        ready_[i] = ready_[i - 1];
        --i;
    }
    ready_[i] = e;
}

void
Scheduler::wakeTimedWaiter(Context* ctx, Cycle t)
{
    ctx->state_ = CtxState::Ready;
    ctx->block_ = BlockInfo{};
    // A timed waiter is already queued at its deadline: pull its key
    // down when the wake time is earlier.
    auto it = std::find_if(ready_.begin() + head_, ready_.end(),
                           [&](const ReadyEntry& q) {
                               return q.id == ctx->id_;
                           });
    STEP_ASSERT(it != ready_.end(),
                "timed waiter " << ctx->name() << " not in ready queue");
    if (t < it->time) {
        ready_.erase(it);
        enqueueAt(ctx, t);
    }
}

std::optional<Cycle>
Scheduler::minReadyClock(const Context* self) const
{
    if (head_ == ready_.size())
        return std::nullopt;
    STEP_ASSERT(ready_[head_].id != self->id_,
                "minReadyClock caller is in the ready queue");
    return ready_[head_].time;
}

void
Scheduler::start()
{
    finished_ = 0;
    // Each context is queued at most once, so twice that many slots
    // leave room for at least as many tail pushes between compactions.
    ready_.reserve(2 * contexts_.size());
    for (Context* ctx : contexts_) {
        ctx->task_ = ctx->run();
        ctx->state_ = CtxState::Ready;
        enqueueAt(ctx, ctx->now());
    }
}

void
Scheduler::drain()
{
    while (finished_ < contexts_.size()) {
        // The head key is the scheduler's virtual time: it never runs
        // backwards (wakes and timed waits always re-key at or after
        // the current head), so it is the monotone stamp tracing wants.
        if (head_ == ready_.size())
            stepFatal("simulation deadlock:\n" << deadlockReport());
        const Cycle vnow = ready_[head_].time;
        Context* ctx = contexts_[ready_[head_++].id];
        if (ctx->state_ == CtxState::Blocked) {
            // Timed-wait deadline reached: every other ready context's
            // key is at or past it, so the waiter proceeds.
            STEP_ASSERT(ctx->block_.kind == BlockInfo::Kind::TimedWait,
                        "blocked context " << ctx->name()
                        << " in ready queue");
            ctx->state_ = CtxState::Ready;
            ctx->block_ = BlockInfo{};
        }
        STEP_ASSERT(ctx->state_ == CtxState::Ready,
                    "non-ready context " << ctx->name()
                    << " in ready queue");
        ctx->state_ = CtxState::Running;
        ++switches_;
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
    // sitting in the ready queue, so their pointers must not be
    // dereferenced. Queue entries hold only ids, so dropping the queue
    // wholesale is safe.
    contexts_.clear();
    ready_.clear();
    head_ = 0;
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
