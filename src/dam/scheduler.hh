/**
 * @file
 * Cooperative scheduler for simulation contexts. Resumes the runnable
 * context with the smallest local clock, which keeps context clocks close
 * together (important for shared-resource contention modeling and for
 * availability-ordered merges) and makes runs deterministic.
 *
 * The ready queue is one vector of (time, seq, id) entries kept sorted
 * by (time, seq) and consumed from a head index. Keys are unique, so
 * any correct priority queue over them pops the same sequence; a sorted
 * vector suits the queue the simulator actually runs (under ten live
 * entries on average in a serving iteration), where a push lands a few
 * entries from the tail or right at the head. A new key draws the
 * largest seq, so it goes behind every entry of an equal time: a push
 * ahead of the head fills the slot the last pop freed, any other push
 * scans back from the tail. start() enqueues every context in start
 * order, so the clock-0 contexts form the initial sweep at the front.
 * The minimum ready clock is an O(1) head read.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dam/context.hh"

namespace step::obs {
class TraceSink;
}

namespace step::dam {

class Scheduler
{
  public:
    Scheduler() = default;

    /** Register a context. The scheduler does not take ownership. */
    void add(Context* ctx);

    /**
     * Run until every context finishes. Throws FatalError with a blocked-
     * context report on deadlock, and PanicError if a context body threw.
     * Equivalent to start() followed by drain().
     */
    void run();

    /**
     * Create every context's coroutine and mark it ready, without
     * executing any event. Splitting start from drain lets callers (e.g.
     * the allocation-counting benches) measure the steady-state event
     * loop separately from coroutine-frame setup.
     */
    void start();

    /** Execute events until every started context finishes. */
    void drain();

    /**
     * Forget all registered contexts so the scheduler can be reused for
     * another simulation (the serving runtime runs one graph per batching
     * iteration through a single engine-owned scheduler). Contexts are
     * not owned and are left untouched.
     */
    void reset();

    /** Makespan: max local clock over all contexts after run(). */
    Cycle elapsed() const;

    /**
     * Wake a blocked context but park it in the ready queue no earlier
     * than cycle @p t (clamped up to the context's own clock). Channels
     * use this to wake a reader at the pushed token's ready time and a
     * writer at the released credit's time: the woken context cannot
     * make progress before @p t anyway (its clock joins to it on
     * pop/push), and keeping it parked lets the other endpoint keep
     * running and batch up work, so the wake costs one resume per burst
     * instead of one per token. Per-context virtual-time traces are
     * unaffected — only the interleaving of resumes changes, and
     * deterministically.
     */
    void makeReadyAt(Context* ctx, Cycle t);

    /**
     * Time-indexed suspension: park the running context in the ready
     * queue keyed at cycle @p t instead of its own clock. It is resumed
     * exactly when no other ready context has an earlier key — i.e.
     * once simulated time has caught up to @p t — or earlier, if
     * makeReadyAt re-keys it to an earlier time first. The
     * context is marked Blocked with a TimedWait record, which is how
     * makeReadyAt knows it is queued and drain() tells a timer expiry
     * from a corrupted queue. This is the primitive behind WaitUntil.
     */
    void suspendUntil(Context* ctx, Cycle t);

    /**
     * Coroutine resumes executed so far (one per context switch into an
     * operator body). Cleared by reset(), so a Graph::run on a reused
     * scheduler reads a per-run count.
     */
    uint64_t contextSwitches() const { return switches_; }

    /**
     * Attach (or detach, with nullptr) a trace sink. When set, drain()
     * reports every resume, suspend, and completion to the sink —
     * per-resume spans, per-op lifetime spans, and switch attribution,
     * depending on the sink's level. Deliberately NOT cleared by
     * reset(): the serving engine resets this scheduler once per
     * batching iteration and the trace must span the whole run. The
     * cost with no sink attached is one predicted branch per event.
     */
    void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }

    /**
     * Earliest next-resume key in the ready queue, or nullopt when it is
     * empty. This is NOT necessarily any context's clock: the queue
     * also holds timed waiters keyed at their deadlines (suspendUntil)
     * and contexts parked at the token-ready/credit time that woke them
     * (makeReadyAt), so the value is "no runnable context can act
     * before this cycle". Meaningful from a running context (which is
     * never queued), so @p self never shadows the result; the
     * parameter is asserted against the head defensively.
     */
    std::optional<Cycle> minReadyClock(const Context* self) const;

  private:
    struct ReadyEntry
    {
        Cycle time;
        uint64_t seq;
        uint32_t id; ///< Context::id_, an index into contexts_
    };

    void enqueueAt(Context* ctx, Cycle t);
    void insertBehindHead(const ReadyEntry& e);
    void wakeTimedWaiter(Context* ctx, Cycle t);
    std::string deadlockReport() const;

    std::vector<Context*> contexts_;
    /** Sorted by (time, seq); entries before head_ have been popped. */
    std::vector<ReadyEntry> ready_;
    size_t head_ = 0;
    uint64_t seq_ = 0;
    size_t finished_ = 0;
    uint64_t switches_ = 0;
    obs::TraceSink* trace_ = nullptr;
};

// ---- hot-path inline definitions --------------------------------------
// makeReadyAt and enqueueAt run on every channel wake; keep them
// header-inline so a wake ahead of every queued key costs a few stores.
// The tail insert and the timed waiter's re-key stay out of line.

inline void
Scheduler::enqueueAt(Context* ctx, Cycle t)
{
    const ReadyEntry e{t, seq_++, ctx->id_};
    if (head_ > 0 && (head_ == ready_.size() || t < ready_[head_].time)) {
        // Ahead of every queued key: take the slot the last pop freed.
        ready_[--head_] = e;
        return;
    }
    insertBehindHead(e);
}

inline void
Scheduler::makeReadyAt(Context* ctx, Cycle t)
{
    // Only Blocked contexts wake: a context still queued from start()
    // is Ready, so waking it is a no-op.
    if (ctx->state_ != CtxState::Blocked)
        return;
    if (t < ctx->now())
        t = ctx->now();
    if (ctx->block_.kind == BlockInfo::Kind::TimedWait) [[unlikely]] {
        wakeTimedWaiter(ctx, t);
        return;
    }
    ctx->state_ = CtxState::Ready;
    ctx->block_ = BlockInfo{};
    enqueueAt(ctx, t);
}

} // namespace step::dam
