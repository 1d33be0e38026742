/**
 * @file
 * Cooperative scheduler for simulation contexts. Resumes the runnable
 * context with the smallest local clock, which keeps context clocks close
 * together (important for shared-resource contention modeling and for
 * availability-ordered merges) and makes runs deterministic.
 *
 * The ready queue is an index-tracking binary min-heap: each context
 * records its heap slot, so there are never stale entries, re-keying is
 * O(log n), and the minimum ready clock is an O(1) root read instead of
 * an O(n) scan.
 */
#pragma once

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

    /** Wake a blocked context (channel push/pop side effects). */
    void makeReady(Context* ctx);

    /**
     * Wake a blocked context but park it in the ready heap no earlier
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

    /** Requeue the currently running context (used by Yield). */
    void yieldRunning(Context* ctx);

    /**
     * Time-indexed suspension: park the running context in the ready
     * heap keyed at cycle @p t instead of its own clock. It is resumed
     * exactly when no other ready context has an earlier key — i.e.
     * once simulated time has caught up to @p t — or earlier, if a
     * channel wake (makeReady) re-keys it to its own clock first. The
     * context is marked Blocked with a TimedWait record so drain() can
     * tell a timer expiry from a corrupted heap. This is the primitive
     * behind WaitUntil.
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
    obs::TraceSink* traceSink() const { return trace_; }

    /**
     * Earliest next-resume key in the ready heap, or nullopt when the
     * heap is empty. This is NOT necessarily any context's clock: the
     * heap also holds timed waiters keyed at their deadlines
     * (suspendUntil) and contexts parked at the token-ready/credit
     * time that woke them (makeReadyAt), so the value is "no runnable
     * context can act before this cycle". Meaningful from a running
     * context (which is never in the ready heap), so @p self never
     * shadows the result; the parameter is asserted against the root
     * defensively.
     */
    std::optional<Cycle> minReadyClock(const Context* self) const;

    size_t numContexts() const { return contexts_.size(); }

  private:
    void enqueue(Context* ctx);
    void enqueueAt(Context* ctx, Cycle t);
    Context* popMin();
    void siftUp(size_t i);
    void siftDown(size_t i);
    std::string deadlockReport() const;

    struct HeapEntry
    {
        Cycle time;
        uint64_t seq;
        Context* ctx;
        bool
        operator<(const HeapEntry& o) const
        {
            return time != o.time ? time < o.time : seq < o.seq;
        }
    };

    std::vector<Context*> contexts_;
    std::vector<HeapEntry> heap_;
    uint64_t seq_ = 0;
    size_t finished_ = 0;
    uint64_t switches_ = 0;
    obs::TraceSink* trace_ = nullptr;
};

// ---- hot-path inline definitions --------------------------------------
// makeReady runs on every channel wake; keep it and the heap primitives
// header-inline so the wake path costs a few stores plus a sift.

inline void
Scheduler::siftUp(size_t i)
{
    HeapEntry e = heap_[i];
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!(e < heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_[i].ctx->heapPos_ = i;
        i = parent;
    }
    heap_[i] = e;
    e.ctx->heapPos_ = i;
}

inline void
Scheduler::siftDown(size_t i)
{
    HeapEntry e = heap_[i];
    const size_t n = heap_.size();
    while (true) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1] < heap_[child])
            ++child;
        if (!(heap_[child] < e))
            break;
        heap_[i] = heap_[child];
        heap_[i].ctx->heapPos_ = i;
        i = child;
    }
    heap_[i] = e;
    e.ctx->heapPos_ = i;
}

inline void
Scheduler::enqueueAt(Context* ctx, Cycle t)
{
    if (ctx->heapPos_ != Context::kNotQueued) {
        // Re-key in place. Live path: a channel wake re-keys a timed
        // waiter from its deadline down to its own clock.
        size_t i = ctx->heapPos_;
        heap_[i].time = t;
        heap_[i].seq = seq_++;
        siftUp(i);
        siftDown(ctx->heapPos_);
        return;
    }
    heap_.push_back(HeapEntry{t, seq_++, ctx});
    siftUp(heap_.size() - 1);
}

inline void
Scheduler::enqueue(Context* ctx)
{
    enqueueAt(ctx, ctx->now());
}

inline void
Scheduler::makeReady(Context* ctx)
{
    makeReadyAt(ctx, ctx->now());
}

inline void
Scheduler::makeReadyAt(Context* ctx, Cycle t)
{
    if (ctx->state_ == CtxState::Blocked) {
        ctx->state_ = CtxState::Ready;
        ctx->block_ = BlockInfo{};
        if (t < ctx->now())
            t = ctx->now();
        if (ctx->heapPos_ != Context::kNotQueued) {
            // A timed waiter woken by channel activity: pull its heap
            // key down when the wake time is earlier than the
            // remaining deadline, so the new input is considered as
            // soon as the waiter would naturally run.
            if (t < heap_[ctx->heapPos_].time)
                enqueueAt(ctx, t);
            return;
        }
        enqueueAt(ctx, t);
    }
}

} // namespace step::dam
