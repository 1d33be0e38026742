/**
 * @file
 * Cooperative scheduler for simulation contexts. Resumes the runnable
 * context with the smallest local clock, which keeps context clocks close
 * together (important for shared-resource contention modeling and for
 * availability-ordered merges) and makes runs deterministic.
 *
 * The ready queue is an index-tracking 4-ary min-heap over (time, seq)
 * keys. Entries carry the context's dense index, and a scheduler-owned
 * array maps each index to its heap slot, so there are never stale
 * entries, re-keying is O(log n), sifts touch only the heap and that
 * array (never the scattered Context objects), and the minimum ready
 * clock is an O(1) root read. Keys are unique, so any correct priority
 * queue over them pops the same sequence: the arity is a host-cost
 * choice, not a semantic one.
 *
 * The initial sweep bypasses the heap: start() puts every context whose
 * clock is 0 on a start queue, resumed in start order. Their keys
 * (0, start order) precede every key the heap can hold (anything
 * enqueued later draws a larger seq, and a context started with a
 * nonzero clock sorts after time 0), so serving the start queue first
 * pops exactly the sequence one heap would.
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

    /**
     * Time-indexed suspension: park the running context in the ready
     * heap keyed at cycle @p t instead of its own clock. It is resumed
     * exactly when no other ready context has an earlier key — i.e.
     * once simulated time has caught up to @p t — or earlier, if
     * makeReadyAt re-keys it to an earlier time first. The
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

    /**
     * Earliest next-resume key in the ready queue (start queue first,
     * then heap), or nullopt when both are empty. This is NOT
     * necessarily any context's clock: the
     * heap also holds timed waiters keyed at their deadlines
     * (suspendUntil) and contexts parked at the token-ready/credit
     * time that woke them (makeReadyAt), so the value is "no runnable
     * context can act before this cycle". Meaningful from a running
     * context (which is never queued), so @p self never shadows the
     * result; the parameter is asserted against the head defensively.
     */
    std::optional<Cycle> minReadyClock(const Context* self) const;

  private:
    static constexpr uint32_t kNotQueued = ~uint32_t{0};
    static constexpr size_t kArity = 4;

    void enqueue(Context* ctx);
    void enqueueAt(Context* ctx, Cycle t);
    Context* popMin();
    void siftUp(size_t i);
    void siftDown(size_t i);
    bool sweeping() const { return startHead_ < startQueue_.size(); }
    std::string deadlockReport() const;

    struct HeapEntry
    {
        Cycle time;
        uint64_t seq;
        uint32_t id; ///< Context::id_, an index into contexts_ and pos_
        bool
        operator<(const HeapEntry& o) const
        {
            return time != o.time ? time < o.time : seq < o.seq;
        }
    };

    void
    place(const HeapEntry& e, size_t i)
    {
        heap_[i] = e;
        pos_[e.id] = static_cast<uint32_t>(i);
    }

    std::vector<Context*> contexts_;
    std::vector<HeapEntry> heap_;
    /** Heap slot of each context, by id; kNotQueued when absent. */
    std::vector<uint32_t> pos_;
    /** Ids of the contexts start() queued at clock 0, in start order;
     *  entries before startHead_ have been resumed. */
    std::vector<uint32_t> startQueue_;
    size_t startHead_ = 0;
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
    const HeapEntry e = heap_[i];
    while (i > 0) {
        size_t parent = (i - 1) / kArity;
        if (!(e < heap_[parent]))
            break;
        place(heap_[parent], i);
        i = parent;
    }
    place(e, i);
}

inline void
Scheduler::siftDown(size_t i)
{
    const HeapEntry e = heap_[i];
    const size_t n = heap_.size();
    while (true) {
        size_t first = kArity * i + 1;
        if (first >= n)
            break;
        size_t last = std::min(first + kArity, n);
        size_t best = first;
        for (size_t c = first + 1; c < last; ++c)
            if (heap_[c] < heap_[best])
                best = c;
        if (!(heap_[best] < e))
            break;
        place(heap_[best], i);
        i = best;
    }
    place(e, i);
}

inline void
Scheduler::enqueueAt(Context* ctx, Cycle t)
{
    const uint32_t p = pos_[ctx->id_];
    if (p != kNotQueued) {
        // Re-key in place: makeReadyAt pulls a timed waiter's key down
        // from its deadline.
        heap_[p].time = t;
        heap_[p].seq = seq_++;
        siftUp(p);
        siftDown(pos_[ctx->id_]);
        return;
    }
    heap_.push_back(HeapEntry{t, seq_++, ctx->id_});
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
    // Only Blocked contexts wake: a context still on the start queue is
    // Ready, so waking it is a no-op, as it was when it sat in the heap.
    if (ctx->state_ == CtxState::Blocked) {
        ctx->state_ = CtxState::Ready;
        ctx->block_ = BlockInfo{};
        if (t < ctx->now())
            t = ctx->now();
        const uint32_t p = pos_[ctx->id_];
        if (p != kNotQueued) {
            // A timed waiter woken before its deadline: pull its heap
            // key down when the wake time is earlier than the
            // remaining deadline.
            if (t < heap_[p].time)
                enqueueAt(ctx, t);
            return;
        }
        enqueueAt(ctx, t);
    }
}

} // namespace step::dam
