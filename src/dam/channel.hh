/**
 * @file
 * Timestamped bounded FIFO channel between two contexts.
 *
 * Semantics (credit-based backpressure, as in latency-insensitive /
 * DAM-style simulation):
 *  - The channel starts with `capacity` credits at time 0.
 *  - send: the writer consumes the earliest credit; its clock advances to
 *    the credit's availability (stall-until-space), and the token becomes
 *    visible to the reader at writer_clock + latency.
 *  - recv: the reader's clock advances to the token's ready time; a new
 *    credit is released at the reader's clock.
 *
 * Channels are single-producer single-consumer; fan-out is an explicit
 * Broadcast operator, as on real SDA fabrics.
 *
 * The hot path (push/pop/suspend) performs no heap allocation: entry and
 * credit storage are rings that grow to the occupancy high-water mark,
 * and blocking records a tagged BlockInfo instead of formatting a
 * string. Entry slots are raw storage: push relocates the writer's token
 * into a dead slot, leaving the writer's copy a husk (see HuskTag), or
 * copies an lvalue token there, and pop relocates it out bytewise,
 * leaving the slot dead. A hop therefore costs two relocations and
 * never empties or releases a shell. Tokens still queued when the
 * channel is rearmed, re-initialized or destroyed are destroyed there.
 */
#pragma once

#include <coroutine>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/token.hh"
#include "dam/context.hh"
#include "support/ring.hh"

namespace step::dam {

class Scheduler;

class Channel
{
  public:
    /**
     * @param name     diagnostic label
     * @param capacity max in-flight tokens (hardware FIFO depth)
     * @param latency  cycles from send to visibility
     */
    explicit Channel(std::string name, size_t capacity = 8,
                     Cycle latency = 1);

    /**
     * Re-initialize a pooled channel for reuse in a recycled graph:
     * equivalent to destroying and re-constructing, but keeps the name
     * and ring storage capacity so steady-state graph rebuilds do not
     * allocate (see Graph::recycle()).
     */
    void reinit(std::string_view name, size_t capacity, Cycle latency);

    /**
     * Reset run-time dynamics only — FIFO contents, credits, waiter
     * registrations, push count — and set the FIFO depth to
     * @p capacity, while keeping the name, latency, and
     * producer/consumer bindings. Used by Graph::rearm() to re-run a
     * structurally unchanged graph without rebuilding it: depth is a
     * rearm payload (it scales with the batch), latency is structural.
     */
    void rearm(size_t capacity);

    const std::string& name() const { return name_; }
    size_t capacity() const { return capacity_; }
    Cycle latency() const { return latency_; }

    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    bool
    hasCredit() const
    {
        return initCredits_ > 0 || !credits_.empty();
    }

    /** Ready time of the head token; requires !empty(). */
    Cycle frontTime() const;
    /** Head token without consuming; requires !empty(). */
    const Token& frontToken() const;

    /** Endpoints, bound through Context::bindProducer/bindConsumer. */
    Context* producer() const { return producer_; }
    Context* consumer() const { return consumer_; }

    // ---- coroutine interface ------------------------------------------

    struct ReadAwaiter
    {
        Channel& ch;
        Context& reader;

        bool await_ready() const { return !ch.empty(); }
        void await_suspend(std::coroutine_handle<>) const;
        Token await_resume() const { return ch.pop(reader); }
    };

    /**
     * Rvalue write path: views the caller's token instead of moving it
     * into the awaiter. A temporary in a co_await expression lives in
     * the coroutine frame until the expression completes (across
     * suspension), so the pointer stays valid and the steady-state write
     * costs exactly one relocation (into the FIFO slot). The caller's
     * token is a husk afterwards: it may be destroyed or assigned to,
     * not read.
     */
    struct WriteAwaiter
    {
        Channel& ch;
        Context& writer;
        Token* tok;
        Cycle minReady = 0;

        bool await_ready() const { return ch.hasCredit(); }
        void await_suspend(std::coroutine_handle<>) const;
        void await_resume() { ch.push(writer, minReady, husk, *tok); }
    };

    /**
     * Lvalue write path (Broadcast re-emits one token): views the
     * caller's token like WriteAwaiter and copies it straight into the
     * FIFO slot, so the token must not change until the write
     * completes. Coroutine locals qualify: their coroutine is the one
     * suspended.
     */
    struct WriteCopyAwaiter
    {
        Channel& ch;
        Context& writer;
        const Token* tok;
        Cycle minReady = 0;

        bool await_ready() const { return ch.hasCredit(); }
        void await_suspend(std::coroutine_handle<>) const;
        void await_resume() { ch.push(writer, minReady, *tok); }
    };

    /** co_await ch.read(self) -> Token. */
    ReadAwaiter read(Context& reader) { return ReadAwaiter{*this, reader}; }

    /** co_await ch.write(self, token). */
    WriteAwaiter
    write(Context& writer, Token&& t)
    {
        return WriteAwaiter{*this, writer, &t};
    }
    WriteCopyAwaiter
    write(Context& writer, const Token& t)
    {
        return WriteCopyAwaiter{*this, writer, &t};
    }

    /**
     * co_await ch.writeAt(self, token, t): like write but the token
     * becomes visible no earlier than @p min_ready (e.g. a DRAM
     * completion time) — models pipelined units with in-flight requests.
     */
    WriteAwaiter
    writeAt(Context& writer, Token&& t, Cycle min_ready)
    {
        return WriteAwaiter{*this, writer, &t, min_ready};
    }
    WriteCopyAwaiter
    writeAt(Context& writer, const Token& t, Cycle min_ready)
    {
        return WriteCopyAwaiter{*this, writer, &t, min_ready};
    }

    /** Register/unregister a multi-channel waiter (see WaitAny). */
    void setWaitingReader(Context* c) { waitingReader_ = c; }

    /** Total tokens ever pushed (stats). */
    uint64_t totalPushed() const { return totalPushed_; }

  private:
    friend class Context;
    friend struct ReadAwaiter;
    friend struct WriteAwaiter;
    friend struct WriteCopyAwaiter;

    // Defined inline below, so the compiler may inline them; g++ 12 at
    // -O3 keeps both out of line in the operator coroutines, and forcing
    // them inline (always_inline) measured slower on the serving
    // benchmarks: the larger coroutine bodies cost more than the calls.
    // push builds the FIFO slot's token from @p tok: (husk, t) relocates
    // t and leaves it a husk, (t) copies a const token.
    template <typename... TokArgs>
    void push(Context& writer, Cycle min_ready, TokArgs&&... tok);
    Token pop(Context& reader);

    std::string name_;
    size_t capacity_;
    Cycle latency_;

    struct Entry
    {
        template <typename... TokArgs>
        Entry(Cycle r, TokArgs&&... t) noexcept
            : ready(r), tok(std::forward<TokArgs>(t)...)
        {}

        Cycle ready;
        Token tok;
    };
    // entries + credits (incl. implicit ones) == capacity at all times.
    // Rings grow lazily to the occupancy high-water mark: construction
    // touches nothing, and steady-state push/pop never reallocates.
    // The `capacity` initial credits (all available at t=0) are
    // represented by a plain counter instead of materialized ring
    // slots, so building a deep FIFO is O(1).
    Ring<Entry> entries_;
    Ring<Cycle> credits_;
    size_t initCredits_;
    /** Ready time of the most recently pushed token (monotone). */
    Cycle lastReady_ = 0;

    Context* producer_ = nullptr;
    Context* consumer_ = nullptr;
    Context* waitingReader_ = nullptr;
    Context* waitingWriter_ = nullptr;
    uint64_t totalPushed_ = 0;
};

/**
 * Awaitable that suspends until at least one of the given channels is
 * non-empty. Used by EagerMerge-style operators; the caller re-inspects
 * heads after resuming.
 *
 * Views the caller's channel list (no copy): the viewed sequence must
 * outlive the co_await, which holds for coroutine locals and operator
 * members. Select-heavy operators keep a member scratch vector so
 * re-blocking allocates nothing.
 */
struct WaitAny
{
    std::span<Channel* const> chans;
    Context& self;

    bool
    await_ready() const
    {
        for (const Channel* c : chans)
            if (!c->empty())
                return true;
        return false;
    }

    void await_suspend(std::coroutine_handle<>) const;

    void
    await_resume() const
    {
        for (Channel* c : chans)
            c->setWaitingReader(nullptr);
    }
};

/**
 * Timed wait: suspends until simulated time reaches @p deadline. The
 * context parks in the scheduler's ready queue keyed at the deadline, so
 * it resumes exactly when no other runnable context is earlier.
 * Availability-ordered merges wait out arrival races with it in one
 * suspension.
 */
struct WaitUntil
{
    Context& self;
    Cycle deadline;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<>) const;
    void await_resume() const {}
};

} // namespace step::dam

// ---- hot-path inline definitions --------------------------------------
// push/pop and the blocking hooks are defined here, after Scheduler is
// visible. Being inline lets the small hooks inline into the awaiters;
// push/pop stay out-of-line calls in optimized builds (see push).

#include "dam/scheduler.hh"

namespace step::dam {

inline void
Context::bindProducer(Channel& ch)
{
    ch.producer_ = this;
}

inline void
Context::bindConsumer(Channel& ch)
{
    ch.consumer_ = this;
}

template <typename... TokArgs>
inline void
Channel::push(Context& writer, Cycle min_ready, TokArgs&&... tok)
{
    STEP_ASSERT(hasCredit(), "push without credit on " << name_);
    // The implicit t=0 credits sit at the front of the credit FIFO:
    // consume them before any credit released by a pop.
    Cycle credit = 0;
    if (initCredits_ > 0) {
        --initCredits_;
    } else {
        credit = credits_.front();
        credits_.pop_front();
    }
    writer.advanceTo(credit);
    Cycle ready = std::max(writer.now() + latency_, min_ready);
    // FIFO ordering: a token can never become ready before a
    // predecessor still in the queue (lastReady_ mirrors the tail's
    // ready time and is zeroed when the queue drains, matching a clamp
    // against back().ready exactly).
    ready = std::max(ready, lastReady_);
    lastReady_ = ready;
    entries_.emplace_back(ready, std::forward<TokArgs>(tok)...);
    ++totalPushed_;
    if (waitingReader_) {
        Context* r = waitingReader_;
        waitingReader_ = nullptr;
        // Wake at the token's ready time: the reader joins to it on
        // pop anyway, and parking it lets this writer finish its burst
        // so the reader drains it in one resume.
        writer.scheduler()->makeReadyAt(r, ready);
    }
}

inline Token
Channel::pop(Context& reader)
{
    STEP_ASSERT(!entries_.empty(), "pop on empty channel " << name_);
    Entry& e = entries_.front();
    reader.advanceTo(e.ready);
    Token out(relocate, e.tok); // the slot is dead from here on
    entries_.pop_front_relocated();
    if (entries_.empty())
        lastReady_ = 0;
    credits_.push_back(reader.now());
    if (waitingWriter_) {
        Context* w = waitingWriter_;
        waitingWriter_ = nullptr;
        // Wake at the released credit's time (the writer's clock joins
        // to it on push), mirroring the reader-side batching wake.
        reader.scheduler()->makeReadyAt(w, reader.now());
    }
    return out;
}

inline void
Channel::ReadAwaiter::await_suspend(std::coroutine_handle<>) const
{
    ch.waitingReader_ = &reader;
    reader.state_ = CtxState::Blocked;
    reader.block_ = BlockInfo{BlockInfo::Kind::Read, &ch, 0};
}

inline void
Channel::WriteAwaiter::await_suspend(std::coroutine_handle<>) const
{
    ch.waitingWriter_ = &writer;
    writer.state_ = CtxState::Blocked;
    writer.block_ = BlockInfo{BlockInfo::Kind::Write, &ch, 0};
}

inline void
Channel::WriteCopyAwaiter::await_suspend(std::coroutine_handle<>) const
{
    ch.waitingWriter_ = &writer;
    writer.state_ = CtxState::Blocked;
    writer.block_ = BlockInfo{BlockInfo::Kind::Write, &ch, 0};
}

} // namespace step::dam
