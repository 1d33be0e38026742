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
 * credit storage are rings sized to the FIFO depth at construction, and
 * blocking records a tagged BlockInfo instead of formatting a string.
 */
#pragma once

#include <coroutine>
#include <span>
#include <string>
#include <string_view>
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
     * costs exactly one token move (into the FIFO slot).
     */
    struct WriteAwaiter
    {
        Channel& ch;
        Context& writer;
        Token* tok;
        Cycle minReady = 0;

        bool await_ready() const { return ch.hasCredit(); }
        void await_suspend(std::coroutine_handle<>) const;
        void await_resume() { ch.push(writer, std::move(*tok), minReady); }
    };

    /** Lvalue write path: owns a copy (Broadcast re-emits one token). */
    struct WriteCopyAwaiter
    {
        Channel& ch;
        Context& writer;
        Token tok;
        Cycle minReady = 0;

        bool await_ready() const { return ch.hasCredit(); }
        void await_suspend(std::coroutine_handle<>) const;
        void await_resume() { ch.push(writer, std::move(tok), minReady); }
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
        return WriteCopyAwaiter{*this, writer, t};
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
        return WriteCopyAwaiter{*this, writer, t, min_ready};
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

    // Inline (header) definitions: push/pop run once per simulated
    // token and must inline into the operator coroutines.
    void push(Context& writer, Token&& t, Cycle min_ready = 0);
    Token pop(Context& reader);

    std::string name_;
    size_t capacity_;
    Cycle latency_;

    struct Entry
    {
        Cycle ready = 0;
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
 * Timed wait with channel wake: suspends until simulated time reaches
 * @p deadline — the context parks in the scheduler's ready heap keyed at
 * the deadline, so it resumes exactly when no other runnable context is
 * earlier — or until any of the given channels receives a token,
 * whichever the deterministic heap order reaches first. Availability-
 * ordered merges wait out arrival races with it in one suspension.
 *
 * Like WaitAny, the channel list is viewed, not copied, and must
 * outlive the co_await (operator members and coroutine locals qualify).
 * The list may be empty for a pure timer.
 */
struct WaitUntil
{
    std::span<Channel* const> chans;
    Context& self;
    Cycle deadline;

    bool
    await_ready() const
    {
        // A token already visible on a listed channel satisfies the
        // wait immediately (mirrors WaitAny); an empty list is a pure
        // timer.
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

/** Reschedules the context, letting lower-clock contexts run first. */
struct Yield
{
    Context& self;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<>) const;
    void await_resume() const {}
};

} // namespace step::dam

// ---- hot-path inline definitions --------------------------------------
// push/pop and the blocking hooks are defined here (after Scheduler is
// visible) so the per-token path fully inlines into operator bodies.

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

inline void
Channel::push(Context& writer, Token&& t, Cycle min_ready)
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
    Entry& slot = entries_.push_slot();
    slot.ready = ready;
    slot.tok = std::move(t);
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
    Token out = std::move(e.tok);
    entries_.pop_front();
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
