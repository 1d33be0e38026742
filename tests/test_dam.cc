/**
 * @file
 * Tests of the coroutine simulation kernel: local-clock semantics,
 * channel latency, credit backpressure, deterministic scheduling, select,
 * deadlock detection, the ready queue's pop order against a reference
 * ordered set, and the lifetime of tokens held in FIFO slots.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dam/channel.hh"
#include "dam/scheduler.hh"
#include "ops/route.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"
#include "support/rng.hh"

#include "helpers.hh"

namespace step::dam {
namespace {

/** Emits n tokens with the given initiation interval. */
class Producer : public Context
{
  public:
    Producer(Channel& ch, int n, Cycle ii)
        : Context("producer"), ch_(ch), n_(n), ii_(ii)
    {}

    SimTask
    run() override
    {
        for (int i = 0; i < n_; ++i) {
            advance(ii_);
            co_await ch_.write(*this, Token::data(test::val(
                static_cast<float>(i))));
        }
        co_await ch_.write(*this, Token::done());
        co_return;
    }

  private:
    Channel& ch_;
    int n_;
    Cycle ii_;
};

/** Consumes everything with the given per-token delay. */
class Consumer : public Context
{
  public:
    Consumer(Channel& ch, Cycle ii) : Context("consumer"), ch_(ch), ii_(ii)
    {}

    SimTask
    run() override
    {
        while (true) {
            Token t = co_await ch_.read(*this);
            if (t.isDone())
                break;
            got.push_back(t.value().tile().at(0, 0));
            advance(ii_);
        }
        co_return;
    }

    std::vector<float> got;

  private:
    Channel& ch_;
    Cycle ii_;
};

TEST(Dam, PipelineTimingProducerBound)
{
    // Producer II=3, consumer II=1: consumer finishes ~ n*3 + latency.
    Channel ch("c", 8, 1);
    Producer p(ch, 10, 3);
    Consumer c(ch, 1);
    Scheduler s;
    s.add(&p);
    s.add(&c);
    s.run();
    EXPECT_EQ(c.got.size(), 10u);
    // Last data token sent at t=30, visible at 31, consumer advances 1.
    EXPECT_EQ(c.now(), 32u);
}

TEST(Dam, PipelineTimingConsumerBound)
{
    Channel ch("c", 8, 1);
    Producer p(ch, 10, 1);
    Consumer c(ch, 5);
    Scheduler s;
    s.add(&p);
    s.add(&c);
    s.run();
    // First token visible at 2; consumer then serializes at II=5.
    EXPECT_EQ(c.now(), 2u + 10u * 5u);
}

TEST(Dam, BackpressureStallsProducer)
{
    // Capacity 2 and a slow consumer force the producer's clock forward.
    Channel ch("c", 2, 1);
    Producer p(ch, 20, 1);
    Consumer c(ch, 10);
    Scheduler s;
    s.add(&p);
    s.add(&c);
    s.run();
    EXPECT_EQ(c.got.size(), 20u);
    // Producer cannot run 21 cycles ahead; it is credit-bound near the
    // consumer's pace (10/token).
    EXPECT_GT(p.now(), 150u);
}

TEST(Dam, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Channel ch("c", 4, 1);
        Producer p(ch, 50, 2);
        Consumer c(ch, 3);
        Scheduler s;
        s.add(&p);
        s.add(&c);
        s.run();
        return std::pair<Cycle, Cycle>(p.now(), c.now());
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a, b);
}

/** Two contexts that each read before writing: classic deadlock. */
class Deadlocker : public Context
{
  public:
    Deadlocker(std::string name, Channel& in, Channel& out)
        : Context(std::move(name)), in_(in), out_(out)
    {}

    SimTask
    run() override
    {
        Token t = co_await in_.read(*this);
        co_await out_.write(*this, t);
        co_return;
    }

  private:
    Channel& in_;
    Channel& out_;
};

TEST(Dam, DeadlockDetected)
{
    Channel ab("ab", 2, 1);
    Channel ba("ba", 2, 1);
    Deadlocker a("a", ba, ab);
    Deadlocker b("b", ab, ba);
    Scheduler s;
    s.add(&a);
    s.add(&b);
    EXPECT_THROW(s.run(), FatalError);
}

/** Select consumer: merges two producers by availability. */
class SelectConsumer : public Context
{
  public:
    SelectConsumer(Channel& a, Channel& b)
        : Context("sel"), a_(a), b_(b)
    {}

    SimTask
    run() override
    {
        bool da = false, db = false;
        while (!da || !db) {
            Channel* pick = nullptr;
            if (!a_.empty() && !da)
                pick = &a_;
            if (!b_.empty() && !db &&
                (!pick || b_.frontTime() < a_.frontTime()))
                pick = &b_;
            if (!pick) {
                std::vector<Channel*> chans;
                if (!da)
                    chans.push_back(&a_);
                if (!db)
                    chans.push_back(&b_);
                // Named awaiter (GCC 12 temporary-awaiter workaround).
                // chans stays alive in the coroutine frame across the
                // suspension, as WaitAny's span view requires.
                WaitAny any_waiter{chans, *this};
                co_await any_waiter;
                continue;
            }
            Token t = co_await pick->read(*this);
            if (t.isDone()) {
                (pick == &a_ ? da : db) = true;
            } else {
                order.push_back(pick == &a_ ? 'a' : 'b');
            }
        }
        co_return;
    }

    std::string order;

  private:
    Channel& a_;
    Channel& b_;
};

TEST(Dam, SelectMergesByAvailability)
{
    Channel ca("a", 8, 1);
    Channel cb("b", 8, 1);
    Producer pa(ca, 3, 10); // slow
    Producer pb(cb, 3, 1);  // fast
    SelectConsumer sc(ca, cb);
    Scheduler s;
    s.add(&pa);
    s.add(&pb);
    s.add(&sc);
    s.run();
    ASSERT_EQ(sc.order.size(), 6u);
    // The fast producer's tokens all arrive before the slow one's last.
    EXPECT_EQ(std::count(sc.order.begin(), sc.order.begin() + 3, 'b'), 3);
}

TEST(Dam, ChannelLatencyAddsToArrival)
{
    Channel ch("c", 8, 25);
    Producer p(ch, 1, 1);
    Consumer c(ch, 0);
    Scheduler s;
    s.add(&p);
    s.add(&c);
    s.run();
    // Sent at t=1, latency 25 -> consumer clock joins 26.
    EXPECT_EQ(c.now(), 26u);
}

TEST(Dam, ElapsedIsMaxClock)
{
    Channel ch("c", 8, 1);
    Producer p(ch, 5, 7);
    Consumer c(ch, 1);
    Scheduler s;
    s.add(&p);
    s.add(&c);
    s.run();
    EXPECT_EQ(s.elapsed(), std::max(p.now(), c.now()));
}

// ---- scheduler edge cases ---------------------------------------------

/**
 * Both producers become visible before the selector runs again: the
 * first push wakes the select-blocked consumer (Blocked -> Ready), the
 * second push must treat the already-Ready consumer's still-registered
 * waitingReader as a no-op — a single resume, no duplicate queue entry.
 */
TEST(Dam, DoubleWakeFromSelectIsSingleResume)
{
    Channel ca("a", 8, 1);
    Channel cb("b", 8, 1);
    // Producers at the same cadence: both push while the consumer is
    // select-blocked (consumer's clock joins ahead after each pop).
    Producer pa(ca, 4, 2);
    Producer pb(cb, 4, 2);
    SelectConsumer sc(ca, cb);
    Scheduler s;
    s.add(&pa);
    s.add(&pb);
    s.add(&sc);
    s.run();
    EXPECT_EQ(sc.order.size(), 8u);
    EXPECT_EQ(s.elapsed(), std::max({pa.now(), pb.now(), sc.now()}));
}

/**
 * WaitAny wake ordering with multiple simultaneously-ready channels:
 * after the selector resumes, it must consume in front-time order, so
 * the fast producer's tokens all drain before the slow one's last.
 */
TEST(Dam, WaitAnyWakeHonorsAvailabilityOrder)
{
    Channel ca("a", 8, 1);
    Channel cb("b", 8, 1);
    Producer pa(ca, 2, 9);  // tokens visible at t=10, 19
    Producer pb(cb, 2, 2);  // tokens visible at t=3, 5
    SelectConsumer sc(ca, cb);
    Scheduler s;
    s.add(&pa);
    s.add(&pb);
    s.add(&sc);
    s.run();
    ASSERT_EQ(sc.order, "bbaa");
}

/** Requeues itself @p n times with a timed wait at its own clock. */
class Requeuer : public Context
{
  public:
    explicit Requeuer(int n) : Context("requeuer"), n_(n) {}

    SimTask
    run() override
    {
        for (int i = 0; i < n_; ++i) {
            advance(1);
            WaitUntil tick{*this, now()};
            co_await tick;
        }
        co_return;
    }

  private:
    int n_;
};

TEST(Dam, TimedWaitRequeuesWithoutStaleEntries)
{
    // Two requeueing contexts interleave by clock; the ready queue
    // must requeue each wait without duplicating entries.
    Requeuer a(50);
    Requeuer b(50);
    Scheduler s;
    s.add(&a);
    s.add(&b);
    s.run();
    EXPECT_EQ(a.now(), 50u);
    EXPECT_EQ(b.now(), 50u);
}

/** Reads forever from a channel nobody writes: read-blocked deadlock. */
class StuckReader : public Context
{
  public:
    explicit StuckReader(Channel& ch) : Context("reader"), ch_(ch) {}

    SimTask
    run() override
    {
        co_await ch_.read(*this);
        co_return;
    }

  private:
    Channel& ch_;
};

TEST(Dam, DeadlockReportNamesReadBlockedChannel)
{
    Channel ch("starved", 4, 1);
    StuckReader r(ch);
    Scheduler s;
    s.add(&r);
    try {
        s.run();
        FAIL() << "expected deadlock";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("read starved"),
                  std::string::npos)
            << e.what();
    }
}

/** Writes past capacity with no consumer: write-blocked deadlock. */
class StuckWriter : public Context
{
  public:
    explicit StuckWriter(Channel& ch) : Context("writer"), ch_(ch) {}

    SimTask
    run() override
    {
        co_await ch_.write(*this, Token::data(test::val(1)));
        co_await ch_.write(*this, Token::data(test::val(2)));
        co_return;
    }

  private:
    Channel& ch_;
};

TEST(Dam, DeadlockReportNamesWriteBlockedChannel)
{
    Channel ch("clogged", 1, 1);
    StuckWriter w(ch);
    Scheduler s;
    s.add(&w);
    try {
        s.run();
        FAIL() << "expected deadlock";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("write clogged (full)"),
                  std::string::npos)
            << e.what();
    }
}

/** Selects over channels nobody writes: select-blocked deadlock. */
class StuckSelector : public Context
{
  public:
    StuckSelector(Channel& a, Channel& b)
        : Context("selector"), a_(a), b_(b)
    {}

    SimTask
    run() override
    {
        std::vector<Channel*> chans{&a_, &b_};
        WaitAny any_waiter{chans, *this};
        co_await any_waiter;
        co_return;
    }

  private:
    Channel& a_;
    Channel& b_;
};

TEST(Dam, DeadlockReportNamesSelectBlockedCount)
{
    Channel ca("sa", 4, 1);
    Channel cb("sb", 4, 1);
    StuckSelector sel(ca, cb);
    Scheduler s;
    s.add(&sel);
    try {
        s.run();
        FAIL() << "expected deadlock";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("select over 2 channels"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Dam, ChannelReinitRestoresFreshSemantics)
{
    Channel ch("r", 4, 1);
    {
        Producer p(ch, 6, 2);
        Consumer c(ch, 1);
        Scheduler s;
        s.add(&p);
        s.add(&c);
        s.run();
        EXPECT_EQ(c.got.size(), 6u);
        EXPECT_EQ(ch.totalPushed(), 7u);
    }
    ch.reinit("r2", 4, 1);
    EXPECT_EQ(ch.name(), "r2");
    EXPECT_EQ(ch.totalPushed(), 0u);
    EXPECT_TRUE(ch.empty());
    EXPECT_TRUE(ch.hasCredit());
    {
        Producer p(ch, 6, 2);
        Consumer c(ch, 1);
        Scheduler s;
        s.add(&p);
        s.add(&c);
        s.run();
        // Identical pipeline on the recycled channel: identical timing.
        EXPECT_EQ(c.got.size(), 6u);
        EXPECT_EQ(c.now(), 14u); // last sent t=12, +1 latency, +1 consume
    }
}

/**
 * Eight parallel merge regions (the MoE time-multiplexing routing
 * shape): each EagerMerge collects chunks from two sources over deep,
 * visible-latency channels. With tokens available-but-future on every
 * region at once, a patience-yield poll merge amplifies itself — every
 * yield parks one merge at a low clock, which makes the other merges
 * yield in turn — while the WaitUntil merge parks each merge once per
 * decision at its candidate's availability.
 */
SimResult
runRoutingGraph(uint64_t* events)
{
    SimConfig sc;
    sc.channelLatency = 64;
    sc.channelCapacity = 256;
    Graph g(sc);
    const int M = 8;
    const int W = 2;
    const int chunks = 64;
    const int K = 2;
    for (int m = 0; m < M; ++m) {
        std::vector<StreamPort> ways;
        for (int w = 0; w < W; ++w) {
            std::vector<Token> toks;
            for (int b = 0; b < chunks; ++b) {
                for (int k = 0; k < K; ++k)
                    toks.push_back(Token::data(Tile(1, 16)));
                toks.push_back(Token::stop(1));
            }
            toks.push_back(Token::done());
            auto& src = g.add<SourceOp>(
                "src" + std::to_string(m) + "_" + std::to_string(w),
                std::move(toks),
                StreamShape({Dim::fixed(chunks), Dim::fixed(K)}),
                DataType::tile(1, 16), 9 + static_cast<Cycle>(w));
            ways.push_back(src.out());
        }
        auto& merge = g.add<EagerMergeOp>("merge" + std::to_string(m),
                                          ways, 1);
        g.add<SinkOp>("osink" + std::to_string(m), merge.out());
        g.add<SinkOp>("ssink" + std::to_string(m), merge.selOut());
    }
    SimResult r = g.run();
    if (events)
        *events = g.totalChannelTokens();
    return r;
}

TEST(Dam, TimedWaitMergeKeepsPinnedTimingAndAThirdOfPollSwitches)
{
    // Reference figures of the retired patience-yield poll merge on this
    // graph (64-yield cap): the same streamed work and simulated timing,
    // at 21590 coroutine resumes.
    constexpr uint64_t kPollMergeSwitches = 21590;
    uint64_t events = 0;
    SimResult r = runRoutingGraph(&events);

    EXPECT_EQ(events, 7200u);
    EXPECT_EQ(r.cycles, 2058u);
    EXPECT_EQ(r.totalFlops, 0);
    EXPECT_EQ(r.offChipBytes, 0);
    // Waiting out arrival races with one timed suspension instead of
    // polling is worth >= 3x fewer resumes on this merge-bound graph.
    EXPECT_LE(3 * r.contextSwitches, kPollMergeSwitches)
        << "switches=" << r.contextSwitches;
}

// ---- ready queue ------------------------------------------------------

/**
 * Reference ready queue: one ordered set of (time, seq) keys. Starting
 * contexts take seqs 0..n-1 in start order, as start() queues them;
 * the scripted contexts below mirror each queue
 * operation they perform into it, and each resume pops its minimum.
 */
struct QueueModel
{
    enum class St { Queued, Parked, Timed, Running, Finished };
    using Key = std::pair<Cycle, uint64_t>;

    std::map<Key, size_t> keys;
    std::vector<St> st;
    std::vector<Key> key;
    std::vector<Context*> ctx;
    uint64_t seq = 0;
    std::vector<size_t> expected;
    std::vector<size_t> actual;
    /** Pushes that land ahead of every queued key, pushes that land
     *  behind the head, and timed waiters re-keyed by an early wake. */
    size_t fronts = 0;
    size_t behind = 0;
    size_t rekeys = 0;

    void
    push(size_t i, Cycle t, St s)
    {
        key[i] = {t, seq++};
        if (!keys.empty() && key[i] < keys.begin()->first)
            ++fronts;
        else
            ++behind;
        keys.emplace(key[i], i);
        st[i] = s;
    }

    /** Context @p i resumed: record it and the model's choice. */
    void
    resumed(size_t i)
    {
        actual.push_back(i);
        expected.push_back(keys.empty() ? ~size_t{0} : keys.begin()->second);
        keys.erase(key[i]); // stay in step even after a divergence
        st[i] = St::Running;
    }

    /** Scheduler::makeReadyAt's contract. */
    void
    wake(size_t o, Cycle t)
    {
        if (st[o] != St::Parked && st[o] != St::Timed)
            return; // Ready (queued or not yet started) or running
        t = std::max(t, ctx[o]->now());
        if (st[o] == St::Timed) {
            st[o] = St::Queued;
            if (t < key[o].first) {
                keys.erase(key[o]);
                push(o, t, St::Queued);
                ++rekeys;
            }
            return;
        }
        push(o, t, St::Queued);
    }

    std::optional<Cycle>
    minTime() const
    {
        if (keys.empty())
            return std::nullopt;
        return keys.begin()->first.first;
    }

    /** Parking is safe while another context will still run. */
    bool
    canPark(size_t self) const
    {
        for (size_t j = 0; j < st.size(); ++j)
            if (j != self && (st[j] == St::Queued || st[j] == St::Timed))
                return true;
        return false;
    }
};

/**
 * Performs @p steps seeded random queue operations: timed wait
 * (pure timer), park (select over no channels), wake another context
 * at a random time (makeReadyAt), and probe minReadyClock. Wakes every
 * parked context when it finishes, so no run deadlocks.
 */
class ScriptedCtx : public Context
{
  public:
    ScriptedCtx(QueueModel& m, Rng& rng, size_t idx, int steps)
        : Context("scripted" + std::to_string(idx)), m_(m), rng_(rng),
          idx_(idx), steps_(steps)
    {}

    SimTask
    run() override
    {
        using St = QueueModel::St;
        m_.resumed(idx_);
        if (idx_ == 0) {
            // Still inside the initial sweep: the last context has not
            // run yet, so its wake is a no-op and the earliest key is
            // cycle 0.
            probe();
            wake(m_.ctx.size() - 1, 0);
        }
        for (int k = 0; k < steps_; ++k) {
            switch (rng_.uniformInt(4)) {
            case 0: {
                Cycle deadline =
                    now() + static_cast<Cycle>(rng_.uniformRange(0, 30));
                m_.push(idx_, deadline, St::Timed);
                WaitUntil timer{*this, deadline};
                co_await timer;
                m_.resumed(idx_);
                break;
            }
            case 1: {
                if (!m_.canPark(idx_))
                    break;
                m_.st[idx_] = St::Parked;
                WaitAny park{{}, *this};
                co_await park;
                m_.resumed(idx_);
                break;
            }
            case 2:
                wake(rng_.uniformInt(m_.ctx.size()),
                     static_cast<Cycle>(rng_.uniformRange(0, 60)));
                break;
            default:
                probe();
                break;
            }
        }
        m_.st[idx_] = St::Finished;
        for (size_t j = 0; j < m_.ctx.size(); ++j)
            if (m_.st[j] == St::Parked)
                wake(j, now());
        co_return;
    }

  private:
    void
    wake(size_t o, Cycle t)
    {
        m_.wake(o, t);
        scheduler()->makeReadyAt(m_.ctx[o], t);
    }

    void
    probe()
    {
        EXPECT_EQ(scheduler()->minReadyClock(this), m_.minTime());
    }

    QueueModel& m_;
    Rng& rng_;
    size_t idx_;
    int steps_;
};

TEST(ReadyQueue, PopOrderMatchesAReferenceOrderedSetOfKeys)
{
    // Seeds 1-300 run 2-40 contexts. Seeds 301-316 run 300-600, half of
    // them started with a nonzero clock, so start() inserts those
    // between clock-0 entries; their runs push far more than twice as
    // many keys behind the head as there are contexts, so the queue
    // compacts its consumed head, and they push ahead of the head and
    // wake timed waiters early (re-keys) many times over.
    for (uint64_t seed = 1; seed <= 316; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const bool wide = seed > 300;
        Rng rng(seed);
        const size_t n =
            wide ? 300 + rng.uniformInt(301) : 2 + rng.uniformInt(39);
        QueueModel m;
        m.st.assign(n, QueueModel::St::Queued);
        m.key.resize(n);
        std::vector<std::unique_ptr<ScriptedCtx>> ctxs;
        Scheduler s;
        for (size_t i = 0; i < n; ++i) {
            ctxs.push_back(std::make_unique<ScriptedCtx>(
                m, rng, i, static_cast<int>(rng.uniformRange(1, 30))));
            // Some contexts start with a nonzero clock: start() queues
            // them in key order, behind every clock-0 context.
            if (i != 0 && i != n - 1 && rng.uniformInt(wide ? 2 : 4) == 0)
                ctxs[i]->advance(static_cast<Cycle>(
                    rng.uniformRange(1, wide ? 40 : 10)));
            m.ctx.push_back(ctxs[i].get());
            s.add(ctxs[i].get());
        }
        for (size_t i = 0; i < n; ++i)
            m.push(i, ctxs[i]->now(), QueueModel::St::Queued);
        s.run();
        EXPECT_EQ(m.actual, m.expected);
        EXPECT_TRUE(m.keys.empty());
        EXPECT_EQ(s.contextSwitches(), m.actual.size());
        if (wide) {
            EXPECT_GT(m.behind, 4 * n);
            EXPECT_GT(m.fronts, n / 4);
            EXPECT_GT(m.rekeys, n / 20);
        }
    }
}

// ---- FIFO slot lifetime -----------------------------------------------

/**
 * Writes @p n copies of @p payload to @p out, then blocks forever on
 * @p never, stranding the tokens in @p out's slots when the run
 * deadlocks.
 */
class StrandingProducer : public Context
{
  public:
    StrandingProducer(Channel& out, Channel& never, const Tile& payload,
                      int n)
        : Context("stranding"), out_(out), never_(never), payload_(payload),
          n_(n)
    {}

    SimTask
    run() override
    {
        for (int i = 0; i < n_; ++i)
            co_await out_.write(*this, Token::data(Value(payload_)));
        co_await never_.read(*this);
        co_return;
    }

  private:
    Channel& out_;
    Channel& never_;
    const Tile& payload_;
    int n_;
};

TEST(ChannelSlots, StrandedTokensAreReleasedOnceOnRearmReinitAndDestruction)
{
    const Tile payload = Tile::withData(1, 3, {1.0f, 2.0f, 3.0f});
    ASSERT_EQ(payload.useCount(), 1u);
    // 12 live tokens: the ring grows past its first 8 slots with
    // entries in flight.
    auto strand = [&](Channel& ch) {
        Channel never("never", 1, 1);
        StrandingProducer p(ch, never, payload, 12);
        Scheduler s;
        s.add(&p);
        EXPECT_THROW(s.run(), FatalError);
        EXPECT_EQ(ch.size(), 12u);
        EXPECT_EQ(payload.useCount(), 13u);
    };

    Channel a("a", 16, 1);
    strand(a);
    a.rearm(16);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(payload.useCount(), 1u);
    {
        // The rearmed channel runs a fresh pipeline normally.
        Producer p(a, 6, 2);
        Consumer c(a, 1);
        Scheduler s;
        s.add(&p);
        s.add(&c);
        s.run();
        EXPECT_EQ(c.got.size(), 6u);
    }

    Channel b("b", 16, 1);
    strand(b);
    b.reinit("b2", 16, 1);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(payload.useCount(), 1u);

    {
        Channel c("c", 16, 1);
        strand(c);
    }
    EXPECT_EQ(payload.useCount(), 1u);
}

/** Writes 13 distinct three-float payloads, then Done, without reading. */
class BurstProducer : public Context
{
  public:
    explicit BurstProducer(Channel& ch) : Context("burst"), ch_(ch)
    {
        // Built outside the coroutine: GCC 12 at -O2 miscompiles a
        // payload array that is a coroutine local filled in the loop.
        for (int i = 0; i < 13; ++i) {
            const float f = static_cast<float>(i);
            payloads_.push_back(Tile::withData(1, 3, {f, f + 0.5f, -f}));
        }
    }

    SimTask
    run() override
    {
        for (Tile& t : payloads_)
            co_await ch_.write(*this, Token::data(std::move(t)));
        co_await ch_.write(*this, Token::done());
        co_return;
    }

  private:
    Channel& ch_;
    std::vector<Tile> payloads_;
};

/** Reads to Done, keeping every data value. */
class ValueCollector : public Context
{
  public:
    explicit ValueCollector(Channel& ch) : Context("collector"), ch_(ch) {}

    SimTask
    run() override
    {
        while (true) {
            Token t = co_await ch_.read(*this);
            if (t.isDone())
                break;
            got.push_back(t.takeValue());
        }
        co_return;
    }

    std::vector<Value> got;

  private:
    Channel& ch_;
};

TEST(ChannelSlots, RingGrowthWithLiveEntriesKeepsOrderAndPayloads)
{
    // The producer runs first and fills 14 slots before the consumer
    // pops one, so the ring doubles with 8 live entries.
    Channel ch("grow", 16, 1);
    BurstProducer p(ch);
    ValueCollector c(ch);
    Scheduler s;
    s.add(&p);
    s.add(&c);
    s.run();
    ASSERT_EQ(c.got.size(), 13u);
    for (size_t i = 0; i < c.got.size(); ++i) {
        const Tile& t = c.got[i].tile();
        float f = static_cast<float>(i);
        EXPECT_EQ(t.at(0, 0), f);
        EXPECT_EQ(t.at(0, 1), f + 0.5f);
        EXPECT_EQ(t.at(0, 2), -f);
        EXPECT_EQ(t.useCount(), 1u); // sole owner: no copy was left behind
    }
    EXPECT_EQ(ch.totalPushed(), 14u);
}

/**
 * Writes two tuple-valued tokens through one local. Each write leaves
 * the local a husk: the first is assigned over, the second destroyed.
 */
class HuskWriter : public Context
{
  public:
    HuskWriter(Channel& ch, const Tile& payload)
        : Context("husk"), ch_(ch), payload_(payload)
    {}

    SimTask
    run() override
    {
        Token t = Token::data(Value::tuple({payload_, payload_}));
        co_await ch_.write(*this, std::move(t));
        t = Token::data(Value::tuple({payload_})); // assign over a husk
        co_await ch_.write(*this, std::move(t));
        co_await ch_.write(*this, Token::done());
        co_return; // destroys the second husk
    }

  private:
    Channel& ch_;
    Tile payload_;
};

TEST(ChannelSlots, WriterHuskReleasesNothing)
{
    const Tile payload = Tile::withData(1, 3, {1.0f, 2.0f, 3.0f});
    {
        Channel ch("husk", 4, 1);
        HuskWriter w(ch, payload);
        ValueCollector c(ch);
        Scheduler s;
        s.add(&w);
        s.add(&c);
        s.run();
        ASSERT_EQ(c.got.size(), 2u);
        ASSERT_EQ(c.got[0].tupleElems().size(), 2u);
        ASSERT_EQ(c.got[1].tupleElems().size(), 1u);
        for (const Value& v : c.got)
            for (const Value& e : v.tupleElems())
                EXPECT_TRUE(e.tile().equals(payload));
        // The test, the writer and three tuple elements hold the block.
        EXPECT_EQ(payload.useCount(), 5u);
    }
    // Each tuple was released exactly once, by its reader.
    EXPECT_EQ(payload.useCount(), 1u);
}

} // namespace
} // namespace step::dam
