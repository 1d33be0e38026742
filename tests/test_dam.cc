/**
 * @file
 * Tests of the coroutine simulation kernel: local-clock semantics,
 * channel latency, credit backpressure, deterministic scheduling, select,
 * and deadlock detection.
 */
#include <gtest/gtest.h>

#include "dam/channel.hh"
#include "dam/scheduler.hh"
#include "ops/route.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"

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
 * waitingReader as a no-op — a single resume, no duplicate heap entry.
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

/** Yielding context that is sole-ready resumes and terminates. */
class Yielder : public Context
{
  public:
    explicit Yielder(int n) : Context("yielder"), n_(n) {}

    SimTask
    run() override
    {
        for (int i = 0; i < n_; ++i) {
            advance(1);
            co_await Yield{*this};
        }
        co_return;
    }

    int resumed = 0;

  private:
    int n_;
};

TEST(Dam, YieldRequeuesWithoutStaleEntries)
{
    // Two yielding contexts interleave by clock; the index-tracked heap
    // must requeue each yield without duplicating entries.
    Yielder a(50);
    Yielder b(50);
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

/** Pushes one token once its clock reaches @p at. */
class DelayedProducer : public Context
{
  public:
    DelayedProducer(Channel& ch, Cycle at)
        : Context("delayedproducer"), ch_(ch), at_(at)
    {}

    SimTask
    run() override
    {
        advance(at_);
        co_await ch_.write(*this, Token::data(test::val(1.0f)));
        co_await ch_.write(*this, Token::done());
        co_return;
    }

  private:
    Channel& ch_;
    Cycle at_;
};

/** Advances to t=500, yields, then raises a flag when next resumed. */
class FlagAt500 : public Context
{
  public:
    FlagAt500() : Context("flag") {}

    SimTask
    run() override
    {
        advance(500);
        co_await Yield{*this};
        flag = true;
        co_return;
    }

    bool flag = false;
};

/**
 * WaitUntil with a channel list and a far deadline; records whether the
 * flag context (parked at t=500) had already run when the wait ended,
 * which distinguishes an early channel wake from a deadline expiry.
 */
class TimedChannelWaiter : public Context
{
  public:
    TimedChannelWaiter(Channel& ch, const FlagAt500& flagger)
        : Context("timedwaiter"), ch_(ch), flagger_(flagger)
    {}

    SimTask
    run() override
    {
        Channel* chans[1] = {&ch_};
        WaitUntil waiter{chans, *this, 1000};
        co_await waiter;
        sawFlag = flagger_.flag;
        tokenAtWake = !ch_.empty();
        Token t = co_await ch_.read(*this);
        got = t.isData();
        co_await ch_.read(*this); // Done
        co_return;
    }

    bool sawFlag = false;
    bool tokenAtWake = false;
    bool got = false;

  private:
    Channel& ch_;
    const FlagAt500& flagger_;
};

TEST(Dam, WaitUntilWakesEarlyOnChannelPush)
{
    // Producer pushes at t=5 (visible at 6), far before the t=1000
    // deadline: the waiter must be re-keyed to the token's ready time
    // and resume before the t=500 flag context runs.
    Channel ch("ch", 4, 1);
    DelayedProducer prod(ch, 5);
    FlagAt500 flagger;
    TimedChannelWaiter waiter(ch, flagger);
    Scheduler s;
    s.add(&waiter); // registers first, then the producer pushes
    s.add(&prod);
    s.add(&flagger);
    s.run();
    EXPECT_TRUE(waiter.got);
    EXPECT_TRUE(waiter.tokenAtWake);
    EXPECT_FALSE(waiter.sawFlag);
    EXPECT_EQ(waiter.now(), 6u);
}

TEST(Dam, WaitUntilHoldsDeadlineAgainstLaterInput)
{
    // Producer's token becomes visible only at t=2001, after the
    // t=1000 deadline: the channel wake must NOT pull the waiter's key
    // below its deadline (2001 > 1000 keeps 1000), so the waiter
    // resumes at the deadline — after the t=500 flag context — and its
    // read then joins to the token's ready time.
    Channel ch("ch", 4, 1);
    DelayedProducer prod(ch, 2000);
    FlagAt500 flagger;
    TimedChannelWaiter waiter(ch, flagger);
    Scheduler s;
    s.add(&waiter);
    s.add(&prod);
    s.add(&flagger);
    s.run();
    EXPECT_TRUE(waiter.got);
    EXPECT_TRUE(waiter.sawFlag);
    EXPECT_EQ(waiter.now(), 2001u);
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

} // namespace
} // namespace step::dam
