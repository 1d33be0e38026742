/**
 * @file
 * Tests for the hot-path support containers introduced by the
 * zero-allocation DAM work: the channel ring buffer, the small-buffer
 * vector behind stream shapes, the selector index store, the monotonic
 * arena + name interner behind graph recycling, and the STEP_ASSERT
 * failure path.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/token.hh"
#include "core/value.hh"
#include "ops/graph.hh"
#include "ops/higher_order.hh"
#include "ops/source_sink.hh"
#include "support/arena.hh"
#include "support/error.hh"
#include "support/framepool.hh"
#include "support/ring.hh"
#include "support/rng.hh"
#include "support/smallvec.hh"
#include "support/stats.hh"

namespace step {
namespace {

// ---- Ring -------------------------------------------------------------

TEST(Ring, FifoOrderAcrossWrap)
{
    Ring<int> r;
    r.reserve(4);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 3; ++i)
            r.push_back(round * 10 + i);
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(r.front(), round * 10 + i);
            r.pop_front();
        }
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, GrowsPreservingOrder)
{
    Ring<int> r; // no reserve: grows lazily
    for (int i = 0; i < 100; ++i)
        r.push_back(i);
    EXPECT_EQ(r.size(), 100u);
    EXPECT_EQ(r.back(), 99);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
}

TEST(Ring, GrowFromOffsetHead)
{
    Ring<int> r;
    r.reserve(4);
    // Shift head, then force growth mid-ring.
    for (int i = 0; i < 3; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    for (int i = 3; i < 20; ++i)
        r.push_back(i);
    for (int i = 2; i < 20; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
}

TEST(Ring, EmplaceBackConstructsInPlace)
{
    Ring<std::string> r;
    r.reserve(2);
    r.emplace_back("a");
    r.emplace_back(3, 'b');
    EXPECT_EQ(r.size(), 2u);
    EXPECT_EQ(r.front(), "a");
    EXPECT_EQ(r.back(), "bbb");
}

TEST(Ring, LiveElementsSurviveGrowthAndAreDestroyedOnce)
{
    // shared_ptr use counts observe every construction and destruction.
    auto p = std::make_shared<int>(7);
    {
        Ring<std::shared_ptr<int>> r;
        r.reserve(2);
        for (int i = 0; i < 5; ++i) // grows twice with live entries
            r.push_back(p);
        EXPECT_EQ(p.use_count(), 6);
        r.pop_front();
        EXPECT_EQ(p.use_count(), 5);
        r.clear();
        EXPECT_EQ(p.use_count(), 1);
        r.push_back(p);
        r.push_back(p);
        EXPECT_EQ(p.use_count(), 3);
    } // the destructor ends the two live entries
    EXPECT_EQ(p.use_count(), 1);
}

// ---- SmallVec ---------------------------------------------------------

TEST(SmallVec, InlineThenSpill)
{
    SmallVec<std::string, 2> v;
    v.push_back("a");
    v.push_back("b");
    EXPECT_EQ(v.size(), 2u);
    v.push_back("c"); // crosses into spill storage
    v.push_back("d");
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[3], "d");
    EXPECT_EQ(v.front(), "a");
    EXPECT_EQ(v.back(), "d");
}

TEST(SmallVec, CopyAndMoveBothRegimes)
{
    SmallVec<std::string, 2> small{"x", "y"};
    SmallVec<std::string, 2> big{"1", "2", "3", "4"};

    SmallVec<std::string, 2> sc = small;
    SmallVec<std::string, 2> bc = big;
    EXPECT_EQ(sc[1], "y");
    EXPECT_EQ(bc[3], "4");

    SmallVec<std::string, 2> sm = std::move(sc);
    SmallVec<std::string, 2> bm = std::move(bc);
    EXPECT_EQ(sm.size(), 2u);
    EXPECT_EQ(bm.size(), 4u);
    EXPECT_EQ(sm[0], "x");
    EXPECT_EQ(bm[0], "1");

    sm = big;
    EXPECT_EQ(sm.size(), 4u);
    bm = std::move(sm);
    EXPECT_EQ(bm.size(), 4u);
    EXPECT_EQ(bm[2], "3");
}

TEST(SmallVec, InsertShiftsTail)
{
    SmallVec<int, 4> v{1, 2, 4};
    v.insert(2, 3);
    ASSERT_EQ(v.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[static_cast<size_t>(i)], i + 1);
    v.insert(0, 0);
    EXPECT_EQ(v.size(), 5u); // spilled
    EXPECT_EQ(v[0], 0);
    EXPECT_EQ(v[4], 4);
}

TEST(SmallVec, RangeConstructAndIterate)
{
    std::vector<int> src{5, 6, 7, 8, 9};
    SmallVec<int, 4> v(src.begin(), src.end());
    int expect = 5;
    for (int x : v)
        EXPECT_EQ(x, expect++);
    EXPECT_EQ(expect, 10);
}

// ---- IndexVec (selector index builder) --------------------------------

TEST(IndexVec, InlineOneHotNoSpill)
{
    Selector s = Selector::oneHot(3);
    ASSERT_EQ(s.indices.size(), 1u);
    EXPECT_EQ(s.indices[0], 3u);
    Selector t = s; // copy stays inline
    EXPECT_TRUE(s == t);
}

TEST(IndexVec, SpillsBeyondTwoAndCompares)
{
    IndexVec v{1, 2, 3, 4};
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 1u);
    EXPECT_EQ(v[3], 4u);
    std::vector<uint32_t> src{1, 2, 3, 4};
    IndexVec w(src.begin(), src.end());
    EXPECT_TRUE(v == w);
    w.push_back(5);
    EXPECT_FALSE(v == w);
    // Iteration covers inline + spilled storage uniformly.
    uint32_t sum = 0;
    for (uint32_t x : w)
        sum += x;
    EXPECT_EQ(sum, 15u);
}

// ---- MonotonicArena --------------------------------------------------

TEST(Arena, BumpAllocatesAlignedAndReuses)
{
    MonotonicArena a(1024);
    void* p1 = a.allocate(100, 8);
    void* p2 = a.allocate(100, 64);
    EXPECT_NE(p1, p2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 64, 0u);
    size_t before = a.retainedBytes();
    a.reset();
    // Same request sequence reuses the same block memory.
    void* q1 = a.allocate(100, 8);
    EXPECT_EQ(p1, q1);
    EXPECT_EQ(a.retainedBytes(), before);
}

TEST(Arena, OversizedAllocationGetsOwnBlock)
{
    MonotonicArena a(256);
    void* big = a.allocate(4096, 16);
    EXPECT_NE(big, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % 16, 0u);
    EXPECT_GE(a.retainedBytes(), 4096u);
}

// ---- FramePool (thread-local freelists) -------------------------------

TEST(FramePool, RecyclesSameSizedBlocksOnOneThread)
{
    FramePool::trim();
    FramePool::Stats before = FramePool::stats();
    void* p = FramePool::allocate(512);
    FramePool::deallocate(p);
    void* q = FramePool::allocate(512);
    EXPECT_EQ(p, q); // same bucket, warm block
    FramePool::deallocate(q);
    FramePool::Stats after = FramePool::stats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.cached, 1u);
    FramePool::trim();
    EXPECT_EQ(FramePool::stats().cached, 0u);
}

TEST(FramePool, ConcurrentAllocFreeAcrossThreadsIsRaceFree)
{
    // The regression this guards: PoolState used to be one process-wide
    // freelist, so concurrent scheduler threads corrupted the links.
    // With thread-local pools, N threads hammering allocate/free must
    // (a) run race-free (ThreadSanitizer job) and (b) keep *per-thread*
    // stats that reconcile exactly, since no other thread can touch
    // this thread's freelists.
    constexpr int kThreads = 4;
    constexpr uint64_t kAllocs = 20000;
    std::vector<std::thread> workers;
    std::array<bool, kThreads> ok{};
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&ok, t] {
            FramePool::trim();
            FramePool::Stats before = FramePool::stats();
            Rng rng(100 + static_cast<uint64_t>(t));
            std::vector<std::pair<void*, size_t>> live;
            for (uint64_t i = 0; i < kAllocs; ++i) {
                size_t sz = 32 + rng.uniformInt(4000) * 16;
                void* p = FramePool::allocate(sz);
                std::memset(p, t, std::min<size_t>(sz, 64));
                live.emplace_back(p, sz);
                if (live.size() > 32) {
                    FramePool::deallocate(live.front().first);
                    live.erase(live.begin());
                }
            }
            for (auto& [p, sz] : live)
                FramePool::deallocate(p);
            FramePool::Stats after = FramePool::stats();
            bool good =
                after.hits + after.misses + after.bypasses ==
                before.hits + before.misses + before.bypasses + kAllocs;
            FramePool::trim();
            good = good && FramePool::stats().cached == 0;
            // Steady-state churn must recycle: most allocations should
            // be freelist hits once the working set warms up.
            good = good && after.hits > kAllocs / 2;
            ok[static_cast<size_t>(t)] = good;
        });
    }
    for (std::thread& w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(ok[static_cast<size_t>(t)]) << "thread " << t;
}

// ---- stats ------------------------------------------------------------

TEST(Stats, SampleStddevMatchesHandComputedValue)
{
    // {2,4,4,4,5,5,7,9}: mean 5, sum of squared deviations 32. The
    // sample estimator divides by n-1 = 7 (the population /n form this
    // replaced would give sqrt(32/8) = 2).
    std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(32.0 / 7.0));
    EXPECT_NE(stddev(xs), 2.0);

    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({3.0}), 0.0); // n-1 would divide by zero
    EXPECT_DOUBLE_EQ(stddev({5.0, 9.0}), std::sqrt(8.0));
}

// ---- rng --------------------------------------------------------------

TEST(Rng, UniformIntStaysInRangeAndHitsEveryResidue)
{
    Rng rng(7);
    for (uint64_t n : {2ULL, 3ULL, 7ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 4000; ++i)
            ASSERT_LT(rng.uniformInt(n), n);
    }
    // Every residue of a small range is reachable (a bias that *dropped*
    // residues would be far worse than the one being fixed).
    std::vector<bool> seen(10);
    for (int i = 0; i < 4000; ++i)
        seen[static_cast<size_t>(rng.uniformInt(10))] = true;
    for (size_t r = 0; r < seen.size(); ++r)
        EXPECT_TRUE(seen[r]) << "residue " << r;

    // Degenerate range and determinism under a fixed seed.
    Rng one(13);
    EXPECT_EQ(one.uniformInt(1), 0u);
    Rng a(13), b(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(97), b.uniformInt(97));
}

/** seedFromArgsOrEnv over @p args, as a program's main would call it. */
uint64_t
seedFromArgs(std::vector<std::string> args)
{
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    return seedFromArgsOrEnv(static_cast<int>(argv.size()), argv.data());
}

TEST(SeedFlagsDeathTest, MalformedSeedExitsTwoNamingTheFlagAndTheValue)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const uint64_t saved = globalSeed();
    ::unsetenv("STEP_SEED");
    EXPECT_EQ(seedFromArgs({"serving_sim", "--seed", "3"}), 3u);
    EXPECT_EQ(seedFromArgs({"serving_sim", "--seed", "18446744073709551615"}),
              ~uint64_t{0});
    // A number's prefix is not a seed: each of these used to run as
    // seed 3, 0, 16 or 2^64 - 1.
    for (const char* bad : {"3e7", "abc", "0x10", "-1", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(seedFromArgs({"/bin/serving_sim", "--seed", bad}),
                    testing::ExitedWithCode(2),
                    std::string("serving_sim: --seed takes a whole "
                                "unsigned decimal, got '") +
                        bad + "'");
    }
    EXPECT_EXIT(
        {
            ::setenv("STEP_SEED", "7x", 1);
            seedFromArgs({"bench_fig14_dynpar_kvvar"});
        },
        testing::ExitedWithCode(2),
        "bench_fig14_dynpar_kvvar: STEP_SEED takes a whole unsigned "
        "decimal, got '7x'");
    // The flag still wins over a well-formed environment seed.
    ::setenv("STEP_SEED", "5", 1);
    EXPECT_EQ(seedFromArgs({"sim"}), 5u);
    EXPECT_EQ(seedFromArgs({"sim", "--seed", "9"}), 9u);
    ::unsetenv("STEP_SEED");
    setGlobalSeed(saved);
}

// ---- STEP_ASSERT ------------------------------------------------------

TEST(Assert, FailureThrowsPanicNamingConditionMessageAndLine)
{
    const int answer = 41;
    int line = 0;
    try {
        line = __LINE__; STEP_ASSERT(answer == 42, "answer=" << answer);
        FAIL() << "STEP_ASSERT did not throw";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("assertion `answer == 42` failed"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("answer=41"), std::string::npos) << what;
        EXPECT_NE(what.find(std::string(__FILE__) + ":" +
                            std::to_string(line)),
                  std::string::npos) << what;
    }
}

TEST(Assert, PassingCheckNeverFormatsItsMessage)
{
    int formatted = 0;
    auto note = [&] { return ++formatted; };
    STEP_ASSERT(formatted == 0, "side effect " << note());
    EXPECT_EQ(formatted, 0);
}

TEST(Assert, FailureInsideAnOperatorBodySurfacesFromGraphRun)
{
    // The Map body asks a tile for its selector: Value::selector's
    // STEP_ASSERT fails inside the operator's coroutine, and the
    // scheduler rethrows it out of Graph::run.
    Graph g;
    std::vector<Token> toks = {Token::data(Tile::withData(1, 1, {1.0f}, 1)),
                               Token::done()};
    auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({1}),
                                DataType::tile(1, 1, 1));
    MapFn bad = [](const std::vector<Value>& a, int64_t&) -> Value {
        return a[0].selector();
    };
    auto& m = g.add<MapOp>("m", std::vector<StreamPort>{src.out()}, bad, 16,
                           DataType::tile(1, 1, 1));
    g.add<SinkOp>("sink", m.out(), true);
    try {
        (void)g.run();
        FAIL() << "Graph::run did not throw";
    } catch (const PanicError& e) {
        EXPECT_NE(std::string(e.what()).find("value is not a selector"),
                  std::string::npos) << e.what();
    }
}

} // namespace
} // namespace step
