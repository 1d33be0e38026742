/**
 * @file
 * KV prefix-cache subsystem tests: radix-tree longest-prefix matching,
 * LRU + leaf-first eviction under a token capacity, in-flight pins
 * blocking eviction, conversation-trace prefix nesting, the engine
 * acceptance properties (>= 50% prefill-token savings on a seeded
 * multi-turn trace, bit-identity with the cache disabled, deterministic
 * replay), and the PrefixAffinity cluster router beating round-robin on
 * goodput and p50 TTFT.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "runtime/cluster.hh"
#include "runtime/prefixcache.hh"
#include "support/rng.hh"

using namespace step;
using namespace step::runtime;

namespace {

/** Hand-built block hashes for cache unit tests. */
using Hashes = std::vector<uint64_t>;

/** Request with hand-built block hashes for cache unit tests. */
Request
mkCacheReq(int64_t id, const Hashes& blocks, int64_t prompt_len)
{
    Request r;
    r.id = id;
    r.promptLen = prompt_len;
    r.outputLen = 4;
    r.promptBlocks = static_cast<int64_t>(blocks.size());
    r.blockHashes = BlockHashes(blocks);
    return r;
}

TraceConfig
conversationTrace(int64_t sessions, int64_t turns)
{
    TraceConfig tc;
    tc.numSessions = sessions;
    tc.turnsPerSession = turns;
    tc.sharedSystemPromptLen = 64;
    tc.turnDeltaMean = 96;
    tc.outputMean = 48;
    tc.arrivalsPerKcycle = 0.0002;
    tc.turnGapMean = 6'000'000;
    return tc;
}

void
expectServingMetricsBitIdentical(const ServingSummary& a,
                                 const ServingSummary& b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.promptTokens, b.promptTokens);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.sloCompliant, b.sloCompliant);
    EXPECT_EQ(a.sloGoodTokens, b.sloGoodTokens);
    // Exact double comparison on purpose: bit-identity, not almost-equal.
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.ttftMean, b.ttftMean);
    EXPECT_EQ(a.tpotP50, b.tpotP50);
    EXPECT_EQ(a.tpotP99, b.tpotP99);
    EXPECT_EQ(a.tpotMean, b.tpotMean);
    EXPECT_EQ(a.throughputTokensPerKcycle, b.throughputTokensPerKcycle);
    EXPECT_EQ(a.goodputTokensPerKcycle, b.goodputTokensPerKcycle);
    EXPECT_EQ(a.computeUtilization, b.computeUtilization);
    EXPECT_EQ(a.ttftSamples, b.ttftSamples);
    EXPECT_EQ(a.tpotSamples, b.tpotSamples);
}

} // namespace

// ---- radix-tree mechanics ----------------------------------------------

TEST(PrefixCache, LongestPrefixMatchIsBlockGranular)
{
    PrefixCache cache({/*capacityTokens=*/int64_t{1} << 20});
    // Shared 2-block prefix {1, 2}, then divergence.
    cache.insert(Hashes{1, 2, 3}, 3);

    Request same = mkCacheReq(0, {1, 2, 3}, 3 * kPrefixBlockTokens + 5);
    EXPECT_EQ(cache.matchTokens(same), 3 * kPrefixBlockTokens);

    Request diverges = mkCacheReq(1, {1, 2, 9}, 3 * kPrefixBlockTokens + 5);
    EXPECT_EQ(cache.matchTokens(diverges), 2 * kPrefixBlockTokens);

    Request cold = mkCacheReq(2, {7, 8}, 2 * kPrefixBlockTokens + 5);
    EXPECT_EQ(cache.matchTokens(cold), 0);

    // The last prompt token is never served from cache: a fully cached
    // prompt still prefills one token so the first output token has a
    // compute event to come from.
    Request exact = mkCacheReq(3, {1, 2, 3}, 3 * kPrefixBlockTokens);
    EXPECT_EQ(cache.matchTokens(exact), 3 * kPrefixBlockTokens - 1);

    EXPECT_EQ(cache.occupancyTokens(), 3 * kPrefixBlockTokens);
    EXPECT_EQ(cache.stats().insertedBlocks, 3);
    // Re-inserting shared content allocates nothing new.
    cache.insert(Hashes{1, 2, 3}, 3);
    EXPECT_EQ(cache.stats().insertedBlocks, 3);
    EXPECT_EQ(cache.occupancyTokens(), 3 * kPrefixBlockTokens);
}

TEST(PrefixCache, LruLeafFirstEviction)
{
    // Capacity: 4 blocks.
    PrefixCache cache({4 * kPrefixBlockTokens});
    cache.insert(Hashes{11, 12}, 2); // chain A: interior 11, leaf 12
    cache.insert(Hashes{21}, 1);     // leaf B
    cache.insert(Hashes{31}, 1);     // leaf C -> cache full
    // Touch B: C is now the LRU leaf after A's.
    cache.insert(Hashes{21}, 1);

    cache.insert(Hashes{41}, 1); // must evict: A's leaf 12 is the LRU leaf
    Request a = mkCacheReq(0, {11, 12}, 2 * kPrefixBlockTokens + 5);
    EXPECT_EQ(cache.matchTokens(a), kPrefixBlockTokens)
        << "leaf 12 should be evicted, interior 11 kept";
    EXPECT_EQ(cache.stats().evictedBlocks, 1);

    cache.insert(Hashes{51}, 1); // next LRU leaf is 11 (a leaf since 12 left)
    EXPECT_EQ(cache.matchTokens(a), 0) << "chain A fully evicted";
    Request b = mkCacheReq(1, {21}, kPrefixBlockTokens + 5);
    Request c = mkCacheReq(2, {31}, kPrefixBlockTokens + 5);
    EXPECT_EQ(cache.matchTokens(b), kPrefixBlockTokens) << "touched leaf survives";
    EXPECT_EQ(cache.matchTokens(c), kPrefixBlockTokens);
    EXPECT_LE(cache.occupancyTokens(), 4 * kPrefixBlockTokens);
}

TEST(PrefixCache, PinsBlockEvictionUntilRelease)
{
    PrefixCache cache({2 * kPrefixBlockTokens});
    cache.insert(Hashes{1, 2}, 2);

    Request r = mkCacheReq(7, {1, 2}, 2 * kPrefixBlockTokens + 1);
    r.cachedPrefixTokens = cache.matchTokens(r);
    EXPECT_EQ(r.cachedPrefixTokens, 2 * kPrefixBlockTokens);
    cache.acquire(r); // pins {1, 2}

    // Full and everything pinned: the insert must skip, not evict.
    cache.insert(Hashes{8, 9}, 2);
    EXPECT_EQ(cache.stats().skippedBlocks, 2);
    EXPECT_EQ(cache.stats().evictedBlocks, 0);
    Request other = mkCacheReq(8, {8, 9}, 2 * kPrefixBlockTokens + 1);
    EXPECT_EQ(cache.matchTokens(other), 0);
    EXPECT_EQ(cache.matchTokens(r), 2 * kPrefixBlockTokens)
        << "pinned path intact";

    cache.release(r);
    cache.insert(Hashes{8, 9}, 2); // now the old chain can go
    EXPECT_EQ(cache.matchTokens(other), 2 * kPrefixBlockTokens);
    EXPECT_EQ(cache.matchTokens(mkCacheReq(9, {1, 2},
                                           2 * kPrefixBlockTokens + 1)),
              0);
    EXPECT_EQ(cache.stats().evictedBlocks, 2);
    EXPECT_LE(cache.occupancyTokens(), 2 * kPrefixBlockTokens);
    EXPECT_LE(cache.stats().peakOccupancyTokens, 2 * kPrefixBlockTokens)
        << "capacity is never exceeded, even transiently";
}

TEST(PrefixCache, AcquireCountsHitsAndTokensSaved)
{
    PrefixCache cache({int64_t{1} << 16});
    cache.insert(Hashes{1, 2, 3}, 3);

    Request hit = mkCacheReq(0, {1, 2, 9}, 3 * kPrefixBlockTokens);
    hit.cachedPrefixTokens = cache.matchTokens(hit);
    cache.acquire(hit);
    Request miss = mkCacheReq(1, {7}, kPrefixBlockTokens + 3);
    miss.cachedPrefixTokens = cache.matchTokens(miss);
    cache.acquire(miss);

    EXPECT_EQ(cache.stats().lookups, 2);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().tokensSaved, 2 * kPrefixBlockTokens);
    cache.release(hit);
    cache.release(miss); // miss held no pin; must be a harmless no-op
}

// ---- conversation traces ------------------------------------------------

TEST(ConversationTrace, SessionStreamsNestAndShareTheSystemPrompt)
{
    TraceConfig tc = conversationTrace(6, 4);
    auto reqs = generateTrace(tc, 17);
    ASSERT_EQ(reqs.size(), 24u);

    // Sorted by arrival, ids = position, like the single-turn generator.
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(reqs[i].id, static_cast<int64_t>(i));
        if (i) {
            EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
        }
    }

    std::map<int64_t, std::vector<const Request*>> by_session;
    for (const Request& r : reqs)
        by_session[r.sessionId].push_back(&r);
    ASSERT_EQ(by_session.size(), 6u);

    const int64_t sys_blocks =
        tc.sharedSystemPromptLen / kPrefixBlockTokens;
    std::set<uint64_t> affinity_keys;
    const std::vector<const Request*>& first =
        by_session.begin()->second;
    size_t longest_chains = 0; // Σ over sessions of the longest chain
    for (auto& [sid, turns] : by_session) {
        auto sorted = turns;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Request* a, const Request* b) {
                      return a->turn < b->turn;
                  });
        ASSERT_EQ(sorted.size(), 4u);
        for (size_t t = 0; t < sorted.size(); ++t) {
            const Request* r = sorted[t];
            EXPECT_EQ(r->turn, static_cast<int64_t>(t));
            EXPECT_EQ(r->promptBlocks, r->promptLen / kPrefixBlockTokens);
            EXPECT_EQ(static_cast<int64_t>(r->blockHashes.size()),
                      (r->promptLen + r->outputLen) / kPrefixBlockTokens);
            EXPECT_EQ(r->affinityKey, sorted[0]->affinityKey)
                << "every turn of a session shares the dominant-prefix key";
            EXPECT_EQ(r->blockHashes.data(), sorted[0]->blockHashes.data())
                << "every turn of a session views one stored chain";
            if (t) {
                const Request* prev = sorted[t - 1];
                // Turn t's prompt extends turn t-1's full stream.
                EXPECT_GT(r->promptLen,
                          prev->promptLen + prev->outputLen - 1);
                ASSERT_GE(r->blockHashes.size(), prev->blockHashes.size());
                EXPECT_TRUE(std::equal(prev->blockHashes.begin(),
                                       prev->blockHashes.end(),
                                       r->blockHashes.begin()))
                    << "session " << sid << " turn " << t
                    << " does not nest";
            }
        }
        // The shared system prompt hashes identically across sessions.
        ASSERT_GE(static_cast<int64_t>(sorted[0]->blockHashes.size()),
                  sys_blocks);
        EXPECT_TRUE(std::equal(
            first[0]->blockHashes.begin(),
            first[0]->blockHashes.begin() + sys_blocks,
            sorted[0]->blockHashes.begin()));
        affinity_keys.insert(sorted[0]->affinityKey);
        // A copy shares the block instead of copying the hashes.
        const Request copy = *sorted.back();
        EXPECT_EQ(copy.blockHashes.data(), sorted.back()->blockHashes.data());
        EXPECT_EQ(copy.blockHashes, sorted.back()->blockHashes);
        longest_chains += sorted.back()->blockHashes.size();
    }
    EXPECT_EQ(affinity_keys.size(), 6u)
        << "distinct sessions get distinct affinity keys";

    // The trace stores each session's longest chain once, nothing more.
    std::map<const uint64_t*, size_t> stored; // block -> hashes it holds
    for (const Request& r : reqs)
        stored[r.blockHashes.data()] = r.blockHashes.stored();
    EXPECT_EQ(stored.size(), 6u);
    size_t total = 0;
    for (const auto& [block, n] : stored)
        total += n;
    EXPECT_EQ(total, longest_chains);
}

TEST(ConversationTrace, DeterministicForFixedSeed)
{
    TraceConfig tc = conversationTrace(5, 4);
    auto a = generateTrace(tc, 7);
    auto b = generateTrace(tc, 7);
    auto c = generateTrace(tc, 8);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].promptLen, b[i].promptLen);
        EXPECT_EQ(a[i].sessionId, b[i].sessionId);
        EXPECT_EQ(a[i].blockHashes, b[i].blockHashes);
        differs |= a[i].arrival != c[i].arrival;
    }
    EXPECT_TRUE(differs);
}

// ---- engine integration -------------------------------------------------

TEST(EnginePrefixCache, LegacyTraceUnaffectedByEnablingTheCache)
{
    // Single-turn traces carry no token content, so the cache never
    // matches — every serving metric must be bit-identical with the
    // cache on or off (and, with it off, to the pre-cache engine).
    TraceConfig tc;
    tc.numRequests = 40;
    tc.arrivalsPerKcycle = 0.0012;
    tc.burstPeriod = 16'000'000;
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t capacity) {
        auto reqs = generateTrace(tc, 5);
        EngineConfig ec;
        ec.seed = 11;
        ec.prefixCache.capacityTokens = capacity;
        ServingEngine engine(ec, policy);
        return engine.run(reqs).summary;
    };
    ServingSummary off = run_with(0);
    ServingSummary on = run_with(int64_t{1} << 16);
    expectServingMetricsBitIdentical(off, on);
    EXPECT_EQ(off.prefixLookups, 0);
    EXPECT_EQ(on.prefixLookups, 40); // consulted, never matched
    EXPECT_EQ(on.prefixHits, 0);
    EXPECT_EQ(on.prefixTokensSaved, 0);
}

TEST(EnginePrefixCache, MultiTurnTraceSavesPrefillAndImprovesLatency)
{
    // The acceptance property: on a seeded multi-turn trace (>= 4
    // turns/session, shared system prompt) the cache saves >= 50% of
    // prefill tokens and converts that into better TTFT and goodput.
    TraceConfig tc = conversationTrace(24, 5);
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t capacity) {
        auto reqs = generateTrace(tc, deriveSeed(42));
        EngineConfig ec;
        ec.seed = deriveSeed(1);
        ec.prefixCache.capacityTokens = capacity;
        ServingEngine engine(ec, policy);
        return engine.run(reqs).summary;
    };
    ServingSummary off = run_with(0);
    ServingSummary on = run_with(int64_t{1} << 16);

    EXPECT_EQ(on.completed, 120);
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.generatedTokens, off.generatedTokens);

    EXPECT_GE(on.prefillTokensSavedFrac, 0.5)
        << "saved " << on.prefixTokensSaved << "/" << on.promptTokens;
    EXPECT_GT(on.prefixHitRate, 0.8);
    EXPECT_GT(on.prefixPeakOccupancyTokens, 0);
    EXPECT_LT(on.ttftP50, off.ttftP50);
    EXPECT_GT(on.goodputTokensPerKcycle, off.goodputTokensPerKcycle);

    // Bit-identical reproducibility of the cached run.
    ServingSummary replay = run_with(int64_t{1} << 16);
    expectServingMetricsBitIdentical(on, replay);
    EXPECT_EQ(on.prefixTokensSaved, replay.prefixTokensSaved);
    EXPECT_EQ(on.prefixHits, replay.prefixHits);
    EXPECT_EQ(on.prefixPeakOccupancyTokens,
              replay.prefixPeakOccupancyTokens);
}

TEST(EnginePrefixCache, TinyCapacityStillCorrectJustLessEffective)
{
    TraceConfig tc = conversationTrace(12, 4);
    QueueDepthPolicy policy;
    auto run_with = [&](int64_t capacity) {
        auto reqs = generateTrace(tc, deriveSeed(9));
        EngineConfig ec;
        ec.prefixCache.capacityTokens = capacity;
        ServingEngine engine(ec, policy);
        return engine.run(reqs).summary;
    };
    ServingSummary tiny = run_with(512);
    ServingSummary big = run_with(int64_t{1} << 17);
    EXPECT_EQ(tiny.completed, big.completed);
    EXPECT_EQ(tiny.generatedTokens, big.generatedTokens);
    EXPECT_LE(tiny.prefixPeakOccupancyTokens, 512)
        << "eviction must respect the capacity";
    // A bigger cache strictly saves more; per-request latency shifts are
    // second-order (batch composition moves), so only the savings are
    // asserted.
    EXPECT_LT(tiny.prefixTokensSaved, big.prefixTokensSaved);
    EXPECT_GT(big.prefillTokensSavedFrac, 0.5);
}

// ---- cluster: PrefixAffinity routing -------------------------------------

TEST(ClusterPrefixAffinity, SessionsStickToOneReplica)
{
    TraceConfig tc = conversationTrace(20, 4);
    auto reqs = generateTrace(tc, deriveSeed(3));
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::PrefixAffinity;
    ServingCluster cluster(cc, policy);
    auto route = cluster.routeTrace(reqs);

    std::map<int64_t, int64_t> session_replica;
    std::set<int64_t> used;
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto [it, fresh] =
            session_replica.emplace(reqs[i].sessionId, route[i]);
        if (!fresh) {
            EXPECT_EQ(it->second, route[i])
                << "session " << reqs[i].sessionId
                << " split across replicas";
        }
        used.insert(route[i]);
    }
    EXPECT_GT(used.size(), 1u) << "least-loaded fallback spreads sessions";
}

TEST(ClusterPrefixAffinity, LegacyTraceFallsBackToLeastLoadedSpread)
{
    // Single-turn traces carry no affinity key; every request takes the
    // least-loaded fallback, which must spread load and stay
    // deterministic.
    TraceConfig tc;
    tc.numRequests = 60;
    tc.arrivalsPerKcycle = 0.0045;
    auto reqs = generateTrace(tc, 13);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::PrefixAffinity;
    ServingCluster cluster(cc, policy);
    auto a = cluster.routeTrace(reqs);
    auto b = cluster.routeTrace(reqs);
    EXPECT_EQ(a, b);
    std::set<int64_t> used(a.begin(), a.end());
    EXPECT_GT(used.size(), 1u);
}

TEST(ClusterPrefixAffinity, BeatsRoundRobinOnGoodputAndTtftP50)
{
    TraceConfig tc = conversationTrace(64, 5);
    tc.arrivalsPerKcycle = 0.0008; // 4 replicas absorb 4x the sessions
    QueueDepthPolicy policy;

    auto run_with = [&](RouteKind routing) {
        auto reqs = generateTrace(tc, deriveSeed(23));
        ClusterConfig cc;
        cc.replicas = 4;
        cc.routing = routing;
        cc.engine.prefixCache.capacityTokens = int64_t{1} << 16;
        ServingCluster cluster(cc, policy);
        return cluster.run(reqs).aggregate;
    };
    ServingSummary rr = run_with(RouteKind::RoundRobin);
    ServingSummary pa = run_with(RouteKind::PrefixAffinity);

    EXPECT_EQ(pa.completed, rr.completed);
    // Sticky sessions find their context cached; sprayed sessions mostly
    // hit just the shared system prompt.
    EXPECT_GT(pa.prefillTokensSavedFrac, rr.prefillTokensSavedFrac);
    // ... and that turns into the serving win the router exists for:
    EXPECT_GT(pa.goodputTokensPerKcycle, rr.goodputTokensPerKcycle);
    EXPECT_LT(pa.ttftP50, rr.ttftP50);

    // Deterministic: both repeat bit-identically.
    ServingSummary rr2 = run_with(RouteKind::RoundRobin);
    ServingSummary pa2 = run_with(RouteKind::PrefixAffinity);
    expectServingMetricsBitIdentical(rr, rr2);
    expectServingMetricsBitIdentical(pa, pa2);
}

TEST(ClusterPrefixAffinity, AggregateBitIdenticalAcrossWorkerThreadCounts)
{
    TraceConfig tc = conversationTrace(24, 4);
    tc.arrivalsPerKcycle = 0.0008;
    auto base = generateTrace(tc, deriveSeed(31));
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t threads) {
        auto reqs = base;
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::PrefixAffinity;
        cc.engine.prefixCache.capacityTokens = int64_t{1} << 16;
        ServingCluster cluster(cc, policy);
        return cluster.run(reqs);
    };
    ClusterResult serial = run_with(1);
    ClusterResult four = run_with(4);
    expectServingMetricsBitIdentical(serial.aggregate, four.aggregate);
    EXPECT_EQ(serial.aggregate.prefixTokensSaved,
              four.aggregate.prefixTokensSaved);
    EXPECT_EQ(serial.aggregate.prefixHits, four.aggregate.prefixHits);
    EXPECT_EQ(serial.aggregate.prefixPeakOccupancyTokens,
              four.aggregate.prefixPeakOccupancyTokens);

    // Merged prefix counters are the sums of the per-replica counters.
    int64_t saved = 0, lookups = 0;
    for (const ReplicaResult& rr : four.replicas) {
        saved += rr.result.summary.prefixTokensSaved;
        lookups += rr.result.summary.prefixLookups;
    }
    EXPECT_EQ(four.aggregate.prefixTokensSaved, saved);
    EXPECT_EQ(four.aggregate.prefixLookups, lookups);
}
