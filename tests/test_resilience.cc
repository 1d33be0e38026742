/**
 * @file
 * Resilience-tier tests: breaker timelines derived from fault plans
 * (detection lag, cooldown, permanent crashes), the brown-out admission
 * ladder's pressure rungs, the autoscaler's step timeline, health-scored
 * placement (affinity preference, half-open penalty, parking waivers),
 * prefix-cache idle-TTL eviction, the engine's slowdown-drain migration,
 * and the cluster acceptance criteria: under a crash+slowdown plan the
 * tier beats plain failover on tail latency without losing availability,
 * stays thread-count invariant, and — disabled — leaves the plain fault
 * tier's behavior untouched.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "runtime/cluster.hh"
#include "support/rng.hh"

using namespace step;
using namespace step::runtime;

namespace {

TraceConfig
burstyTrace(int64_t n)
{
    TraceConfig tc;
    tc.numRequests = n;
    tc.arrivalsPerKcycle = 0.0012;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    return tc;
}

/** Skewed multi-turn cluster workload: sessions with nested prefixes
 *  and heavy-tailed lengths, 4 replicas' worth of arrivals. */
TraceConfig
sessionClusterTrace(int64_t sessions, int64_t turns)
{
    TraceConfig tc = burstyTrace(0);
    tc.arrivalsPerKcycle = 0.0048;
    tc.numSessions = sessions;
    tc.turnsPerSession = turns;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;
    return tc;
}

void
expectAccountingCloses(const ServingSummary& s, int64_t submitted)
{
    EXPECT_EQ(s.completed + s.failedRequests + s.shedRequests, submitted)
        << "availability accounting does not close";
}

} // namespace

// ---- circuit breakers --------------------------------------------------

TEST(Breaker, CrashOpensImmediatelyAndRecoveryHalfOpens)
{
    ReplicaFaultTimeline t;
    t.downs.push_back({1'000'000, 3'000'000});
    BreakerConfig bc; // cooldown 2'000'000
    BreakerTimeline b = computeBreakerTimeline(t, bc);

    EXPECT_EQ(b.stateAt(999'999), BreakerState::Closed);
    EXPECT_EQ(b.stateAt(1'000'000), BreakerState::Open);
    EXPECT_EQ(b.stateAt(2'999'999), BreakerState::Open);
    EXPECT_EQ(b.stateAt(3'000'000), BreakerState::HalfOpen);
    EXPECT_EQ(b.stateAt(4'999'999), BreakerState::HalfOpen);
    EXPECT_EQ(b.stateAt(5'000'000), BreakerState::Closed);
    EXPECT_TRUE(b.openAt(2'000'000));
    EXPECT_FALSE(b.openAt(3'000'000));
}

TEST(Breaker, OnlySustainedDeepSlowdownsTripAfterTheDetectionLag)
{
    BreakerConfig bc; // detect 500k, openBelow 0.75, cooldown 2M
    // Deep and long: trips, but only detectCycles after onset.
    ReplicaFaultTimeline deep;
    deep.slowdowns.push_back({1'000'000, 4'000'000, 0.5});
    BreakerTimeline b = computeBreakerTimeline(deep, bc);
    EXPECT_EQ(b.stateAt(1'000'000), BreakerState::Closed); // lag
    EXPECT_EQ(b.stateAt(1'500'000), BreakerState::Open);
    EXPECT_EQ(b.stateAt(4'000'000), BreakerState::HalfOpen);
    EXPECT_EQ(b.stateAt(6'000'000), BreakerState::Closed);

    // Deep but shorter than the detection lag: never trips.
    ReplicaFaultTimeline blip;
    blip.slowdowns.push_back({1'000'000, 1'400'000, 0.5});
    BreakerTimeline bb = computeBreakerTimeline(blip, bc);
    EXPECT_TRUE(bb.open.empty());
    EXPECT_TRUE(bb.halfOpen.empty());

    // Long but shallow (above openBelowFactor): never trips.
    ReplicaFaultTimeline shallow;
    shallow.slowdowns.push_back({1'000'000, 9'000'000, 0.9});
    BreakerTimeline bs = computeBreakerTimeline(shallow, bc);
    EXPECT_TRUE(bs.open.empty());
}

TEST(Breaker, PermanentCrashOpensForeverWithNoProbation)
{
    ReplicaFaultTimeline t;
    t.downs.push_back({500, 0});
    BreakerTimeline b = computeBreakerTimeline(t, BreakerConfig{});
    EXPECT_EQ(b.stateAt(499), BreakerState::Closed);
    EXPECT_EQ(b.stateAt(500), BreakerState::Open);
    EXPECT_EQ(b.stateAt(ReplicaFaultTimeline::kNoEvent - 1),
              BreakerState::Open);
    EXPECT_TRUE(b.halfOpen.empty());
}

// ---- brown-out admission ladder ----------------------------------------

namespace {

AdmissionContext
ctxWithQueue(int64_t waiting)
{
    AdmissionContext ctx;
    ctx.waitingRequests = waiting;
    ctx.kvBudgetBytes = 1'000;
    ctx.kvReservedBytes = 0;
    ctx.totalComputeBw = 8192;
    ctx.nominalComputeBw = 8192;
    return ctx;
}

Request
reqWithPriority(ReqPriority p)
{
    Request r;
    r.promptLen = 64;
    r.outputLen = 16;
    r.priority = p;
    return r;
}

} // namespace

TEST(Brownout, PressureIsTheWorstOfQueueKvAndBandwidthSignals)
{
    BrownoutConfig bc; // queueFullDepth 64
    AdmissionContext ctx = ctxWithQueue(32);
    EXPECT_DOUBLE_EQ(BrownoutPolicy::pressure(ctx, bc), 0.5);
    ctx.kvReservedBytes = 800; // KV signal 0.8 dominates
    EXPECT_DOUBLE_EQ(BrownoutPolicy::pressure(ctx, bc), 0.8);
    ctx.totalComputeBw = 819; // 90% degraded dominates everything
    EXPECT_NEAR(BrownoutPolicy::pressure(ctx, bc), 0.9, 1e-3);
    // An engine that predates the nominal-bandwidth signal reports 0
    // for it; degradation then reads as "not degraded", never negative.
    ctx.nominalComputeBw = 0;
    ctx.kvReservedBytes = 0;
    ctx.waitingRequests = 0;
    EXPECT_DOUBLE_EQ(BrownoutPolicy::pressure(ctx, bc), 0.0);
}

TEST(Brownout, LadderRungsEngageInPriorityOrder)
{
    BrownoutPolicy pol; // shedLowAt .5, capAt .75, refuseAt .95
    const Request low = reqWithPriority(ReqPriority::Low);
    const Request normal = reqWithPriority(ReqPriority::Normal);
    const Request high = reqWithPriority(ReqPriority::High);

    // Below every rung: nobody shed, nobody capped.
    AdmissionContext calm = ctxWithQueue(16); // pressure 0.25
    EXPECT_FALSE(pol.shouldShed(low, calm));
    EXPECT_EQ(pol.outputCap(normal, calm), 0);

    // Rung 1: low-priority sheds, normal and high ride on, no caps.
    AdmissionContext busy = ctxWithQueue(36); // pressure ~0.56
    EXPECT_TRUE(pol.shouldShed(low, busy));
    EXPECT_FALSE(pol.shouldShed(normal, busy));
    EXPECT_FALSE(pol.shouldShed(high, busy));
    EXPECT_EQ(pol.outputCap(normal, busy), 0);

    // Rung 2: output caps engage for everyone below High.
    AdmissionContext hot = ctxWithQueue(52); // pressure ~0.81
    EXPECT_FALSE(pol.shouldShed(normal, hot));
    EXPECT_EQ(pol.outputCap(normal, hot), pol.cfg.outputCapTokens);
    EXPECT_EQ(pol.outputCap(low, hot), pol.cfg.outputCapTokens);
    EXPECT_EQ(pol.outputCap(high, hot), 0);

    // Rung 3: everything but High refused.
    AdmissionContext melt = ctxWithQueue(64); // pressure 1.0
    EXPECT_TRUE(pol.shouldShed(low, melt));
    EXPECT_TRUE(pol.shouldShed(normal, melt));
    EXPECT_FALSE(pol.shouldShed(high, melt));
}

TEST(Brownout, ComposesWithAFallbackPolicy)
{
    // The fallback (deadline shedding) is consulted when no rung fires.
    DeadlineAwareShedPolicy ddl;
    BrownoutPolicy pol;
    pol.fallback = &ddl;
    AdmissionContext calm = ctxWithQueue(0);
    calm.prefillFlopsPerToken = 100.0;
    calm.totalComputeBw = 1; // prefill would take promptLen*100 cycles
    calm.nominalComputeBw = 1;
    Request r = reqWithPriority(ReqPriority::Normal);
    r.deadlineAt = 10; // provably unmeetable
    EXPECT_TRUE(pol.shouldShed(r, calm));
    r.deadlineAt = 0;
    EXPECT_FALSE(pol.shouldShed(r, calm));
}

// ---- autoscaler --------------------------------------------------------

TEST(Autoscale, ParksIdleReplicasAndReactivatesUnderLoad)
{
    AutoscaleConfig ac;
    ac.enabled = true;
    ac.evalIntervalCycles = 1'000'000;
    ac.minReplicas = 1;

    // A long quiet stretch, then a heavy burst: the scaler should park
    // replicas early and win them back when the burst lands.
    std::vector<Request> reqs;
    for (int i = 0; i < 40; ++i) {
        Request r;
        r.id = i;
        // 2 light early arrivals, then 38 heavy ones late.
        r.arrival = i < 2 ? i * 500'000 : 20'000'000 + i * 10'000;
        r.promptLen = i < 2 ? 16 : 1024;
        r.outputLen = i < 2 ? 4 : 128;
        reqs.push_back(r);
    }
    // flopsPerToken sized so the burst saturates one active replica
    // (38 reqs x ~1152 tok x 200k flops vs 8192 flops/cyc x 1M cyc)
    // but not the full fleet — exercising both scaler directions.
    const auto steps = computeAutoscaleTimeline(ac, reqs, {}, 4,
                                                /*flopsPerToken=*/200'000,
                                                /*perReplicaBw=*/8192);
    ASSERT_FALSE(steps.empty());
    int64_t min_active = 4, max_after_park = 0;
    bool parked_then_grew = false;
    int64_t prev = 4;
    for (const AutoscaleStep& s : steps) {
        EXPECT_GE(s.active, 1);
        EXPECT_LE(s.active, 4);
        // Steps move one replica at a time (the hysteresis contract).
        EXPECT_EQ(std::abs(s.active - prev), 1);
        if (s.active > prev && prev < 4)
            parked_then_grew = true;
        prev = s.active;
        min_active = std::min(min_active, s.active);
        max_after_park = std::max(max_after_park, s.active);
    }
    EXPECT_LT(min_active, 4) << "idle stretch never parked a replica";
    EXPECT_TRUE(parked_then_grew) << "burst never reactivated capacity";

    // The lookup helper agrees with the steps and defaults to the full
    // fleet before the first one.
    EXPECT_EQ(autoscaleActiveAt(steps, 0, 4), 4);
    EXPECT_EQ(autoscaleActiveAt(steps, steps.back().at, 4),
              steps.back().active);

    // Disabled or empty input: no timeline at all.
    EXPECT_TRUE(computeAutoscaleTimeline({}, reqs, {}, 4, 5'000, 8192)
                    .empty());
    EXPECT_TRUE(computeAutoscaleTimeline(ac, {}, {}, 4, 5'000, 8192)
                    .empty());
}

// ---- health-scored placement ------------------------------------------

TEST(Placement, PicksLeastLoadedAliveWithTiesToLowestIndex)
{
    const std::vector<int64_t> load{50, 20, 20, 90};
    EXPECT_EQ(pickResilientTarget(load, {}, {}, {}, 0, -1, 1.5, 2.0), 1);

    FaultPlan plan;
    plan.crashes.push_back({1, 0, 0}); // best candidate is dead
    EXPECT_EQ(pickResilientTarget(load, plan, {}, {}, 0, -1, 1.5, 2.0),
              2);

    // Everyone dead: no target.
    FaultPlan all_dead;
    for (int64_t r = 0; r < 4; ++r)
        all_dead.crashes.push_back({r, 0, 0});
    EXPECT_EQ(
        pickResilientTarget(load, all_dead, {}, {}, 0, -1, 1.5, 2.0), -1);
}

TEST(Placement, OpenBreakerExcludesUnlessNoAlternative)
{
    const std::vector<int64_t> load{10, 80};
    ReplicaFaultTimeline slow;
    slow.slowdowns.push_back({0, 10'000'000, 0.5});
    BreakerConfig bc;
    std::vector<BreakerTimeline> breakers{
        computeBreakerTimeline(slow, bc), BreakerTimeline{}};
    // Replica 0 is cheap but breaker-open: traffic shifts to 1.
    const dam::Cycle at = 1'000'000;
    ASSERT_TRUE(breakers[0].openAt(at));
    EXPECT_EQ(pickResilientTarget(load, {}, breakers, {}, at, -1, 1.5,
                                  2.0),
              1);
    // With replica 1 dead, the open breaker is waived — an open breaker
    // beats a dead cluster.
    FaultPlan plan;
    plan.crashes.push_back({1, 0, 0});
    EXPECT_EQ(pickResilientTarget(load, plan, breakers, {}, at, -1, 1.5,
                                  2.0),
              0);
}

TEST(Placement, HalfOpenPenaltyAndSlowdownScaleTheScore)
{
    // Replica 0: load 10, half-open (score 10 * 2 = 20).
    // Replica 1: load 15, closed (score 15). 1 wins despite more load.
    ReplicaFaultTimeline recovered;
    recovered.downs.push_back({0, 1'000});
    BreakerConfig bc;
    std::vector<BreakerTimeline> breakers{
        computeBreakerTimeline(recovered, bc), BreakerTimeline{}};
    const dam::Cycle at = 2'000; // inside the cooldown
    ASSERT_EQ(breakers[0].stateAt(at), BreakerState::HalfOpen);
    EXPECT_EQ(pickResilientTarget({10, 15}, {}, breakers, {}, at, -1,
                                  1.5, 2.0),
              1);
    // A shallow slowdown (not breaker-worthy) still inflates the score:
    // replica 0 at factor 0.8 scores 10 / 0.8 = 12.5 > 11.
    FaultPlan plan;
    plan.slowdowns.push_back({0, 0, 10'000, 0.8});
    EXPECT_EQ(
        pickResilientTarget({10, 11}, plan, {}, {}, 0, -1, 1.5, 2.0), 1);
}

TEST(Placement, AffinityOwnerWinsWithinItsLoadFactor)
{
    // Owner (replica 2) carries 30 against a minimum of 25: within the
    // 1.5x allowance, the warm cache wins.
    EXPECT_EQ(pickResilientTarget({40, 25, 30}, {}, {}, {}, 0, 2, 1.5,
                                  2.0),
              2);
    // At 60 it is past the allowance: least-loaded wins instead.
    EXPECT_EQ(pickResilientTarget({40, 25, 60}, {}, {}, {}, 0, 2, 1.5,
                                  2.0),
              1);
    // A dead owner never wins, whatever its load.
    FaultPlan plan;
    plan.crashes.push_back({2, 0, 0});
    EXPECT_EQ(pickResilientTarget({40, 25, 0}, plan, {}, {}, 0, 2, 1.5,
                                  2.0),
              1);
}

TEST(Placement, AutoscaleParkingRestrictsAndIsWaivedWhenEmpty)
{
    std::vector<AutoscaleStep> steps{{0, 2}};
    // Replicas 2 and 3 are parked: the cheap parked replica is skipped.
    EXPECT_EQ(pickResilientTarget({50, 40, 5, 5}, {}, {}, steps, 100, -1,
                                  1.5, 2.0),
              1);
    // Both active replicas dead: parking is waived rather than failing.
    FaultPlan plan;
    plan.crashes.push_back({0, 0, 0});
    plan.crashes.push_back({1, 0, 0});
    EXPECT_EQ(pickResilientTarget({50, 40, 5, 5}, plan, {}, steps, 100,
                                  -1, 1.5, 2.0),
              2);
}

// ---- prefix-cache idle TTL ---------------------------------------------

namespace {

/** Chained block hashes for a synthetic n-block stream. */
std::vector<uint64_t>
chainedHashes(uint64_t salt, int64_t nblocks)
{
    std::vector<uint64_t> h;
    uint64_t acc = salt;
    for (int64_t i = 0; i < nblocks; ++i) {
        acc = prefixHashMix(acc, uint64_t(i) + 1);
        h.push_back(acc);
    }
    return h;
}

} // namespace

TEST(PrefixCacheTtl, IdleSweepEvictsColdEntriesButNeverPinnedOnes)
{
    PrefixCacheConfig pc;
    pc.capacityTokens = 1 << 16;
    pc.idleTtlCycles = 1'000'000;
    PrefixCache cache(pc);

    // Session A: inserted at t=0 then never touched again.
    const auto cold = chainedHashes(1, 4);
    cache.setClock(0);
    cache.insert(cold, 4);
    // Session B: inserted at t=0 and pinned by an admitted request.
    Request hot;
    hot.id = 7;
    hot.blockHashes = chainedHashes(2, 4);
    hot.promptBlocks = 4;
    hot.promptLen = 4 * kPrefixBlockTokens;
    cache.insert(hot.blockHashes, 4);
    ASSERT_EQ(cache.matchTokens(hot), hot.promptLen - 1);
    cache.acquire(hot);

    // Sweep before the TTL elapses: nothing moves.
    cache.setClock(999'999);
    EXPECT_EQ(cache.evictIdle(), 0);

    // Past the TTL: the cold path is swept, the pinned path survives.
    cache.setClock(2'000'000);
    const int64_t swept = cache.evictIdle();
    EXPECT_EQ(swept, 4);
    EXPECT_EQ(cache.stats().ttlEvictedBlocks, 4);
    Request probe_cold;
    probe_cold.blockHashes = cold;
    probe_cold.promptBlocks = 4;
    probe_cold.promptLen = 4 * kPrefixBlockTokens;
    EXPECT_EQ(cache.matchTokens(probe_cold), 0);
    EXPECT_EQ(cache.matchTokens(hot), hot.promptLen - 1);

    // Released (session over), the next sweep reclaims it too.
    cache.release(hot);
    cache.setClock(4'000'000);
    EXPECT_GT(cache.evictIdle(), 0);
    EXPECT_EQ(cache.matchTokens(hot), 0);
    EXPECT_EQ(cache.pinnedRequests(), 0);
    EXPECT_EQ(cache.occupancyTokens(), 0);

    // TTL 0 (the default) never sweeps, whatever the clock says.
    PrefixCache no_ttl(PrefixCacheConfig{1 << 16, 0});
    no_ttl.insert(cold, 4);
    no_ttl.setClock(ReplicaFaultTimeline::kNoEvent - 1);
    EXPECT_EQ(no_ttl.evictIdle(), 0);
    EXPECT_EQ(no_ttl.stats().ttlEvictedBlocks, 0);
}

// ---- engine slowdown drain ---------------------------------------------

TEST(EngineDrain, DeepSlowdownMigratesQueuedAndPrefillingWork)
{
    // Overload a single engine (a cluster's worth of arrivals into a
    // tight KV budget) so the queue stays deep — the drain edge must
    // catch work still waiting or prefilling, not just decoding.
    TraceConfig tc = burstyTrace(30);
    tc.arrivalsPerKcycle = 0.0048;
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ec.batcher.kvBudgetBytes = 2000 * 256;
    ec.batcher.kvBytesPerToken = 256;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan = probe.run(probe_reqs).summary.makespan;

    // A deep slowdown covering the back half of the run, with the drain
    // armed at the breaker's detection parameters.
    const dam::Cycle start = makespan / 3;
    ec.faults.slowdowns.push_back({start, makespan * 2, 0.5});
    ec.drain.enabled = true;
    auto reqs = generateTrace(tc, 5);
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    EXPECT_GT(r.summary.migratedRequests, 0);
    const dam::Cycle edge = start + ec.drain.detectCycles;
    int64_t migrated = 0;
    for (const Request& q : reqs) {
        EXPECT_TRUE(q.terminal());
        if (q.state != ReqState::Migrated)
            continue;
        ++migrated;
        // Drained at the detection edge or refused on a later arrival —
        // never before the window plus the lag.
        EXPECT_GE(q.finishedAt, edge);
        // A drained request never produced a token here (decoding
        // requests stay and finish locally).
        EXPECT_EQ(q.generated, 0);
    }
    EXPECT_EQ(migrated, r.summary.migratedRequests);
    EXPECT_GT(r.summary.completed, 0) << "pre-window work should finish";

    // Drain disabled (the default): the same plan migrates nothing.
    EngineConfig plain = ec;
    plain.drain.enabled = false;
    auto reqs2 = generateTrace(tc, 5);
    ServingEngine engine2(plain, policy);
    EXPECT_EQ(engine2.run(reqs2).summary.migratedRequests, 0);
}

// ---- cluster acceptance ------------------------------------------------

namespace {

/** Crash + slowdown plan scaled to the trace's makespan: one mid-run
 *  replica outage, one deep sustained slowdown, one late blip. */
FaultPlan
acceptancePlan(dam::Cycle makespan)
{
    FaultPlan plan;
    plan.crashes.push_back({1, makespan / 4, makespan * 5 / 12});
    plan.crashes.push_back({3, makespan * 7 / 10, makespan * 4 / 5});
    plan.slowdowns.push_back(
        {2, makespan / 3, makespan * 2 / 3, 0.4});
    plan.slowdowns.push_back(
        {0, makespan * 3 / 5, makespan * 7 / 10, 0.5});
    return plan;
}

} // namespace

TEST(Resilience, BeatsPlainFailoverOnTailLatencyWithoutLosingAvailability)
{
    TraceConfig tc = sessionClusterTrace(40, 4); // 160 requests
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    cc.engine.prefixCache.capacityTokens = 1 << 18;

    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster probe(cc, policy);
    const dam::Cycle makespan = probe.run(probe_reqs).aggregate.makespan;
    const int64_t submitted = int64_t(probe_reqs.size());

    cc.faults = acceptancePlan(makespan);

    // PR 7 baseline: plain failover through the default retry policy.
    auto plain_reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult plain = ServingCluster(cc, policy).run(plain_reqs);
    expectAccountingCloses(plain.aggregate, submitted);

    // The resilience tier: migration, health-scored routing, breakers,
    // cross-replica prefix reuse (no brown-out/autoscale — this test
    // isolates the latency/availability claim from capacity shaping).
    cc.resilience.enabled = true;
    cc.resilience.remotePrefix.enabled = true;
    auto res_reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult res = ServingCluster(cc, policy).run(res_reqs);
    expectAccountingCloses(res.aggregate, submitted);

    // The acceptance criteria: better tail latency, no availability
    // regression, and the migration machinery actually exercised.
    EXPECT_LT(res.aggregate.ttftP99, plain.aggregate.ttftP99)
        << "resilience tier does not beat plain failover on p99 TTFT";
    EXPECT_GE(res.aggregate.availability, plain.aggregate.availability);
    EXPECT_GT(res.migrationsIssued, 0)
        << "slowdown drain never migrated a request";
    EXPECT_EQ(plain.migrationsIssued, 0);

    // Migrated incarnations are transit, not outcomes: every request
    // still ends Finished, Failed, or Shed.
    for (const Request& q : res_reqs)
        EXPECT_TRUE(q.state == ReqState::Finished ||
                    q.state == ReqState::Failed ||
                    q.state == ReqState::Shed)
            << "request " << q.id << " left in transit";
}

TEST(Resilience, DisabledTierLeavesThePlainFaultTierUntouched)
{
    TraceConfig tc = sessionClusterTrace(24, 3);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    cc.engine.prefixCache.capacityTokens = 1 << 18;

    auto base_reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult base = ServingCluster(cc, policy).run(base_reqs);

    // enabled == false gates everything: sub-config tweaks must be
    // inert, matching the plain run request for request.
    cc.resilience.enabled = false;
    cc.resilience.remotePrefix.enabled = true;
    cc.resilience.autoscale.enabled = true;
    cc.resilience.migration.maxMigrations = 99;
    auto off_reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult off = ServingCluster(cc, policy).run(off_reqs);

    EXPECT_EQ(base.aggregate.makespan, off.aggregate.makespan);
    EXPECT_EQ(base.aggregate.completed, off.aggregate.completed);
    EXPECT_EQ(base.aggregate.ttftP99, off.aggregate.ttftP99);
    EXPECT_EQ(base.aggregate.migratedRequests, 0);
    EXPECT_EQ(off.aggregate.migratedRequests, 0);
    EXPECT_EQ(off.migrationsIssued, 0);
    EXPECT_TRUE(off.autoscale.empty());
    ASSERT_EQ(base_reqs.size(), off_reqs.size());
    for (size_t i = 0; i < base_reqs.size(); ++i) {
        EXPECT_EQ(base_reqs[i].state, off_reqs[i].state);
        EXPECT_EQ(base_reqs[i].finishedAt, off_reqs[i].finishedAt);
        EXPECT_EQ(base_reqs[i].firstTokenAt, off_reqs[i].firstTokenAt);
    }
}

TEST(Resilience, FaultyResilientRunIsThreadCountInvariantAndReplays)
{
    TraceConfig tc = sessionClusterTrace(24, 3);
    tc.lowPriorityFrac = 0.2;
    tc.highPriorityFrac = 0.1;
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t threads) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.engine.prefixCache.capacityTokens = 1 << 18;
        cc.faults.crashes.push_back({1, 20'000'000, 45'000'000});
        cc.faults.slowdowns.push_back({2, 30'000'000, 80'000'000, 0.5});
        cc.resilience.enabled = true;
        cc.resilience.remotePrefix.enabled = true;
        cc.resilience.autoscale.enabled = true;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ClusterResult r = ServingCluster(cc, policy).run(reqs);
        return std::make_pair(std::move(r), std::move(reqs));
    };
    auto [r1, q1] = run_with(1);
    auto [r4, q4] = run_with(4);
    auto [r1b, q1b] = run_with(1); // same seed replays bit-identically

    EXPECT_EQ(r1.aggregate.completed, r4.aggregate.completed);
    EXPECT_EQ(r1.aggregate.failedRequests, r4.aggregate.failedRequests);
    EXPECT_EQ(r1.aggregate.shedRequests, r4.aggregate.shedRequests);
    EXPECT_EQ(r1.aggregate.migratedRequests,
              r4.aggregate.migratedRequests);
    EXPECT_EQ(r1.aggregate.makespan, r4.aggregate.makespan);
    EXPECT_EQ(r1.aggregate.ttftP99, r4.aggregate.ttftP99);
    EXPECT_EQ(r1.retriesIssued, r4.retriesIssued);
    EXPECT_EQ(r1.migrationsIssued, r4.migrationsIssued);
    EXPECT_EQ(r1.migrationsIssued, r1b.migrationsIssued);
    EXPECT_EQ(r1.aggregate.makespan, r1b.aggregate.makespan);
    ASSERT_EQ(q1.size(), q4.size());
    for (size_t i = 0; i < q1.size(); ++i) {
        EXPECT_EQ(q1[i].state, q4[i].state);
        EXPECT_EQ(q1[i].finishedAt, q4[i].finishedAt);
        EXPECT_EQ(q1[i].attempt, q4[i].attempt);
        EXPECT_EQ(q1[i].state, q1b[i].state);
        EXPECT_EQ(q1[i].finishedAt, q1b[i].finishedAt);
    }
    expectAccountingCloses(r1.aggregate, int64_t(q1.size()));
}

// ---- migration handoff cost ------------------------------------------

TEST(Migration, HandoffBoundsAttemptsRespectsDeadlineAndCarriesDrainedKv)
{
    MigrationConfig mc;
    mc.fixedHandoffCycles = 1000;
    mc.perTokenTransferCycles = 10;
    mc.maxMigrations = 2;
    const MigrationHandoff handoff(mc);

    Request drained;
    drained.promptLen = 100;
    drained.outputLen = 5;
    drained.state = ReqState::Migrated;
    drained.prefilledTokens = 40;
    Request crashed = drained; // same progress, but its KV died
    crashed.state = ReqState::Failed;

    // A soft drain ships its prefill progress; a crash casualty ships
    // nothing and only pays the fixed handshake.
    EXPECT_EQ(carriedKvTokens(drained), 40);
    EXPECT_EQ(carriedKvTokens(crashed), 0);
    auto soft = handoff.reschedule(drained, 1, 5000);
    auto hard = handoff.reschedule(crashed, 1, 5000);
    ASSERT_TRUE(soft.has_value());
    ASSERT_TRUE(hard.has_value());
    EXPECT_EQ(*soft, 5000u + 1000u + 40u * 10u);
    EXPECT_EQ(*hard, 6000u);

    EXPECT_TRUE(handoff.reschedule(crashed, 2, 5000).has_value());
    EXPECT_FALSE(handoff.reschedule(crashed, 3, 5000).has_value());

    crashed.deadlineAt = 6000; // landing exactly on the deadline is fine
    EXPECT_TRUE(handoff.reschedule(crashed, 1, 5000).has_value());
    crashed.deadlineAt = 5999;
    EXPECT_FALSE(handoff.reschedule(crashed, 1, 5000).has_value());

    // A free handoff still takes one cycle: the router cannot deliver
    // a request at the cycle it failed.
    mc.fixedHandoffCycles = 0;
    auto instant = MigrationHandoff(mc).reschedule(crashed, 1, 5000);
    ASSERT_TRUE(instant.has_value());
    EXPECT_EQ(*instant, 5001u);
}

namespace {

/**
 * A two-replica resilient cluster with single-token prefill-only work
 * (StaticSplitPolicy(0.3)), tracing at request level so each
 * incarnation's arrival is observable. t0 is one 1024-token prompt's
 * unperturbed prefill time; the breaker (and with it the engine drain)
 * detects a deep slowdown after t0 / 4.
 */
struct HandoffRig
{
    static constexpr int64_t kPrompt = 1024;
    ClusterConfig cc;
    dam::Cycle fpt = 0;
    dam::Cycle t0 = 0;

    HandoffRig()
    {
        cc.replicas = 2;
        cc.threads = 1;
        cc.trace.level = obs::TraceLevel::Request;
        cc.resilience.enabled = true;
        fpt = static_cast<dam::Cycle>(prefillFlopsPerToken(
            cc.engine.model, cc.engine.model.numLayers));
        t0 = (kPrompt * fpt + prefillBw(1.0) - 1) / prefillBw(1.0);
        cc.resilience.breaker.detectCycles = t0 / 4;
    }

    dam::Cycle
    prefillBw(double factor) const
    {
        const auto bw = static_cast<double>(std::llround(
            static_cast<double>(cc.engine.totalComputeBw) * factor));
        return static_cast<dam::Cycle>(0.3 * bw);
    }

    /** Prompt tokens a lone request admitted at @p a prefills by the
     *  drain edge of a 0.4x slowdown starting at @p slow_at. */
    int64_t
    prefilledAtDrain(dam::Cycle a, dam::Cycle slow_at) const
    {
        const dam::Cycle flops =
            (slow_at - a) * prefillBw(1.0) +
            cc.resilience.breaker.detectCycles * prefillBw(0.4);
        return static_cast<int64_t>(flops / fpt);
    }

    /** Replica @p r's lifecycle of request @p id's incarnation
     *  @p attempt (null when it never arrived there). */
    static const obs::RequestLifecycle*
    find(const ClusterResult& res, size_t r, int64_t id, int64_t attempt)
    {
        for (const obs::RequestLifecycle& l : res.traces[r]->requests())
            if (l.id == id && l.attempt == attempt)
                return &l;
        return nullptr;
    }
};

/** One kPrompt-token prompt with a single output token. */
Request
prefillOnly(int64_t id, dam::Cycle arrival)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptLen = HandoffRig::kPrompt;
    r.outputLen = 1;
    return r;
}

/** prefillOnly as turn @p turn of one session whose every prompt block
 *  is hashed (so a finished turn caches the whole prompt). */
Request
sessionTurn(int64_t id, dam::Cycle arrival, int64_t turn)
{
    Request r = prefillOnly(id, arrival);
    r.sessionId = 7;
    r.turn = turn;
    r.affinityKey = 0x5e55;
    r.blockHashes.assign(HandoffRig::kPrompt / kPrefixBlockTokens, 1);
    return r;
}

} // namespace

TEST(Resilience, DrainedRequestReArrivesAfterItsKvHandoff)
{
    // Replica 0 slows to 0.4x a quarter into the only request's
    // prefill; the drain fires a detection lag later, mid-prefill, and
    // the request migrates to replica 1 carrying its prefilled KV.
    HandoffRig rig;
    const dam::Cycle slow_at = rig.t0 / 4;
    const dam::Cycle edge =
        slow_at + rig.cc.resilience.breaker.detectCycles;
    rig.cc.faults.slowdowns.push_back(
        {0, slow_at, slow_at + 20 * rig.t0, 0.4});
    std::vector<Request> reqs = {prefillOnly(0, 0)};
    StaticSplitPolicy policy(0.3);
    ClusterResult res = ServingCluster(rig.cc, policy).run(reqs);

    EXPECT_EQ(res.migrationsIssued, 1);
    ASSERT_EQ(reqs[0].state, ReqState::Finished);
    EXPECT_EQ(reqs[0].attempt, 1);
    const int64_t kv = rig.prefilledAtDrain(0, slow_at);
    EXPECT_EQ(kv, 358);
    EXPECT_EQ(reqs[0].remoteKvTokens, kv);

    const obs::RequestLifecycle* src = HandoffRig::find(res, 0, 0, 0);
    const obs::RequestLifecycle* inc = HandoffRig::find(res, 1, 0, 1);
    ASSERT_NE(src, nullptr);
    ASSERT_NE(inc, nullptr);
    EXPECT_TRUE(src->migrated);
    EXPECT_EQ(src->migratedAt, edge);
    const MigrationConfig& mc = rig.cc.resilience.migration;
    EXPECT_EQ(inc->arrival,
              edge + mc.fixedHandoffCycles +
                  static_cast<dam::Cycle>(kv) * mc.perTokenTransferCycles);
}

TEST(Resilience, RemotePrefixFetchChargesLookupAndTheUncarriedTokens)
{
    // Turn 0 of a session finishes on replica 0 (its affinity owner).
    // Turn 1 lands there too and is drained mid-prefill; placed on
    // replica 1, it fetches the owner's cached prefix for the tokens
    // its migrated KV did not already cover.
    HandoffRig rig;
    rig.cc.routing = RouteKind::PrefixAffinity;
    rig.cc.resilience.remotePrefix.enabled = true;
    const dam::Cycle a1 = 2 * rig.t0;
    const dam::Cycle slow_at = a1 + rig.t0 / 4;
    const dam::Cycle edge =
        slow_at + rig.cc.resilience.breaker.detectCycles;
    rig.cc.faults.slowdowns.push_back(
        {0, slow_at, slow_at + 20 * rig.t0, 0.4});
    std::vector<Request> reqs = {sessionTurn(0, 0, 0),
                                 sessionTurn(1, a1, 1)};
    StaticSplitPolicy policy(0.3);
    ClusterResult res = ServingCluster(rig.cc, policy).run(reqs);

    ASSERT_EQ(reqs[0].state, ReqState::Finished);
    ASSERT_EQ(reqs[1].state, ReqState::Finished);
    EXPECT_EQ(reqs[1].attempt, 1);
    ASSERT_NE(HandoffRig::find(res, 0, 0, 0), nullptr); // owner: replica 0
    const obs::RequestLifecycle* inc = HandoffRig::find(res, 1, 1, 1);
    ASSERT_NE(inc, nullptr);

    const MigrationConfig& mc = rig.cc.resilience.migration;
    const RemotePrefixConfig& rp = rig.cc.resilience.remotePrefix;
    const int64_t kv = rig.prefilledAtDrain(a1, slow_at);
    const int64_t credit = HandoffRig::kPrompt - 1; // whole prompt cached
    EXPECT_EQ(kv, 358);
    const dam::Cycle handed =
        edge + mc.fixedHandoffCycles +
        static_cast<dam::Cycle>(kv) * mc.perTokenTransferCycles;
    const dam::Cycle fetched =
        handed + rp.lookupCycles +
        static_cast<dam::Cycle>(credit - kv) * rp.perTokenFetchCycles;
    EXPECT_EQ(inc->arrival, fetched);
    EXPECT_EQ(reqs[1].remoteKvTokens, credit);
}

// ---- telemetry-inferred breakers ---------------------------------------

TEST(HealthMonitor, ErrorWindowOpensAtItsCloseEdgeAndHealthyStreakCloses)
{
    HealthMonitorConfig hc;
    hc.windowCycles = 1'000;
    hc.openOnErrors = 1;
    hc.closeAfterHealthy = 2;
    hc.cooldownCycles = 5'000;
    HealthMonitor hm(hc);
    hm.observeWindow(0, 10, 100); // w0 healthy
    hm.observeWindow(3, 2, 100);  // w1 errors -> open at close (2000)
    hm.observeWindow(0, 8, 100);  // w2 healthy (streak 1)
    hm.observeWindow(0, 9, 100);  // w3 healthy (streak 2) -> close @4000
    BreakerTimeline tl = hm.finish();

    ASSERT_EQ(tl.open.size(), 1u);
    EXPECT_EQ(tl.open[0].start, 2'000u);
    EXPECT_EQ(tl.open[0].end, 4'000u);
    ASSERT_EQ(tl.halfOpen.size(), 1u);
    EXPECT_EQ(tl.halfOpen[0].start, 4'000u);
    EXPECT_EQ(tl.halfOpen[0].end, 9'000u);
    EXPECT_EQ(tl.stateAt(2'500), BreakerState::Open);
    EXPECT_EQ(tl.stateAt(4'500), BreakerState::HalfOpen);
    EXPECT_EQ(tl.stateAt(9'000), BreakerState::Closed);
}

TEST(HealthMonitor, DegradedStreakOpensAfterConsecutiveWindowsOnly)
{
    HealthMonitorConfig hc;
    hc.windowCycles = 1'000;
    hc.degradedTtftCycles = 500.0;
    hc.openAfterDegraded = 2;
    HealthMonitor hm(hc);
    hm.observeWindow(0, 5, 900); // w0 degraded (streak 1)
    hm.observeWindow(0, 5, 100); // w1 healthy resets the streak
    hm.observeWindow(0, 5, 900); // w2 degraded (streak 1)
    hm.observeWindow(0, 5, 900); // w3 degraded (streak 2) -> open @4000
    BreakerTimeline tl = hm.finish();

    // Never recovered: finish() seals the breaker open forever.
    ASSERT_EQ(tl.open.size(), 1u);
    EXPECT_EQ(tl.open[0].start, 4'000u);
    EXPECT_EQ(tl.open[0].end, 0u);
    EXPECT_TRUE(tl.halfOpen.empty());
    EXPECT_TRUE(tl.openAt(1'000'000'000));
}

TEST(HealthMonitor, QuietWindowsAreNeutralInBothDirections)
{
    HealthMonitorConfig hc;
    hc.windowCycles = 1'000;
    hc.degradedTtftCycles = 500.0;
    hc.openAfterDegraded = 2;
    hc.closeAfterHealthy = 2;
    hc.cooldownCycles = 2'000;
    HealthMonitor hm(hc);
    hm.observeWindow(0, 5, 900); // w0 degraded (streak 1)
    hm.observeWindow(0, 0, 0);   // w1 quiet: streak neither grows nor resets
    hm.observeWindow(0, 5, 900); // w2 degraded (streak 2) -> open @3000
    hm.observeWindow(0, 5, 100); // w3 healthy (streak 1)
    hm.observeWindow(0, 0, 0);   // w4 quiet: healthy streak survives
    hm.observeWindow(0, 5, 100); // w5 healthy (streak 2) -> close @6000
    BreakerTimeline tl = hm.finish();

    ASSERT_EQ(tl.open.size(), 1u);
    EXPECT_EQ(tl.open[0].start, 3'000u);
    EXPECT_EQ(tl.open[0].end, 6'000u);
    ASSERT_EQ(tl.halfOpen.size(), 1u);
    EXPECT_EQ(tl.halfOpen[0].start, 6'000u);
    EXPECT_EQ(tl.halfOpen[0].end, 8'000u);
}

TEST(HealthMonitor, InferredTimelineDivergesFromPlanUnderShallowSlowdown)
{
    // A shallow slowdown (factor above BreakerConfig::openBelowFactor)
    // never trips the plan-derived breaker...
    ReplicaFaultTimeline ft;
    ft.slowdowns.push_back({2'000, 5'000, 0.85});
    BreakerConfig bc; // openBelowFactor 0.75
    EXPECT_TRUE(computeBreakerTimeline(ft, bc).open.empty());

    // ...but the telemetry monitor only sees the latency it causes:
    // enough consecutive windows over the TTFT threshold open the
    // inferred breaker the plan never scripted.
    obs::MetricsConfig mc;
    mc.enabled = true;
    mc.windowCycles = 1'000;
    obs::MetricsRegistry m(mc);
    const auto ttft = m.histogram("ttft_cycles");
    (void)m.series("requests_failed");
    for (uint64_t w : {0u, 1u}) // healthy lead-in
        for (int i = 0; i < 8; ++i)
            m.record(ttft, w * 1'000 + 100 + uint64_t(i), 100);
    for (uint64_t w : {2u, 3u, 4u}) // slowdown inflates windowed p95
        for (int i = 0; i < 8; ++i)
            m.record(ttft, w * 1'000 + 100 + uint64_t(i), 900);
    for (uint64_t w : {5u, 6u}) // back to healthy
        for (int i = 0; i < 8; ++i)
            m.record(ttft, w * 1'000 + 100 + uint64_t(i), 100);

    HealthMonitorConfig hc;
    hc.windowCycles = 1'000;
    hc.degradedTtftCycles = 500.0;
    hc.openAfterDegraded = 2;
    hc.closeAfterHealthy = 2;
    hc.cooldownCycles = 2'000;
    BreakerTimeline tl = inferBreakerTimeline(m, hc);

    ASSERT_EQ(tl.open.size(), 1u);
    EXPECT_EQ(tl.open[0].start, 4'000u); // close of the 2nd degraded window
    EXPECT_EQ(tl.open[0].end, 7'000u);   // close of the 2nd healthy window
    ASSERT_EQ(tl.halfOpen.size(), 1u);
    EXPECT_EQ(tl.halfOpen[0].start, 7'000u);
    EXPECT_EQ(tl.halfOpen[0].end, 9'000u);
}

TEST(TelemetryBreaker, InferredCrashEdgesTrackThePlanWithinDetectionLag)
{
    TraceConfig tc = sessionClusterTrace(40, 4); // 160 requests
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    cc.engine.prefixCache.capacityTokens = 1 << 18;

    // Scale the outage to the arrival horizon, not the makespan: the
    // replica must see post-recovery traffic for the monitor to gather
    // the healthy windows that close the breaker.
    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    dam::Cycle last_arrival = 0;
    for (const Request& q : probe_reqs)
        last_arrival = std::max(last_arrival, q.arrival);
    const dam::Cycle fail_at = last_arrival / 4;
    const dam::Cycle recover_at = last_arrival / 2;

    cc.faults.crashes.push_back({1, fail_at, recover_at});
    cc.resilience.enabled = true;
    cc.resilience.breakerSource = BreakerSource::Telemetry;
    // Isolate the crash signal: latency-triggered opens off, so the
    // inferred timeline is error-driven exactly where the plan's is.
    cc.resilience.health.degradedTtftCycles = 1e18;

    auto reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult r = ServingCluster(cc, policy).run(reqs);
    expectAccountingCloses(r.aggregate, int64_t(reqs.size()));
    ASSERT_EQ(r.breakers.size(), 4u);

    const dam::Cycle W = cc.resilience.health.windowCycles;
    const BreakerTimeline plan =
        computeBreakerTimeline(cc.faults.forReplica(1),
                               cc.resilience.breaker);
    ASSERT_EQ(plan.open.size(), 1u); // ground truth: [fail_at, recover_at)

    const BreakerTimeline& inf = r.breakers[1];
    ASSERT_EQ(inf.open.size(), 1u)
        << "telemetry should infer exactly one outage";
    // Open edge: the crash is visible the moment its window closes —
    // at most two window-widths after the plan's instantaneous open.
    EXPECT_GT(inf.open[0].start, plan.open[0].start);
    EXPECT_LE(inf.open[0].start, plan.open[0].start + 2 * W);
    // Close edge: never before the actual recovery, and within a
    // bounded number of windows after it (healthy evidence must
    // accumulate across bursty traffic, so the bound is loose).
    ASSERT_NE(inf.open[0].end, 0u)
        << "breaker never closed after recovery";
    EXPECT_GE(inf.open[0].end, plan.open[0].end);
    EXPECT_LE(inf.open[0].end, plan.open[0].end + 16 * W);
    // Probation follows the inferred close, plan-style.
    ASSERT_EQ(inf.halfOpen.size(), 1u);
    EXPECT_EQ(inf.halfOpen[0].start, inf.open[0].end);
    EXPECT_EQ(inf.halfOpen[0].end,
              inf.open[0].end + cc.resilience.health.cooldownCycles);
    // The healthy replicas never error, so error-only telemetry keeps
    // their breakers closed for the whole run.
    EXPECT_TRUE(r.breakers[0].open.empty());
    EXPECT_TRUE(r.breakers[2].open.empty());
    EXPECT_TRUE(r.breakers[3].open.empty());
}

TEST(TelemetryBreaker, AvailabilityMatchesPlainFailoverOnAcceptancePlan)
{
    TraceConfig tc = sessionClusterTrace(40, 4); // 160 requests
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    cc.engine.prefixCache.capacityTokens = 1 << 18;

    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster probe(cc, policy);
    const dam::Cycle makespan = probe.run(probe_reqs).aggregate.makespan;
    const int64_t submitted = int64_t(probe_reqs.size());

    cc.faults = acceptancePlan(makespan);

    auto plain_reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult plain = ServingCluster(cc, policy).run(plain_reqs);
    expectAccountingCloses(plain.aggregate, submitted);

    cc.resilience.enabled = true;
    cc.resilience.remotePrefix.enabled = true;
    cc.resilience.breakerSource = BreakerSource::Telemetry;
    auto res_reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult res = ServingCluster(cc, policy).run(res_reqs);
    expectAccountingCloses(res.aggregate, submitted);

    // The acceptance bar for inferred breakers: routing on what a
    // monitor can observe — rather than the plan's ground truth — must
    // not give back the availability the tier bought.
    EXPECT_GE(res.aggregate.availability, plain.aggregate.availability);
    EXPECT_GT(res.migrationsIssued, 0)
        << "telemetry-sourced tier never exercised migration";
}

TEST(TelemetryBreaker, TelemetryRunIsThreadCountInvariantAndReplays)
{
    TraceConfig tc = sessionClusterTrace(24, 3);
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t threads) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.engine.prefixCache.capacityTokens = 1 << 18;
        cc.faults.crashes.push_back({1, 20'000'000, 45'000'000});
        cc.faults.slowdowns.push_back({2, 30'000'000, 80'000'000, 0.5});
        cc.resilience.enabled = true;
        cc.resilience.breakerSource = BreakerSource::Telemetry;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ClusterResult r = ServingCluster(cc, policy).run(reqs);
        return std::make_pair(std::move(r), std::move(reqs));
    };
    auto [r1, q1] = run_with(1);
    auto [r4, q4] = run_with(4);
    auto [r1b, q1b] = run_with(1); // same seed replays bit-identically

    // The observation pass and the inferred timelines are coordinator
    // pre-passes: identical breaker windows whatever the thread count.
    ASSERT_EQ(r1.breakers.size(), r4.breakers.size());
    for (size_t i = 0; i < r1.breakers.size(); ++i) {
        ASSERT_EQ(r1.breakers[i].open.size(),
                  r4.breakers[i].open.size());
        for (size_t w = 0; w < r1.breakers[i].open.size(); ++w) {
            EXPECT_EQ(r1.breakers[i].open[w].start,
                      r4.breakers[i].open[w].start);
            EXPECT_EQ(r1.breakers[i].open[w].end,
                      r4.breakers[i].open[w].end);
            EXPECT_EQ(r1.breakers[i].open[w].start,
                      r1b.breakers[i].open[w].start);
        }
    }
    EXPECT_EQ(r1.aggregate.completed, r4.aggregate.completed);
    EXPECT_EQ(r1.aggregate.failedRequests, r4.aggregate.failedRequests);
    EXPECT_EQ(r1.aggregate.makespan, r4.aggregate.makespan);
    EXPECT_EQ(r1.aggregate.ttftP99, r4.aggregate.ttftP99);
    EXPECT_EQ(r1.migrationsIssued, r4.migrationsIssued);
    EXPECT_EQ(r1.aggregate.makespan, r1b.aggregate.makespan);
    EXPECT_EQ(r1.migrationsIssued, r1b.migrationsIssued);
    ASSERT_EQ(q1.size(), q4.size());
    for (size_t i = 0; i < q1.size(); ++i) {
        EXPECT_EQ(q1[i].state, q4[i].state);
        EXPECT_EQ(q1[i].finishedAt, q4[i].finishedAt);
        EXPECT_EQ(q1[i].state, q1b[i].state);
        EXPECT_EQ(q1[i].finishedAt, q1b[i].finishedAt);
    }
    expectAccountingCloses(r1.aggregate, int64_t(q1.size()));
}
