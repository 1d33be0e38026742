/**
 * @file
 * Resilience-tier tests: breaker timelines derived from fault plans
 * (detection lag, cooldown, permanent crashes), the brown-out admission
 * ladder's pressure rungs, the autoscaler's step timeline, health-scored
 * placement (affinity preference, half-open penalty, parking waivers),
 * the engine's slowdown-drain migration,
 * and the cluster acceptance criteria: under a crash+slowdown plan the
 * tier beats plain failover on tail latency without losing availability,
 * stays thread-count invariant, and — disabled — leaves the plain fault
 * tier's behavior untouched.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string>

#include "obs/export.hh"
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
    BreakerTimeline b = computeBreakerTimeline(t); // cooldown 2'000'000

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
    // Detect 500k; deep is <= 0.75, cooldown 2M.
    ASSERT_EQ(kBreakerDetectCycles, 500'000u);
    // Deep and long: trips, but only kBreakerDetectCycles after onset.
    ReplicaFaultTimeline deep;
    deep.slowdowns.push_back({1'000'000, 4'000'000, 0.5});
    BreakerTimeline b = computeBreakerTimeline(deep);
    EXPECT_EQ(b.stateAt(1'000'000), BreakerState::Closed); // lag
    EXPECT_EQ(b.stateAt(1'500'000), BreakerState::Open);
    EXPECT_EQ(b.stateAt(4'000'000), BreakerState::HalfOpen);
    EXPECT_EQ(b.stateAt(6'000'000), BreakerState::Closed);

    // Deep but shorter than the detection lag: never trips.
    ReplicaFaultTimeline blip;
    blip.slowdowns.push_back({1'000'000, 1'400'000, 0.5});
    BreakerTimeline bb = computeBreakerTimeline(blip);
    EXPECT_TRUE(bb.open.empty());
    EXPECT_TRUE(bb.halfOpen.empty());

    // Long but shallow (factor above 0.75): never trips.
    ReplicaFaultTimeline shallow;
    shallow.slowdowns.push_back({1'000'000, 9'000'000, 0.9});
    BreakerTimeline bs = computeBreakerTimeline(shallow);
    EXPECT_TRUE(bs.open.empty());
    EXPECT_TRUE(slowdownTrips(shallow).empty());

    // The trip windows are the breaker's slowdown opens.
    const auto trips = slowdownTrips(deep);
    ASSERT_EQ(trips.size(), 1u);
    EXPECT_EQ(trips[0].start, 1'500'000u);
    EXPECT_EQ(trips[0].end, 4'000'000u);

    // Exactly kBreakerDetectCycles long: the window ends as the lag
    // does, so it never trips.
    ReplicaFaultTimeline edge;
    edge.slowdowns.push_back({1'000'000, 1'500'000, 0.5});
    EXPECT_TRUE(slowdownTrips(edge).empty());
    BreakerTimeline be = computeBreakerTimeline(edge);
    EXPECT_TRUE(be.open.empty());
    EXPECT_TRUE(be.halfOpen.empty());

    // Exactly at factor 0.75: deep enough, so it trips.
    ReplicaFaultTimeline at_factor;
    at_factor.slowdowns.push_back({1'000'000, 4'000'000, 0.75});
    const auto at_trips = slowdownTrips(at_factor);
    ASSERT_EQ(at_trips.size(), 1u);
    EXPECT_EQ(at_trips[0].start, 1'500'000u);
    EXPECT_EQ(at_trips[0].end, 4'000'000u);
    BreakerTimeline ba = computeBreakerTimeline(at_factor);
    EXPECT_EQ(ba.stateAt(1'499'999), BreakerState::Closed);
    EXPECT_EQ(ba.stateAt(1'500'000), BreakerState::Open);
    EXPECT_EQ(ba.stateAt(4'000'000), BreakerState::HalfOpen);
}

TEST(Breaker, PermanentCrashOpensForeverWithNoProbation)
{
    ReplicaFaultTimeline t;
    t.downs.push_back({500, 0});
    BreakerTimeline b = computeBreakerTimeline(t);
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
    ASSERT_EQ(BrownoutPolicy::kQueueFullDepth, 64);
    AdmissionContext ctx = ctxWithQueue(32);
    EXPECT_DOUBLE_EQ(BrownoutPolicy::pressure(ctx), 0.5);
    ctx.kvReservedBytes = 800; // KV signal 0.8 dominates
    EXPECT_DOUBLE_EQ(BrownoutPolicy::pressure(ctx), 0.8);
    ctx.totalComputeBw = 819; // 90% degraded dominates everything
    EXPECT_NEAR(BrownoutPolicy::pressure(ctx), 0.9, 1e-3);
    // An engine that predates the nominal-bandwidth signal reports 0
    // for it; degradation then reads as "not degraded", never negative.
    ctx.nominalComputeBw = 0;
    ctx.kvReservedBytes = 0;
    ctx.waitingRequests = 0;
    EXPECT_DOUBLE_EQ(BrownoutPolicy::pressure(ctx), 0.0);
}

TEST(Brownout, LadderRungsEngageInPriorityOrder)
{
    BrownoutPolicy pol; // shed low at .5, cap at .75, refuse at .95
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
    EXPECT_EQ(pol.outputCap(normal, hot), BrownoutPolicy::kOutputCapTokens);
    EXPECT_EQ(pol.outputCap(low, hot), BrownoutPolicy::kOutputCapTokens);
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

    // A long quiet stretch, then a heavy burst: the scaler should park
    // replicas early and win them back when the burst lands.
    std::vector<Request> reqs;
    for (int i = 0; i < 40; ++i) {
        Request r;
        r.id = i;
        // 2 light early arrivals, then 38 heavy ones late.
        r.arrival = i < 2 ? i * 2'000'000 : 80'000'000 + i * 40'000;
        r.promptLen = i < 2 ? 16 : 1024;
        r.outputLen = i < 2 ? 4 : 128;
        reqs.push_back(r);
    }
    // flopsPerToken sized so the burst saturates one active replica
    // over one 4M-cycle evaluation interval (38 reqs x ~1152 tok x 800k
    // flops vs 8192 flops/cyc x 4M cyc) but not the full fleet —
    // exercising both scaler directions.
    const std::vector<ReplicaFaultTimeline> healthy(4);
    const auto steps = computeAutoscaleTimeline(ac, reqs, healthy,
                                                /*flopsPerToken=*/800'000,
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
    EXPECT_TRUE(computeAutoscaleTimeline({}, reqs, healthy, 5'000, 8192)
                    .empty());
    EXPECT_TRUE(computeAutoscaleTimeline(ac, {}, healthy, 5'000, 8192)
                    .empty());
}

// ---- health-scored placement ------------------------------------------

namespace {

/** @p plan split per replica, as a cluster hands it to placement. */
std::vector<ReplicaFaultTimeline>
timelines(const FaultPlan& plan, int64_t replicas = 4)
{
    std::vector<ReplicaFaultTimeline> out;
    for (int64_t r = 0; r < replicas; ++r)
        out.push_back(plan.forReplica(r));
    return out;
}

const std::vector<ReplicaFaultTimeline> kHealthy(4);

} // namespace

TEST(Placement, PicksLeastLoadedAliveWithTiesToLowestIndex)
{
    const std::vector<int64_t> load{50, 20, 20, 90};
    EXPECT_EQ(pickResilientTarget(load, kHealthy, {}, {}, 0, -1), 1);

    FaultPlan plan;
    plan.crashes.push_back({1, 0, 0}); // best candidate is dead
    EXPECT_EQ(pickResilientTarget(load, timelines(plan), {}, {}, 0, -1), 2);

    // Everyone dead: no target.
    FaultPlan all_dead;
    for (int64_t r = 0; r < 4; ++r)
        all_dead.crashes.push_back({r, 0, 0});
    EXPECT_EQ(
        pickResilientTarget(load, timelines(all_dead), {}, {}, 0, -1), -1);
}

TEST(Placement, OpenBreakerExcludesUnlessNoAlternative)
{
    const std::vector<int64_t> load{10, 80};
    ReplicaFaultTimeline slow;
    slow.slowdowns.push_back({0, 10'000'000, 0.5});
    std::vector<BreakerTimeline> breakers{computeBreakerTimeline(slow),
                                          BreakerTimeline{}};
    // Replica 0 is cheap but breaker-open: traffic shifts to 1.
    const dam::Cycle at = 1'000'000;
    ASSERT_TRUE(breakers[0].openAt(at));
    EXPECT_EQ(pickResilientTarget(load, kHealthy, breakers, {}, at, -1), 1);
    // With replica 1 dead, the open breaker is waived — an open breaker
    // beats a dead cluster.
    FaultPlan plan;
    plan.crashes.push_back({1, 0, 0});
    EXPECT_EQ(
        pickResilientTarget(load, timelines(plan), breakers, {}, at, -1),
        0);
}

TEST(Placement, HalfOpenPenaltyAndSlowdownScaleTheScore)
{
    // Replica 0: load 10, half-open (score 10 * 2 = 20).
    // Replica 1: load 15, closed (score 15). 1 wins despite more load.
    ReplicaFaultTimeline recovered;
    recovered.downs.push_back({0, 1'000});
    std::vector<BreakerTimeline> breakers{computeBreakerTimeline(recovered),
                                          BreakerTimeline{}};
    const dam::Cycle at = 2'000; // inside the cooldown
    ASSERT_EQ(breakers[0].stateAt(at), BreakerState::HalfOpen);
    EXPECT_EQ(
        pickResilientTarget({10, 15}, kHealthy, breakers, {}, at, -1), 1);
    // A shallow slowdown (not breaker-worthy) still inflates the score:
    // replica 0 at factor 0.8 scores 10 / 0.8 = 12.5 > 11.
    FaultPlan plan;
    plan.slowdowns.push_back({0, 0, 10'000, 0.8});
    EXPECT_EQ(
        pickResilientTarget({10, 11}, timelines(plan), {}, {}, 0, -1), 1);
}

TEST(Placement, AffinityOwnerWinsWithinItsLoadFactor)
{
    // Owner (replica 2) carries 30 against a minimum of 25: within the
    // 1.5x allowance, the warm cache wins.
    EXPECT_EQ(pickResilientTarget({40, 25, 30}, kHealthy, {}, {}, 0, 2), 2);
    // At 60 it is past the allowance: least-loaded wins instead.
    EXPECT_EQ(pickResilientTarget({40, 25, 60}, kHealthy, {}, {}, 0, 2), 1);
    // A dead owner never wins, whatever its load.
    FaultPlan plan;
    plan.crashes.push_back({2, 0, 0});
    EXPECT_EQ(
        pickResilientTarget({40, 25, 0}, timelines(plan), {}, {}, 0, 2), 1);
}

TEST(Placement, AutoscaleParkingRestrictsAndIsWaivedWhenEmpty)
{
    std::vector<AutoscaleStep> steps{{0, 2}};
    // Replicas 2 and 3 are parked: the cheap parked replica is skipped.
    EXPECT_EQ(
        pickResilientTarget({50, 40, 5, 5}, kHealthy, {}, steps, 100, -1),
        1);
    // Both active replicas dead: parking is waived rather than failing.
    FaultPlan plan;
    plan.crashes.push_back({0, 0, 0});
    plan.crashes.push_back({1, 0, 0});
    EXPECT_EQ(pickResilientTarget({50, 40, 5, 5}, timelines(plan), {}, steps,
                                  100, -1),
              2);
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

    // A deep slowdown covering the back half of the run, drained where
    // it trips the breaker.
    const dam::Cycle start = makespan / 3;
    ec.faults.slowdowns.push_back({start, makespan * 2, 0.5});
    const auto trips = slowdownTrips(ec.faults);
    ASSERT_EQ(trips.size(), 1u);
    ec.drainAt = {trips[0].start};
    auto reqs = generateTrace(tc, 5);
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    EXPECT_GT(r.summary.migratedRequests, 0);
    const dam::Cycle edge = start + kBreakerDetectCycles;
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

    // No drain (the default): the same plan migrates nothing.
    EngineConfig plain = ec;
    plain.drainAt.clear();
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
    cc.resilience.breakerSource = BreakerSource::Telemetry;
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
    // 50k cycles fixed, 100 per carried token, at most 3 migrations.
    ASSERT_EQ(MigrationHandoff::kFixedCycles, 50'000u);
    ASSERT_EQ(MigrationHandoff::kPerTokenCycles, 100u);
    ASSERT_EQ(MigrationHandoff::kMaxMigrations, 3);
    const MigrationHandoff handoff;

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
    EXPECT_EQ(*soft, 5000u + 50'000u + 40u * 100u);
    EXPECT_EQ(*hard, 55'000u);

    EXPECT_TRUE(handoff.reschedule(crashed, 3, 5000).has_value());
    EXPECT_FALSE(handoff.reschedule(crashed, 4, 5000).has_value());

    crashed.deadlineAt = 55'000; // landing exactly on the deadline is fine
    EXPECT_TRUE(handoff.reschedule(crashed, 1, 5000).has_value());
    crashed.deadlineAt = 54'999;
    EXPECT_FALSE(handoff.reschedule(crashed, 1, 5000).has_value());
}

namespace {

/**
 * A two-replica resilient cluster with single-token prefill-only work
 * (StaticSplitPolicy(0.3)), tracing at request level so each
 * incarnation's arrival is observable. t0 is one 1024-token prompt's
 * unperturbed prefill time (about 6.2M cycles); the breaker (and with
 * it the engine drain) detects a deep slowdown kBreakerDetectCycles
 * (500k) after it starts.
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
            kBreakerDetectCycles * prefillBw(0.4);
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
    r.blockHashes = BlockHashes(
        std::vector<uint64_t>(HandoffRig::kPrompt / kPrefixBlockTokens, 1));
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
    const dam::Cycle edge = slow_at + kBreakerDetectCycles;
    rig.cc.faults.slowdowns.push_back(
        {0, slow_at, slow_at + 20 * rig.t0, 0.4});
    std::vector<Request> reqs = {prefillOnly(0, 0)};
    StaticSplitPolicy policy(0.3);
    ClusterResult res = ServingCluster(rig.cc, policy).run(reqs);

    EXPECT_EQ(res.migrationsIssued, 1);
    ASSERT_EQ(reqs[0].state, ReqState::Finished);
    EXPECT_EQ(reqs[0].attempt, 1);
    const int64_t kv = rig.prefilledAtDrain(0, slow_at);
    EXPECT_EQ(kv, 288);
    EXPECT_EQ(reqs[0].remoteKvTokens, kv);

    const obs::RequestLifecycle* src = HandoffRig::find(res, 0, 0, 0);
    const obs::RequestLifecycle* inc = HandoffRig::find(res, 1, 0, 1);
    ASSERT_NE(src, nullptr);
    ASSERT_NE(inc, nullptr);
    EXPECT_TRUE(src->migrated);
    EXPECT_EQ(src->migratedAt, edge);
    EXPECT_EQ(inc->arrival,
              edge + MigrationHandoff::kFixedCycles +
                  static_cast<dam::Cycle>(kv) *
                      MigrationHandoff::kPerTokenCycles);
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
    const dam::Cycle edge = slow_at + kBreakerDetectCycles;
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

    const int64_t kv = rig.prefilledAtDrain(a1, slow_at);
    const int64_t credit = HandoffRig::kPrompt - 1; // whole prompt cached
    EXPECT_EQ(kv, 288);
    const dam::Cycle handed =
        edge + MigrationHandoff::kFixedCycles +
        static_cast<dam::Cycle>(kv) * MigrationHandoff::kPerTokenCycles;
    // One 20,000-cycle lookup plus 150 cycles per fetched token.
    const dam::Cycle fetched =
        handed + 20'000 + static_cast<dam::Cycle>(credit - kv) * 150;
    EXPECT_EQ(inc->arrival, fetched);
    EXPECT_EQ(reqs[1].remoteKvTokens, credit);
}

// ---- telemetry-inferred breakers ---------------------------------------

TEST(HealthMonitor, ErrorWindowOpensAtItsCloseEdgeAndHealthyStreakCloses)
{
    HealthMonitorConfig hc;
    hc.windowCycles = 1'000;
    hc.closeAfterHealthy = 2;
    hc.cooldownCycles = 5'000;
    HealthMonitor hm(hc);
    hm.observeWindow(0, 10, 100); // w0 healthy
    hm.observeWindow(3, 2, 100);  // w1 errors -> open at close (2000)
    hm.observeWindow(0, 8, 100);  // w2 healthy (streak 1)
    hm.observeWindow(0, 9, 100);  // w3 healthy (streak 2) -> close @4000
    BreakerTimeline tl = hm.timeline();

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
    BreakerTimeline tl = hm.timeline();

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
    BreakerTimeline tl = hm.timeline();

    ASSERT_EQ(tl.open.size(), 1u);
    EXPECT_EQ(tl.open[0].start, 3'000u);
    EXPECT_EQ(tl.open[0].end, 6'000u);
    ASSERT_EQ(tl.halfOpen.size(), 1u);
    EXPECT_EQ(tl.halfOpen[0].start, 6'000u);
    EXPECT_EQ(tl.halfOpen[0].end, 8'000u);
}

TEST(HealthMonitor, InferredTimelineDivergesFromPlanUnderShallowSlowdown)
{
    // A shallow slowdown (factor above slowdownTrips' 0.75) never
    // trips the plan-derived breaker...
    ReplicaFaultTimeline ft;
    ft.slowdowns.push_back({2'000, 5'000, 0.85});
    EXPECT_TRUE(computeBreakerTimeline(ft).open.empty());

    // ...but the telemetry monitor only sees the latency it causes:
    // enough consecutive windows over the TTFT threshold open the
    // inferred breaker the plan never scripted. The first tokens come
    // in as a replica's live run reports them, and each window closes
    // at its edge.
    HealthMonitorConfig hc;
    hc.windowCycles = 1'000;
    hc.degradedTtftCycles = 500.0;
    hc.openAfterDegraded = 2;
    hc.closeAfterHealthy = 2;
    hc.cooldownCycles = 2'000;
    HealthMonitor hm(hc);
    auto window = [&](uint64_t w, uint64_t ttft) {
        for (int i = 0; i < 8; ++i)
            hm.firstToken(w * 1'000 + 100 + uint64_t(i), ttft);
        hm.closeUntil((w + 1) * 1'000);
    };
    for (uint64_t w : {0u, 1u}) // healthy lead-in
        window(w, 100);
    for (uint64_t w : {2u, 3u, 4u}) // slowdown inflates windowed p95
        window(w, 900);
    for (uint64_t w : {5u, 6u}) // back to healthy
        window(w, 100);
    BreakerTimeline tl = hm.timeline();

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
        computeBreakerTimeline(cc.faults.forReplica(1));
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

    // The monitors decide on the coordinating thread at each window
    // edge: identical breaker windows whatever the thread count.
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

TEST(TelemetryBreaker, OpenBreakerProbesAndClosesAfterRecovery)
{
    // Replica 1 crashes and recovers. Its breaker opens on the crash's
    // failures, and the router then sends it nothing but probes: at
    // most one arrival per window, and only once it is back up. Their
    // healthy first tokens close the breaker soon after the recovery.
    TraceConfig tc;
    tc.numRequests = 200;
    tc.arrivalsPerKcycle = 0.002; // ~4 arrivals per 2M-cycle window
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 2;
    cc.routing = RouteKind::RoundRobin;
    const dam::Cycle fail_at = 20'000'000, recover_at = 40'000'000;
    cc.faults.crashes.push_back({1, fail_at, recover_at});
    cc.resilience.enabled = true;
    cc.resilience.breakerSource = BreakerSource::Telemetry;
    cc.resilience.health.degradedTtftCycles = 1e18; // errors only
    auto reqs = generateTrace(tc, deriveSeed(2));
    ASSERT_GT(reqs.back().arrival, recover_at + 20'000'000);
    ClusterResult r = ServingCluster(cc, policy).run(reqs);
    expectAccountingCloses(r.aggregate, int64_t(reqs.size()));

    const dam::Cycle W = cc.resilience.health.windowCycles;
    const BreakerTimeline& b = r.breakers[1];
    ASSERT_EQ(b.open.size(), 1u);
    EXPECT_GT(b.open[0].start, fail_at);
    EXPECT_LE(b.open[0].start, fail_at + 2 * W);
    ASSERT_NE(b.open[0].end, 0u) << "the breaker never closed";
    EXPECT_GE(b.open[0].end, recover_at);
    // Two quiet windows arm the probes during the outage; the first
    // windows after the recovery take a probe each, and two healthy
    // ones close the breaker.
    EXPECT_LE(b.open[0].end, recover_at + 4 * W);
    EXPECT_EQ(b.open[0].end % W, 0u);
    EXPECT_TRUE(r.breakers[0].open.empty());

    std::vector<int64_t> probes_per_window(
        static_cast<size_t>(b.open[0].end / W), 0);
    for (const Request& q : r.replicas[1].requests)
        if (q.arrival >= b.open[0].start && q.arrival < b.open[0].end)
            ++probes_per_window[static_cast<size_t>(q.arrival / W)];
    int64_t probes = 0;
    for (size_t w = 0; w < probes_per_window.size(); ++w) {
        EXPECT_LE(probes_per_window[w], 1) << "window " << w;
        if (dam::Cycle(w + 1) * W <= recover_at) {
            EXPECT_EQ(probes_per_window[w], 0) << "window " << w;
        }
        probes += probes_per_window[w];
    }
    EXPECT_GE(probes, 2);
}

TEST(TelemetryBreaker, ArrivalsIntoADeliveredOutageAreRefusedWhenRouted)
{
    // One replica, so nothing is up during its outage. With telemetry
    // breakers the outage's arrivals are routed at window edges after
    // the crash was delivered: each is refused on its arrival, as a
    // crash refuses the arrivals it already holds.
    TraceConfig tc;
    tc.numRequests = 60;
    tc.arrivalsPerKcycle = 0.002;
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 1;
    const dam::Cycle fail_at = 8'000'000, recover_at = 16'000'000;
    cc.faults.crashes.push_back({0, fail_at, recover_at});
    cc.resilience.enabled = true;
    cc.resilience.breakerSource = BreakerSource::Telemetry;
    auto reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult r = ServingCluster(cc, policy).run(reqs);
    expectAccountingCloses(r.aggregate, int64_t(reqs.size()));

    int64_t refused = 0;
    for (const Request& q : r.replicas[0].requests)
        if (q.attempt == 0 &&
            q.arrival >= fail_at + cc.resilience.health.windowCycles &&
            q.arrival < recover_at) {
            EXPECT_EQ(q.state, ReqState::Failed) << "request " << q.id;
            EXPECT_EQ(q.finishedAt, q.arrival) << "request " << q.id;
            ++refused;
        }
    EXPECT_GT(refused, 0);
}

TEST(TelemetryBreaker, BreakerEdgesBeforeAWindowEdgeIgnoreLaterArrivals)
{
    // Causality: cutting the trace at a window edge W changes nothing a
    // breaker decided before W. Autoscale stays off: its steps are
    // computed from the whole trace up front.
    TraceConfig tc = sessionClusterTrace(24, 3);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    cc.engine.prefixCache.capacityTokens = 1 << 18;
    auto full = generateTrace(tc, deriveSeed(2));
    const dam::Cycle last = full.back().arrival;
    cc.faults.crashes.push_back({1, last / 4, last / 2});
    cc.faults.slowdowns.push_back({2, last / 3, last * 2 / 3, 0.5});
    cc.resilience.enabled = true;
    cc.resilience.breakerSource = BreakerSource::Telemetry;
    cc.resilience.remotePrefix.enabled = true;
    const dam::Cycle width = cc.resilience.health.windowCycles;
    const dam::Cycle W = last * 3 / 4 / width * width;
    auto cut = full;
    std::erase_if(cut, [&](const Request& q) { return q.arrival >= W; });
    ASSERT_LT(cut.size(), full.size());

    const ClusterResult a = ServingCluster(cc, policy).run(full);
    const ClusterResult b = ServingCluster(cc, policy).run(cut);
    auto edges_before = [&](const BreakerTimeline& t) {
        std::vector<std::pair<dam::Cycle, int>> out;
        for (const auto* windows : {&t.open, &t.halfOpen})
            for (const BreakerTimeline::Window& w : *windows) {
                const int kind = windows == &t.open ? 0 : 2;
                if (w.start < W)
                    out.push_back({w.start, kind});
                if (w.end != 0 && w.end < W)
                    out.push_back({w.end, kind + 1});
            }
        std::ranges::sort(out);
        return out;
    };
    size_t edges = 0;
    for (size_t r = 0; r < a.breakers.size(); ++r) {
        SCOPED_TRACE(r);
        EXPECT_EQ(edges_before(a.breakers[r]), edges_before(b.breakers[r]));
        edges += edges_before(a.breakers[r]).size();
    }
    EXPECT_GT(edges, 0u) << "no breaker moved before the cut";
}

TEST(Resilience, EpochsSimulateEachIterationOnceAndStayThreadInvariant)
{
    // A seeded crash+slowdown plan on the full tier, telemetry breakers
    // (whose window edges are cluster barriers too), a prefix cache
    // and remote prefix fetch, traced and metered: failover runs epoch
    // by epoch between the fault edges, simulates every replica
    // iteration exactly once, and stays byte-identical across
    // worker-thread counts.
    TraceConfig tc = sessionClusterTrace(24, 3);
    tc.lowPriorityFrac = 0.2;
    tc.highPriorityFrac = 0.1;
    QueueDepthPolicy policy;
    BrownoutPolicy brownout;
    const auto probe = generateTrace(tc, deriveSeed(2));
    FaultPlanConfig fc;
    fc.mtbfCycles = 30'000'000;
    fc.mttrCycles = fc.mtbfCycles / 4;
    fc.slowdownMtbfCycles = 20'000'000;
    fc.horizonCycles = probe.back().arrival * 2;

    struct Outcome
    {
        ClusterResult r;
        std::vector<Request> reqs;
        std::string trace, lifecycles, metrics;
    };
    auto run_with = [&](int64_t threads) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.faults = generateFaultPlan(fc, cc.replicas, deriveSeed(3));
        cc.engine.prefixCache.capacityTokens = 1 << 14;
        cc.engine.admission = &brownout;
        cc.resilience.enabled = true;
        cc.resilience.breakerSource = BreakerSource::Telemetry;
        cc.resilience.remotePrefix.enabled = true;
        cc.trace = obs::TraceOptions{obs::TraceLevel::Request,
                                     size_t{1} << 20};
        cc.metrics.enabled = true;
        Outcome o;
        o.reqs = generateTrace(tc, deriveSeed(2));
        o.r = ServingCluster(cc, policy).run(o.reqs);
        std::ostringstream t, l, m;
        obs::writeChromeTrace(t, o.r.traceViews());
        obs::writeRequestJsonl(l, o.r.traceViews());
        obs::writeMetricsJson(m, o.r.metricsViews(),
                              o.r.mergedMetrics.get());
        o.trace = t.str();
        o.lifecycles = l.str();
        o.metrics = m.str();
        return o;
    };
    const Outcome a = run_with(1);
    const Outcome b = run_with(4);

    EXPECT_GT(a.r.epochs, 1);
    EXPECT_GT(a.r.retriesIssued + a.r.migrationsIssued, 0);
    EXPECT_EQ(a.r.replicaIterationsSimulated, a.r.totalIterations);

    EXPECT_TRUE(a.r.aggregate == b.r.aggregate);
    ASSERT_EQ(a.r.replicas.size(), b.r.replicas.size());
    for (size_t i = 0; i < a.r.replicas.size(); ++i) {
        EXPECT_TRUE(a.r.replicas[i].result.summary ==
                    b.r.replicas[i].result.summary);
        EXPECT_TRUE(a.r.replicas[i].result.samples ==
                    b.r.replicas[i].result.samples);
        EXPECT_EQ(a.r.replicas[i].result.iterations,
                  b.r.replicas[i].result.iterations);
    }
    EXPECT_EQ(a.r.totalIterations, b.r.totalIterations);
    EXPECT_EQ(a.r.retriesIssued, b.r.retriesIssued);
    EXPECT_EQ(a.r.migrationsIssued, b.r.migrationsIssued);
    EXPECT_EQ(a.r.epochs, b.r.epochs);
    EXPECT_EQ(a.r.replicaIterationsSimulated,
              b.r.replicaIterationsSimulated);
    EXPECT_TRUE(a.reqs == b.reqs);
    // Not EXPECT_EQ: gtest would diff the multi-megabyte exports.
    EXPECT_TRUE(a.trace == b.trace) << "trace JSON differs";
    EXPECT_TRUE(a.lifecycles == b.lifecycles) << "requests JSONL differs";
    EXPECT_TRUE(a.metrics == b.metrics) << "metrics JSON differs";
    expectAccountingCloses(a.r.aggregate, int64_t(a.reqs.size()));
}

namespace {

/** One cluster-decision instant read back from an exported trace. */
struct Stamped
{
    int64_t pid = 0, tid = 0;
    dam::Cycle ts = 0;
    std::string name;
    int64_t value = 0;

    bool operator==(const Stamped&) const = default;
};

/** The integer after @p key ("\"ts\":") in one exported event line. */
int64_t
traceField(const std::string& line, const std::string& key)
{
    const size_t at = line.find(key);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    return at == std::string::npos
               ? -1
               : std::stoll(line.substr(at + key.size()));
}

/** Every breaker.* and autoscale.active instant in @p json, in export
 *  order (the exporter writes one event per line). */
std::vector<Stamped>
clusterDecisions(const std::string& json)
{
    std::vector<Stamped> out;
    std::istringstream in(json);
    for (std::string line; std::getline(in, line);) {
        const std::string tag = "\"ph\":\"i\",\"name\":\"";
        const size_t at = line.find(tag);
        if (at == std::string::npos)
            continue;
        const size_t from = at + tag.size();
        std::string name = line.substr(from, line.find('"', from) - from);
        if (!name.starts_with("breaker.") && name != "autoscale.active")
            continue;
        out.push_back({traceField(line, "\"pid\":"),
                       traceField(line, "\"tid\":"),
                       static_cast<dam::Cycle>(traceField(line, "\"ts\":")),
                       std::move(name), traceField(line, "\"v\":")});
    }
    return out;
}

} // namespace

TEST(Resilience, TraceHoldsExactlyTheBreakersAndStepsRoutingConsulted)
{
    // Plan breakers with the autoscaler on: replica 1 crashes and
    // recovers, and replica 2's deep slowdown outlives its last request,
    // so its breaker half-opens and closes after its run went quiet.
    // Each replica's exported breaker flips are the state changes of
    // the timeline routing consulted, on their exact cycles, and
    // replica 0's autoscale instants are the step timeline — all on the
    // cluster track, none on the lifecycle track.
    TraceConfig tc = sessionClusterTrace(24, 3);
    QueueDepthPolicy policy;
    std::vector<Request> reqs = generateTrace(tc, deriveSeed(2));
    const dam::Cycle span = reqs.back().arrival;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    cc.resilience.enabled = true;
    cc.resilience.autoscale.enabled = true;
    cc.faults.crashes.push_back({1, span / 4, span / 2});
    cc.faults.slowdowns.push_back({2, span / 3, span * 3, 0.4});
    cc.trace = obs::TraceOptions{obs::TraceLevel::Request, size_t{1} << 20};
    const ClusterResult r = ServingCluster(cc, policy).run(reqs);
    std::ostringstream json;
    obs::writeChromeTrace(json, r.traceViews());
    const std::vector<Stamped> got = clusterDecisions(json.str());
    for (const Stamped& s : got)
        EXPECT_EQ(s.tid, 3) << s.name << " at " << s.ts << " on replica "
                            << s.pid;

    ASSERT_EQ(r.breakers.size(), 4u);
    ASSERT_FALSE(r.autoscale.empty());
    dam::Cycle quiet = 0; // replica 2's last request event
    for (const Request& q : r.replicas[2].requests)
        quiet = std::max(quiet, q.finishedAt);
    bool after_quiet = false;
    for (int64_t p = 0; p < 4; ++p) {
        SCOPED_TRACE(p);
        // A state change is a cycle whose state differs from the one
        // before it; only window edges can be one.
        const BreakerTimeline& b = r.breakers[static_cast<size_t>(p)];
        std::vector<dam::Cycle> edges;
        for (const auto* windows : {&b.open, &b.halfOpen})
            for (const BreakerTimeline::Window& w : *windows)
                edges.insert(edges.end(), {w.start, w.end});
        std::ranges::sort(edges);
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        std::vector<Stamped> want;
        for (dam::Cycle c : edges) {
            const BreakerState st = b.stateAt(c);
            if (c == 0 || st == b.stateAt(c - 1))
                continue;
            want.push_back({p, 3, c,
                            st == BreakerState::Open       ? "breaker.open"
                            : st == BreakerState::HalfOpen ? "breaker.half_open"
                                                           : "breaker.closed",
                            p});
            after_quiet |= p == 2 && c > quiet;
        }
        if (p == 0)
            for (const AutoscaleStep& s : r.autoscale)
                want.push_back({0, 3, s.at, "autoscale.active", s.active});
        std::ranges::stable_sort(want, {}, &Stamped::ts);
        std::vector<Stamped> mine;
        std::ranges::copy_if(got, std::back_inserter(mine),
                             [&](const Stamped& s) { return s.pid == p; });
        EXPECT_EQ(want.empty(), p == 3); // replica 3 never faults
        EXPECT_TRUE(mine == want) << mine.size() << " cluster-track "
                                  << "instants, " << want.size()
                                  << " decisions";
    }
    EXPECT_TRUE(after_quiet) << "no breaker edge after replica 2 went quiet";
}
