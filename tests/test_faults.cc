/**
 * @file
 * Fault-tier tests: deterministic plan generation and parsing, the
 * engine's crash/recovery/slowdown semantics (no request lost, KV and
 * cache accounting intact on every abort path), retry/backoff and
 * deadline-aware shedding policies, cluster failover with availability
 * accounting, summary merging of the fault counters (NaN-free with
 * zero-fault and fully-failed replicas), thread-count invariance of
 * faulty runs, the structured StallError diagnostic that replaced
 * the engine's fatal idle assert, and the live-append contract: a run
 * advanced to a barrier, given arrivals at or after its horizon and
 * served to its end, ends exactly as a cold run over the grown input —
 * and a cluster's replicas end exactly as cold runs over their final
 * inputs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/export.hh"
#include "runtime/cluster.hh"
#include "support/error.hh"
#include "support/rng.hh"

using namespace step;
using namespace step::runtime;

namespace {

Request
mkReq(int64_t id, dam::Cycle arrival, int64_t prompt, int64_t output)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptLen = prompt;
    r.outputLen = output;
    return r;
}

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

/** Every request reached exactly one terminal state; none was lost. */
void
expectAllAccounted(const std::vector<Request>& reqs,
                   const ServingSummary& s)
{
    int64_t finished = 0, failed = 0, shed = 0;
    for (const Request& r : reqs) {
        EXPECT_TRUE(r.terminal()) << "request " << r.id << " not terminal";
        switch (r.state) {
          case ReqState::Finished:
            ++finished;
            break;
          case ReqState::Failed:
            ++failed;
            break;
          case ReqState::Shed:
            ++shed;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(finished + failed + shed,
              static_cast<int64_t>(reqs.size()));
    EXPECT_EQ(s.completed, finished);
    // Note: cluster summaries reclassify retried failures, so only the
    // completed count is compared against raw request states here.
}

} // namespace

// ---- plan generation & parsing ----------------------------------------

TEST(FaultPlan, GenerationIsDeterministicAndBounded)
{
    FaultPlanConfig fc;
    fc.mtbfCycles = 10'000'000;
    fc.mttrCycles = 2'000'000;
    fc.slowdownMtbfCycles = 8'000'000;
    fc.horizonCycles = 60'000'000;

    FaultPlan a = generateFaultPlan(fc, 4, 99);
    FaultPlan b = generateFaultPlan(fc, 4, 99);
    FaultPlan c = generateFaultPlan(fc, 4, 100);

    ASSERT_EQ(a.crashes.size(), b.crashes.size());
    for (size_t i = 0; i < a.crashes.size(); ++i) {
        EXPECT_EQ(a.crashes[i].replica, b.crashes[i].replica);
        EXPECT_EQ(a.crashes[i].failAt, b.crashes[i].failAt);
        EXPECT_EQ(a.crashes[i].recoverAt, b.crashes[i].recoverAt);
        EXPECT_LT(a.crashes[i].failAt, fc.horizonCycles);
    }
    ASSERT_EQ(a.slowdowns.size(), b.slowdowns.size());
    EXPECT_FALSE(a.empty());
    // A different seed draws a different plan.
    bool differs = a.crashes.size() != c.crashes.size();
    for (size_t i = 0; !differs && i < a.crashes.size(); ++i)
        differs = a.crashes[i].failAt != c.crashes[i].failAt;
    EXPECT_TRUE(differs);
    // Zero horizon = no plan at all.
    EXPECT_TRUE(generateFaultPlan(fc, 4, 99).empty() ==
                (fc.horizonCycles == 0));
    fc.horizonCycles = 0;
    EXPECT_TRUE(generateFaultPlan(fc, 4, 99).empty());
}

TEST(FaultPlan, ParseSpecAndRejectMalformed)
{
    FaultPlan p;
    std::string err;
    ASSERT_TRUE(
        parseFaultPlan("1@8000000:12000000, 2@5000000", &p, &err));
    ASSERT_EQ(p.crashes.size(), 2u);
    EXPECT_EQ(p.crashes[0].replica, 1);
    EXPECT_EQ(p.crashes[0].failAt, 8'000'000u);
    EXPECT_EQ(p.crashes[0].recoverAt, 12'000'000u);
    EXPECT_EQ(p.crashes[1].replica, 2);
    EXPECT_EQ(p.crashes[1].recoverAt, 0u);
    EXPECT_TRUE(p.forReplica(1).downAt(9'000'000));
    EXPECT_FALSE(p.forReplica(1).downAt(12'000'000)); // half-open window
    EXPECT_FALSE(p.forReplica(0).downAt(9'000'000));

    // Every number parses whole and unsigned: no trailing junk, no
    // fraction or exponent, no sign, no replica past int64_t.
    for (const char* bad :
         {"nonsense", "1@", "@5", "1@10:5", "-2@100", "1@x:y", "1x@5",
          "1@5x", "1@5:9z", "1.5@5", "1@-5", "1@5:-9", "1@4e6", "+1@5",
          "9223372036854775808@5"}) {
        FaultPlan q;
        EXPECT_FALSE(parseFaultPlan(bad, &q, &err)) << bad;
        EXPECT_FALSE(err.empty());
    }
}

TEST(FaultPlan, TimelineWindowsAndEdges)
{
    FaultPlan p;
    p.crashes.push_back({0, 100, 200});
    p.crashes.push_back({0, 500, 0});
    p.slowdowns.push_back({0, 300, 400, 0.5});
    ReplicaFaultTimeline t = p.forReplica(0);
    EXPECT_FALSE(t.downAt(99));
    EXPECT_TRUE(t.downAt(100));
    EXPECT_TRUE(t.downAt(199));
    EXPECT_FALSE(t.downAt(200));
    EXPECT_TRUE(t.downAt(500));
    EXPECT_TRUE(t.downAt(1'000'000'000)); // permanent
    EXPECT_DOUBLE_EQ(t.bwFactorAt(299), 1.0);
    EXPECT_DOUBLE_EQ(t.bwFactorAt(300), 0.5);
    EXPECT_DOUBLE_EQ(t.bwFactorAt(400), 1.0);
    EXPECT_EQ(t.nextEventAfter(0), 100u);
    EXPECT_EQ(t.nextEventAfter(100), 200u);
    EXPECT_EQ(t.nextEventAfter(250), 300u);
    EXPECT_EQ(t.nextEventAfter(500), ReplicaFaultTimeline::kNoEvent);
    // Another replica's events are invisible.
    EXPECT_TRUE(p.forReplica(1).empty());
}

TEST(FaultPlan, MttrZeroMakesEveryCrashPermanentAndTruncates)
{
    // MTTR 0 means crashes never repair: generation must emit at most
    // one crash per replica (everything after a permanent crash is
    // unreachable) and each must carry recoverAt == 0.
    FaultPlanConfig fc;
    fc.mtbfCycles = 10'000'000;
    fc.mttrCycles = 0;
    fc.horizonCycles = 200'000'000;
    FaultPlan p = generateFaultPlan(fc, 4, 7);
    ASSERT_FALSE(p.crashes.empty());
    int64_t per_replica[4] = {0, 0, 0, 0};
    for (const FaultEvent& e : p.crashes) {
        EXPECT_EQ(e.recoverAt, 0u);
        ASSERT_GE(e.replica, 0);
        ASSERT_LT(e.replica, 4);
        ++per_replica[e.replica];
    }
    for (int64_t n : per_replica)
        EXPECT_LE(n, 1);
    // The permanent timeline normalizes and stays down forever.
    ReplicaFaultTimeline t = p.forReplica(p.crashes[0].replica);
    EXPECT_TRUE(t.downAt(p.crashes[0].failAt));
    EXPECT_TRUE(t.downAt(ReplicaFaultTimeline::kNoEvent - 1));
}

TEST(FaultPlan, HorizonShorterThanFirstFailureYieldsEmptyPlan)
{
    // Draws are >= 1 cycle, so a 1-cycle horizon precedes every
    // possible failure — the plan must come back empty for any seed.
    FaultPlanConfig fc;
    fc.mtbfCycles = 5'000'000;
    fc.mttrCycles = 1'000'000;
    fc.slowdownMtbfCycles = 4'000'000;
    fc.horizonCycles = 1;
    for (uint64_t seed : {1u, 42u, 999u})
        EXPECT_TRUE(generateFaultPlan(fc, 8, seed).empty()) << seed;
}

TEST(FaultPlan, NormalizeRejectsOverlapsAndMalformedWindows)
{
    // Overlapping crash windows.
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 300});
        t.downs.push_back({200, 400});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // A permanent crash followed by a later event.
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 0});
        t.downs.push_back({200, 300});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Recovery not after its crash.
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 100});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Overlapping slowdown windows.
    {
        ReplicaFaultTimeline t;
        t.slowdowns.push_back({100, 300, 0.5});
        t.slowdowns.push_back({200, 400, 0.5});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Empty slowdown window and out-of-range factor.
    {
        ReplicaFaultTimeline t;
        t.slowdowns.push_back({100, 100, 0.5});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    {
        ReplicaFaultTimeline t;
        t.slowdowns.push_back({100, 200, 1.5});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Back-to-back (touching) windows are legal: [100,200) + [200,300).
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 200});
        t.downs.push_back({200, 300});
        t.slowdowns.push_back({300, 400, 0.5});
        t.slowdowns.push_back({400, 500, 0.5});
        EXPECT_NO_THROW(t.normalize());
    }
}

TEST(FaultPlan, NextEventAfterAlwaysAdvancesToNoEvent)
{
    // Walking nextEventAfter from 0 must strictly increase and reach
    // kNoEvent within the timeline's edge count — the loop-termination
    // property the engine's delivery loop depends on.
    auto walk = [](ReplicaFaultTimeline t, size_t max_edges) {
        t.normalize();
        dam::Cycle c = 0;
        size_t steps = 0;
        while (true) {
            const dam::Cycle n = t.nextEventAfter(c);
            if (n == ReplicaFaultTimeline::kNoEvent)
                break;
            EXPECT_GT(n, c) << "nextEventAfter did not advance";
            c = n;
            ++steps;
            if (steps > max_edges) {
                ADD_FAILURE() << "nextEventAfter loops";
                break;
            }
        }
        return steps;
    };
    ReplicaFaultTimeline mixed;
    mixed.downs.push_back({100, 200});
    mixed.downs.push_back({500, 700});
    mixed.slowdowns.push_back({300, 400, 0.5});
    EXPECT_EQ(walk(mixed, 6), 6u); // every edge visited exactly once
    ReplicaFaultTimeline permanent;
    permanent.downs.push_back({100, 0});
    EXPECT_EQ(walk(permanent, 1), 1u); // failAt only; no recovery edge
    EXPECT_EQ(walk({}, 0), 0u);        // empty timeline: no events
    // Probing at or past the last edge returns kNoEvent immediately.
    mixed.normalize();
    EXPECT_EQ(mixed.nextEventAfter(700), ReplicaFaultTimeline::kNoEvent);
    EXPECT_EQ(mixed.nextEventAfter(ReplicaFaultTimeline::kNoEvent - 1),
              ReplicaFaultTimeline::kNoEvent);
}

// ---- retry policy ------------------------------------------------------

TEST(Retry, ExponentialBackoffBoundsAttemptsAndRespectsDeadline)
{
    // Up to 3 retries after 1M, 2M and 4M cycles of backoff.
    const ExponentialBackoffRetry rp;
    Request r = mkReq(0, 0, 10, 5);

    auto a1 = rp.reschedule(r, 1, 5000);
    auto a2 = rp.reschedule(r, 2, 5000);
    auto a3 = rp.reschedule(r, 3, 5000);
    ASSERT_TRUE(a1.has_value());
    ASSERT_TRUE(a2.has_value());
    ASSERT_TRUE(a3.has_value());
    EXPECT_EQ(*a1, 1'005'000u);
    EXPECT_EQ(*a2, 2'005'000u); // backoff doubles
    EXPECT_EQ(*a3, 4'005'000u);
    EXPECT_FALSE(rp.reschedule(r, 4, 5000).has_value()); // > kMaxRetries

    r.deadlineAt = 505'000; // re-arrival 1'005'000 would be too late
    EXPECT_FALSE(rp.reschedule(r, 1, 5000).has_value());
    r.deadlineAt = 1'005'000;
    EXPECT_TRUE(rp.reschedule(r, 1, 5000).has_value());

    EXPECT_FALSE(NoRetryPolicy{}.reschedule(r, 1, 0).has_value());
}

TEST(Retry, ReArrivalBeforeTheFailureIsAFatalError)
{
    // RetryPolicy promises a re-arrival at or after the failure; the
    // cluster enforces that with a structured error rather than
    // silently replaying a retry into the past.
    struct TimeTravelRetry : RetryPolicy
    {
        std::optional<dam::Cycle>
        reschedule(const Request&, int64_t attempt,
                   dam::Cycle failed_at) const override
        {
            if (attempt > 1)
                return std::nullopt;
            return failed_at - 1;
        }
    } travel;
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 2;
    cc.retry = &travel;
    // Replica 0 dies for good while its only request is mid-prefill.
    cc.faults.crashes.push_back({0, 1'000'000, 0});
    std::vector<Request> reqs = {mkReq(0, 0, 4096, 8)};
    ServingCluster cluster(cc, policy);
    EXPECT_THROW(cluster.run(reqs), FatalError);
}

// ---- engine fault semantics -------------------------------------------

TEST(EngineFaults, EmptyPlanMatchesFaultFreeRun)
{
    TraceConfig tc = burstyTrace(30);
    QueueDepthPolicy policy;
    auto run_with = [&](ReplicaFaultTimeline faults) {
        auto reqs = generateTrace(tc, 5);
        EngineConfig ec;
        ec.faults = std::move(faults);
        ServingEngine engine(ec, policy);
        return engine.run(reqs);
    };
    EngineResult base = run_with({});
    // A timeline whose only event lies far beyond the makespan must not
    // perturb a single cycle of the run.
    ReplicaFaultTimeline far;
    far.slowdowns.push_back({base.summary.makespan * 10,
                             base.summary.makespan * 11, 0.5});
    EngineResult same = run_with(far);
    EXPECT_EQ(base.iterations, same.iterations);
    EXPECT_EQ(base.summary.makespan, same.summary.makespan);
    EXPECT_EQ(base.summary.completed, same.summary.completed);
    EXPECT_EQ(base.summary.ttftP99, same.summary.ttftP99);
    EXPECT_EQ(base.summary.failedRequests, 0);
    EXPECT_DOUBLE_EQ(base.summary.availability, 1.0);
}

TEST(EngineFaults, PermanentCrashFailsEverythingAfterIt)
{
    TraceConfig tc = burstyTrace(30);
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).summary.makespan;

    auto reqs = generateTrace(tc, 5);
    ec.faults.downs.push_back({makespan / 2, 0});
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    expectAllAccounted(reqs, r.summary);
    EXPECT_GT(r.summary.failedRequests, 0);
    EXPECT_GT(r.summary.completed, 0);
    EXPECT_LT(r.summary.availability, 1.0);
    EXPECT_GT(r.summary.availability, 0.0);
    for (const Request& q : reqs) {
        if (q.state != ReqState::Failed)
            continue;
        // Nothing finishes after the crash, and failures are stamped at
        // the crash (in-flight) or at their own arrival (refused).
        EXPECT_GE(q.finishedAt, makespan / 2);
    }
}

TEST(EngineFaults, RecoveryServesArrivalsAfterRepair)
{
    TraceConfig tc = burstyTrace(30);
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).summary.makespan;

    auto reqs = generateTrace(tc, 5);
    const dam::Cycle fail_at = makespan / 4;
    const dam::Cycle recover_at = makespan / 2;
    ec.faults.downs.push_back({fail_at, recover_at});
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    expectAllAccounted(reqs, r.summary);
    EXPECT_GT(r.summary.failedRequests, 0);
    bool completed_after_recovery = false;
    for (const Request& q : reqs) {
        if (q.state == ReqState::Failed) {
            // Casualties fall inside [fail_at, recover_at): in-flight at
            // the crash or refused during downtime.
            EXPECT_GE(q.finishedAt, fail_at);
            EXPECT_LT(q.finishedAt, recover_at);
        }
        if (q.state == ReqState::Finished && q.arrival >= recover_at)
            completed_after_recovery = true;
    }
    EXPECT_TRUE(completed_after_recovery)
        << "recovered replica served no post-repair arrival";
}

TEST(EngineFaults, SlowdownWindowStretchesTheRun)
{
    TraceConfig tc = burstyTrace(20);
    QueueDepthPolicy policy;
    auto run_with = [&](double factor) {
        auto reqs = generateTrace(tc, 5);
        EngineConfig ec;
        if (factor < 1.0)
            ec.faults.slowdowns.push_back(
                {0, ReplicaFaultTimeline::kNoEvent, factor});
        ServingEngine engine(ec, policy);
        EngineResult r = engine.run(reqs);
        EXPECT_EQ(r.summary.completed, 20);
        return r.summary.makespan;
    };
    const dam::Cycle fast = run_with(1.0);
    const dam::Cycle slow = run_with(0.25);
    EXPECT_GT(slow, fast);
}

TEST(EngineFaults, PrefillOnlyIterationsWakeExactlyOnScriptedEdges)
{
    // One long single-token prompt at a time keeps the engine in
    // prefill-only iterations, whose length is clamped to the next
    // scripted event. Each request meets one edge mid-prefill: a
    // shallow slowdown start (bandwidth drops, no drain), a deep
    // slowdown's drain edge, and a crash. Each must land on the exact
    // cycle it was scripted at.
    StaticSplitPolicy policy(0.3);
    EngineConfig ec;
    const int64_t prompt = 1024;
    const auto fpt = static_cast<dam::Cycle>(
        prefillFlopsPerToken(ec.model, ec.model.numLayers));
    const dam::Cycle work = static_cast<dam::Cycle>(prompt) * fpt;
    const auto prefill_bw = [&](double factor) {
        const auto bw = static_cast<double>(std::llround(
            static_cast<double>(ec.totalComputeBw) * factor));
        return static_cast<dam::Cycle>(0.3 * bw);
    };
    const auto ceil_div = [](dam::Cycle a, dam::Cycle b) {
        return (a + b - 1) / b;
    };
    const dam::Cycle full_bw = prefill_bw(1.0);
    const dam::Cycle t0 = ceil_div(work, full_bw); // unperturbed prefill

    // Request 0: a slowdown with no drain starts halfway through its
    // prefill.
    const dam::Cycle slow_at = t0 / 2;
    ec.faults.slowdowns.push_back({slow_at, 4 * t0, 0.8});
    // Request 1: a deep slowdown starts a quarter in; the drain fires
    // a quarter prefill later, still mid-prefill.
    const dam::Cycle a1 = 5 * t0;
    const dam::Cycle deep_at = a1 + t0 / 4;
    ec.faults.slowdowns.push_back({deep_at, deep_at + 10 * t0, 0.5});
    ec.drainAt = {deep_at + t0 / 4};
    // Request 2: the replica crashes halfway through its prefill.
    const dam::Cycle a2 = deep_at + 11 * t0;
    const dam::Cycle crash_at = a2 + t0 / 2;
    ec.faults.downs.push_back({crash_at, crash_at + t0});
    ec.faults.normalize();

    std::vector<Request> reqs = {mkReq(0, 0, prompt, 1),
                                 mkReq(1, a1, prompt, 1),
                                 mkReq(2, a2, prompt, 1)};
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    ASSERT_EQ(reqs[0].state, ReqState::Finished);
    const dam::Cycle expect_first =
        slow_at +
        ceil_div(work - slow_at * full_bw, prefill_bw(0.8));
    EXPECT_EQ(reqs[0].firstTokenAt, expect_first);
    EXPECT_EQ(reqs[0].finishedAt, expect_first);
    EXPECT_GT(reqs[0].firstTokenAt, t0) << "the slowdown must cost cycles";

    ASSERT_EQ(reqs[1].state, ReqState::Migrated);
    EXPECT_EQ(reqs[1].finishedAt, ec.drainAt[0]);
    EXPECT_GT(reqs[1].prefilledTokens, 0);
    EXPECT_LT(reqs[1].prefilledTokens, prompt);

    ASSERT_EQ(reqs[2].state, ReqState::Failed);
    EXPECT_EQ(reqs[2].finishedAt, crash_at);
    EXPECT_EQ(r.summary.failedRequests, 1);
    EXPECT_EQ(r.summary.migratedRequests, 1);
    EXPECT_EQ(r.summary.completed, 1);
}

TEST(EngineFaults, CrashAccountingHoldsWithPrefixCache)
{
    // The crash teardown must return every KV reservation and cache pin
    // (the engine asserts both at the crash and at end of run — this
    // test fails via PanicError if the abort path leaks).
    TraceConfig tc = burstyTrace(30);
    tc.numSessions = 6;
    tc.turnsPerSession = 3;
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ec.prefixCache.capacityTokens = 1 << 16;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).summary.makespan;

    auto reqs = generateTrace(tc, 5);
    ec.faults.downs.push_back({makespan / 3, makespan / 2});
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);
    expectAllAccounted(reqs, r.summary);
    // The cache restarted cold after the crash, so stats still flow.
    EXPECT_GT(r.summary.prefixLookups, 0);
}

TEST(EngineFaults, DeadlinesCountMissesWithoutShedding)
{
    TraceConfig tc = burstyTrace(20);
    tc.deadlineCycles = 1; // everyone misses
    QueueDepthPolicy policy;
    auto reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);
    EXPECT_EQ(r.summary.completed, 20);
    EXPECT_EQ(r.summary.deadlineMisses, 20);
    EXPECT_EQ(r.summary.shedRequests, 0);
    EXPECT_DOUBLE_EQ(r.summary.availability, 1.0); // misses still served
}

TEST(EngineFaults, DeadlineShedPolicyDropsSureLosers)
{
    TraceConfig tc = burstyTrace(20);
    tc.deadlineCycles = 1; // provably unmeetable for everyone
    QueueDepthPolicy policy;
    auto reqs = generateTrace(tc, 5);
    EngineConfig ec;
    DeadlineAwareShedPolicy shed;
    ec.admission = &shed;
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);
    expectAllAccounted(reqs, r.summary);
    EXPECT_EQ(r.summary.shedRequests, 20);
    EXPECT_EQ(r.summary.completed, 0);
    EXPECT_EQ(r.summary.deadlineMisses, 0);
    EXPECT_DOUBLE_EQ(r.summary.availability, 0.0);
    for (const Request& q : reqs) {
        EXPECT_EQ(q.state, ReqState::Shed);
        EXPECT_EQ(q.generated, 0); // shed requests emit no token
    }
}

// ---- stall diagnostics -------------------------------------------------

TEST(Stall, OversizedHeadThrowsStructuredStallError)
{
    EngineConfig ec;
    ec.batcher.kvBudgetBytes = 10 * 256;
    ec.batcher.kvBytesPerToken = 256;
    QueueDepthPolicy policy;
    std::vector<Request> reqs{mkReq(0, 0, 100, 100)};
    ServingEngine engine(ec, policy);
    try {
        engine.run(reqs);
        FAIL() << "expected StallError";
    } catch (const StallError& e) {
        const StallDiagnostic& d = e.diagnostic;
        EXPECT_FALSE(d.reason.empty());
        ASSERT_EQ(d.blocked.size(), 1u);
        EXPECT_EQ(d.blocked[0].id, 0);
        EXPECT_GT(d.blocked[0].needKvBytes, d.kvBudgetBytes);
        EXPECT_EQ(d.runningRequests, 0);
        EXPECT_EQ(d.kvReservedBytes, 0);
        // what() carries the human rendering of the same dump.
        EXPECT_NE(std::string(e.what()).find("head-of-line"),
                  std::string::npos);
    }
    // StallError remains catchable as the PanicError it subclasses.
    std::vector<Request> again{mkReq(0, 0, 100, 100)};
    ServingEngine engine2(ec, policy);
    EXPECT_THROW(engine2.run(again), PanicError);
}

// ---- cluster failover --------------------------------------------------

namespace {

TraceConfig
clusterTrace(int64_t n)
{
    TraceConfig tc = burstyTrace(n);
    tc.arrivalsPerKcycle = 0.0048; // 4 replicas absorb ~4x the stream
    return tc;
}

} // namespace

TEST(ClusterFaults, KillOneOfFourNoRetryDegradesAvailability)
{
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;

    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster probe(cc, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).aggregate.makespan;

    NoRetryPolicy no_retry;
    cc.retry = &no_retry;
    cc.faults.crashes.push_back({1, makespan * 2 / 5, 0});
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    expectAllAccounted(reqs, r.aggregate);
    EXPECT_GT(r.aggregate.failedRequests, 0);
    EXPECT_EQ(r.aggregate.retriedRequests, 0);
    EXPECT_EQ(r.retriesIssued, 0);
    EXPECT_LT(r.aggregate.availability, 1.0);
    EXPECT_GT(r.aggregate.availability, 0.5); // 3 of 4 kept serving
    EXPECT_EQ(r.aggregate.completed + r.aggregate.failedRequests +
                  r.aggregate.shedRequests,
              120);
    // Only the dead replica reports failures; survivors stay clean.
    for (const ReplicaResult& rr : r.replicas) {
        if (rr.replica == 1)
            EXPECT_GT(rr.result.summary.failedRequests, 0);
        else
            EXPECT_EQ(rr.result.summary.failedRequests, 0);
    }
}

TEST(ClusterFaults, FailoverRetriesRecoverTheCasualties)
{
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;

    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster probe(cc, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).aggregate.makespan;

    cc.faults.crashes.push_back({1, makespan * 2 / 5, 0});
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    expectAllAccounted(reqs, r.aggregate);
    EXPECT_GT(r.retriesIssued, 0);
    EXPECT_EQ(r.aggregate.retriedRequests, r.retriesIssued);
    // Default backoff failover re-serves every casualty: availability
    // returns to 1 and no request reports failed.
    EXPECT_EQ(r.aggregate.failedRequests, 0);
    EXPECT_DOUBLE_EQ(r.aggregate.availability, 1.0);
    EXPECT_EQ(r.aggregate.completed, 120);
    bool saw_retry_attempt = false;
    for (const Request& q : reqs)
        if (q.attempt > 0) {
            saw_retry_attempt = true;
            EXPECT_EQ(q.state, ReqState::Finished);
        }
    EXPECT_TRUE(saw_retry_attempt);
}

TEST(ClusterFaults, LateRetryMeetsTheSloOnlyIfItsCallerLevelTtftDoes)
{
    // Replica 0 crashes under request 0; its retry re-arrives on
    // replica 1 after the policy's delay. Scored from the re-arrival the
    // retry is fast; the caller waited from the original arrival.
    struct FixedDelayRetry : RetryPolicy
    {
        dam::Cycle delay = 0;
        std::optional<dam::Cycle>
        reschedule(const Request&, int64_t attempt,
                   dam::Cycle failed_at) const override
        {
            if (attempt > 1)
                return std::nullopt;
            return failed_at + delay;
        }
    } retry_policy;
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 2;
    cc.routing = RouteKind::RoundRobin;
    cc.retry = &retry_policy;
    const std::vector<Request> trace = {mkReq(0, 0, 512, 16),
                                        mkReq(1, 0, 16, 4)};
    cc.faults.crashes.push_back({0, 1'000, 0});
    auto run = [&](dam::Cycle delay) {
        retry_policy.delay = delay;
        std::vector<Request> reqs = trace;
        ClusterResult r = ServingCluster(cc, policy).run(reqs);
        return std::make_pair(std::move(r), std::move(reqs));
    };

    // A retry delayed by the whole TTFT target: the SLO falls between
    // the incarnation's TTFT and the caller's. The replica that served
    // the retry counts it, the caller-level aggregate does not.
    const auto slo_delay = static_cast<dam::Cycle>(kSloTtftCycles);
    auto [between, b_reqs] = run(slo_delay);
    ASSERT_EQ(b_reqs[0].state, ReqState::Finished);
    ASSERT_EQ(b_reqs[0].attempt, 1);
    const Request* retry = nullptr;
    for (const Request& q : between.replicas[1].requests)
        if (q.id == 0 && q.attempt == 1)
            retry = &q;
    ASSERT_NE(retry, nullptr);
    ASSERT_LT(ttft(*retry), kSloTtftCycles);
    ASSERT_GT(ttft(b_reqs[0]), kSloTtftCycles);
    ASSERT_LE(ttft(b_reqs[1]), ttft(*retry));
    for (const Request& q : {*retry, b_reqs[1]})
        ASSERT_LE(tpot(q), kSloTpotCycles);
    EXPECT_EQ(between.replicas[1].result.summary.sloCompliant, 2);
    EXPECT_EQ(between.aggregate.sloCompliant, 1);
    EXPECT_EQ(between.aggregate.sloGoodTokens, b_reqs[1].generated);
    EXPECT_DOUBLE_EQ(between.aggregate.goodputTokensPerKcycle,
                     double(b_reqs[1].generated) /
                         (double(between.aggregate.makespan) / 1000.0));

    // A retry that lands the caller-level TTFT on the target meets the
    // SLO at both levels.
    const dam::Cycle failed_at = retry->arrival - slo_delay;
    auto [meets, m_reqs] = run(
        static_cast<dam::Cycle>(kSloTtftCycles - ttft(*retry)) - failed_at);
    ASSERT_EQ(m_reqs[0].attempt, 1);
    ASSERT_EQ(ttft(m_reqs[0]), kSloTtftCycles);
    EXPECT_EQ(meets.replicas[1].result.summary.sloCompliant, 2);
    EXPECT_EQ(meets.aggregate.sloCompliant, 2);
    EXPECT_EQ(meets.aggregate.sloGoodTokens,
              m_reqs[0].generated + m_reqs[1].generated);
}

TEST(ClusterFaults, FaultyRunIsThreadCountInvariant)
{
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t threads) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.faults.crashes.push_back({1, 20'000'000, 35'000'000});
        cc.faults.crashes.push_back({2, 50'000'000, 0});
        cc.faults.slowdowns.push_back({0, 10'000'000, 30'000'000, 0.5});
        auto reqs = generateTrace(tc, deriveSeed(2));
        ClusterResult r = ServingCluster(cc, policy).run(reqs);
        return std::make_pair(std::move(r), std::move(reqs));
    };
    auto [r1, q1] = run_with(1);
    auto [r4, q4] = run_with(4);

    EXPECT_EQ(r1.aggregate.completed, r4.aggregate.completed);
    EXPECT_EQ(r1.aggregate.failedRequests, r4.aggregate.failedRequests);
    EXPECT_EQ(r1.aggregate.retriedRequests, r4.aggregate.retriedRequests);
    EXPECT_EQ(r1.aggregate.shedRequests, r4.aggregate.shedRequests);
    EXPECT_EQ(r1.aggregate.makespan, r4.aggregate.makespan);
    EXPECT_EQ(r1.retriesIssued, r4.retriesIssued);
    EXPECT_EQ(r1.aggregate.ttftP99, r4.aggregate.ttftP99);
    EXPECT_EQ(r1.aggregate.availability, r4.aggregate.availability);
    ASSERT_EQ(q1.size(), q4.size());
    for (size_t i = 0; i < q1.size(); ++i) {
        EXPECT_EQ(q1[i].state, q4[i].state);
        EXPECT_EQ(q1[i].finishedAt, q4[i].finishedAt);
        EXPECT_EQ(q1[i].attempt, q4[i].attempt);
    }
}

TEST(ClusterFaults, RouterAvoidsRepicasDownAtArrival)
{
    TraceConfig tc = clusterTrace(60);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::RoundRobin;
    // Replica 0 is down for the whole trace.
    cc.faults.crashes.push_back({0, 0, 0});
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, policy);
    const std::vector<int64_t> route = cluster.routeTrace(reqs);
    for (int64_t r : route)
        EXPECT_NE(r, 0);
    ClusterResult res = cluster.run(reqs);
    EXPECT_EQ(res.aggregate.completed, 60);
    EXPECT_EQ(res.aggregate.failedRequests, 0);
}

// ---- summary merging ---------------------------------------------------

TEST(Metrics, MergeFaultCountersAcrossHealthyAndDeadReplicas)
{
    // Replica A: zero faults. Replica B: fully failed (crashed at cycle
    // 0, nothing completed). The merge must sum counters and derive a
    // NaN-free availability.
    std::vector<Request> healthy;
    for (int i = 0; i < 4; ++i) {
        Request r = mkReq(i, 0, 10, 4);
        r.state = ReqState::Finished;
        r.firstTokenAt = 100 + i;
        r.finishedAt = 500 + i;
        r.generated = 4;
        healthy.push_back(r);
    }
    std::vector<Request> dead;
    for (int i = 4; i < 10; ++i) {
        Request r = mkReq(i, 0, 10, 4);
        r.state = ReqState::Failed;
        r.finishedAt = 50;
        dead.push_back(r);
    }
    ServingSummary a = summarize(healthy, 1000);
    ServingSummary b = summarize(dead, 1000);
    EXPECT_DOUBLE_EQ(a.availability, 1.0);
    EXPECT_DOUBLE_EQ(b.availability, 0.0);
    EXPECT_EQ(b.completed, 0);
    EXPECT_EQ(b.failedRequests, 6);

    // Reclassify two of the dead replica's failures as retried (what
    // the cluster does when failover re-served them elsewhere).
    b.failedRequests -= 2;
    b.retriedRequests += 2;
    refreshAvailability(b);
    EXPECT_DOUBLE_EQ(b.availability, 0.0); // still nothing completed

    ServingSummary m = mergeSummaries({a, b});
    EXPECT_EQ(m.completed, 4);
    EXPECT_EQ(m.failedRequests, 4);
    EXPECT_EQ(m.retriedRequests, 2);
    EXPECT_EQ(m.shedRequests, 0);
    EXPECT_DOUBLE_EQ(m.availability, 0.5); // 4 / (4 + 4)
    EXPECT_FALSE(std::isnan(m.ttftP99));
    EXPECT_FALSE(std::isnan(m.tpotP99));

    // Merging nothing but failures stays NaN-free too.
    ServingSummary all_dead = mergeSummaries({b, b});
    EXPECT_DOUBLE_EQ(all_dead.availability, 0.0);
    EXPECT_FALSE(std::isnan(all_dead.throughputTokensPerKcycle));

    // Shed requests join the denominator.
    ServingSummary c;
    c.completed = 3;
    c.shedRequests = 1;
    refreshAvailability(c);
    EXPECT_DOUBLE_EQ(c.availability, 0.75);
    // And an empty summary defines availability as 1 (not NaN).
    ServingSummary empty;
    refreshAvailability(empty);
    EXPECT_DOUBLE_EQ(empty.availability, 1.0);
}

TEST(ClusterFaults, SeededMtbfPlanConvergesSupersededIncarnations)
{
    // Regression for the wave-convergence abort cluster_sim hit at
    // `--mtbf 32000000` (default seed 42): when a crashed replica's
    // failover retry landed while the original replica's wave later
    // converged, the plain (non-resilience) accounting path asserted
    // that the superseded incarnation stayed Failed — which does not
    // hold once final-timeline recompute reconciles fates. The exact
    // cluster_sim trace and seeded fault plan reproduce that schedule.
    TraceConfig tc;
    tc.numRequests = 480;
    tc.arrivalsPerKcycle = 0.0048;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;

    const auto probe = generateTrace(tc, deriveSeed(2));
    FaultPlanConfig fc;
    fc.mtbfCycles = 32'000'000;
    fc.mttrCycles = 8'000'000;
    fc.horizonCycles = probe.empty() ? 0 : probe.back().arrival * 2;

    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.faults = generateFaultPlan(fc, cc.replicas, deriveSeed(3));
    ASSERT_FALSE(cc.faults.empty()) << "plan must deliver faults";

    for (RouteKind routing : {RouteKind::RoundRobin,
                              RouteKind::LeastQueued,
                              RouteKind::HashAffinity}) {
        SCOPED_TRACE(routeKindName(routing));
        cc.routing = routing;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingCluster cluster(cc, policy);
        ClusterResult r = cluster.run(reqs);
        expectAllAccounted(reqs, r.aggregate);
        EXPECT_EQ(r.aggregate.completed + r.aggregate.failedRequests +
                      r.aggregate.shedRequests,
                  480);
    }
}

// ---- live append --------------------------------------------------------

namespace {

constexpr dam::Cycle kEnd = ReplicaFaultTimeline::kNoEvent;

/** Everything one engine run shows: its requests, result and exports. */
struct Served
{
    std::vector<Request> reqs;
    EngineResult result;
    std::string trace, lifecycles, metrics;
};

/** The exporters every run below attaches. */
struct Exporters
{
    explicit Exporters(size_t ring = size_t{1} << 20,
                       obs::TraceLevel level = obs::TraceLevel::Request,
                       dam::Cycle window = 3'000'000)
        : sink(obs::TraceOptions{level, ring}),
          registry(obs::MetricsConfig{true, window})
    {
    }

    void
    attach(ServingEngine& e)
    {
        e.attachTrace(&sink);
        e.attachMetrics(&registry);
    }

    void
    exportInto(Served& s) const
    {
        std::ostringstream t, l, m;
        obs::writeChromeTrace(t, {&sink});
        obs::writeRequestJsonl(l, {&sink});
        obs::writeMetricsJson(m, {&registry});
        s.trace = t.str();
        s.lifecycles = l.str();
        s.metrics = m.str();
    }

    obs::TraceSink sink;
    obs::MetricsRegistry registry;
};

/** Cycles a run is advanced through, sorted: a cluster's barriers. */
using Barriers = std::vector<dam::Cycle>;

/**
 * @p input served from cycle 0 by a fresh run advanced through
 * @p barriers, with nothing delivered or appended between them: what a
 * live run that took appends must end as. With no barrier it is
 * ServingEngine::run.
 */
Served
serveCold(const EngineConfig& ec, const Policy& policy,
          std::vector<Request> input, const Barriers& barriers = {},
          Exporters ex = Exporters())
{
    Served out;
    ServingEngine engine(ec, policy);
    ex.attach(engine);
    if (barriers.empty()) {
        out.result = engine.run(input);
        out.reqs = std::move(input);
    } else {
        IterationWorkspace ws;
        ServingEngine::Run run(engine, std::move(input));
        for (dam::Cycle b : barriers)
            run.advance(b, ws);
        run.advance(kEnd, ws);
        out.result = run.finish(out.reqs);
    }
    ex.exportInto(out);
    return out;
}

/** Requests by slot, put in the order a live run delivered them: by
 *  arrival, appends after equal arrivals. */
void
deliveryOrder(std::vector<Request>& reqs)
{
    std::ranges::stable_sort(reqs, {}, &Request::arrival);
}

/** A live run advanced epoch by epoch, as a cluster does, through the
 *  @p barriers in [@p from, @p to]: each of @p ec's crashes and drains
 *  is delivered at its barrier. */
void
advanceThrough(ServingEngine::Run& run, const EngineConfig& ec,
               const Barriers& barriers, dam::Cycle from, dam::Cycle to,
               IterationWorkspace& ws)
{
    const std::vector<dam::Cycle> edges = failureEdges(ec);
    for (dam::Cycle b : barriers) {
        if (b < from || b > to)
            continue;
        run.advance(b, ws);
        if (std::ranges::find(edges, b) != edges.end())
            run.deliverUntil(b);
    }
}

/**
 * @p base served by a live run through @p barriers, with @p extra
 * appended at barrier @p at (one of them): one replica's epochs and
 * failover appends.
 */
Served
serveAppended(const EngineConfig& ec, const Policy& policy,
              const std::vector<Request>& base, const Barriers& barriers,
              dam::Cycle at, const std::vector<Request>& extra,
              Exporters ex = Exporters())
{
    EXPECT_TRUE(std::ranges::binary_search(barriers, at));
    ServingEngine engine(ec, policy);
    ex.attach(engine);
    IterationWorkspace ws;
    ServingEngine::Run run(engine, base);
    advanceThrough(run, ec, barriers, 0, at, ws);
    for (const Request& r : extra)
        run.append(r);
    advanceThrough(run, ec, barriers, at + 1, kEnd, ws);
    run.advance(kEnd, ws);
    Served out;
    out.result = run.finish(out.reqs);
    // The summary's samples follow the requests: re-derive them in the
    // cold run's order.
    deliveryOrder(out.reqs);
    resummarize(out.result.summary, out.reqs);
    ex.exportInto(out);
    return out;
}

void
expectSameRun(const Served& cold, const Served& live)
{
    ASSERT_EQ(cold.reqs.size(), live.reqs.size());
    for (size_t i = 0; i < cold.reqs.size(); ++i)
        EXPECT_TRUE(cold.reqs[i] == live.reqs[i])
            << "request " << i << " (id " << cold.reqs[i].id << ")";
    EXPECT_TRUE(cold.result.summary == live.result.summary);
    EXPECT_EQ(cold.result.iterations, live.result.iterations);
    EXPECT_TRUE(cold.result.samples == live.result.samples);
    // Not EXPECT_EQ: gtest would diff the multi-megabyte exports.
    EXPECT_TRUE(cold.trace == live.trace) << "trace JSON differs";
    EXPECT_TRUE(cold.lifecycles == live.lifecycles)
        << "requests JSONL differs";
    EXPECT_TRUE(cold.metrics == live.metrics) << "metrics JSON differs";
}

/** @p base plus @p extra, in a live run's delivery order. */
std::vector<Request>
appended(std::vector<Request> base, const std::vector<Request>& extra)
{
    base.insert(base.end(), extra.begin(), extra.end());
    deliveryOrder(base);
    return base;
}

/** Request @p r's next incarnation, re-arriving at @p at. */
Request
incarnation(const Request& r, dam::Cycle at)
{
    Request inc = r;
    inc.arrival = at;
    inc.attempt = r.attempt + 1;
    return inc;
}

/** @p barriers with one at @p at too. */
Barriers
withBarrier(Barriers barriers, dam::Cycle at)
{
    if (!std::ranges::binary_search(barriers, at))
        barriers.insert(std::ranges::upper_bound(barriers, at), at);
    return barriers;
}

/** Cycle 0, every iteration start of @p res up to @p until, and
 *  @p until itself: the barriers a sweep appends at. */
std::vector<dam::Cycle>
boundariesUpTo(const EngineResult& res, dam::Cycle until)
{
    std::vector<dam::Cycle> out = {0, until};
    for (const IterationSample& s : res.samples)
        if (s.start <= until)
            out.push_back(s.start);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace

TEST(LiveAppend, AppendingAtSeededBarriersEqualsTheColdRun)
{
    // Seeded multi-turn traces on a replica with a seeded fault timeline
    // (crashes that recover, drained slowdowns), a prefix cache and
    // brown-out capping; a few incarnations appended at seeded cycles.
    // Appending them at any barrier up to the earliest of them must end
    // exactly as the cold run over the grown input under that barrier.
    QueueDepthPolicy policy;
    BrownoutPolicy brownout; // caps outputs (and hash streams)
    for (uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        TraceConfig tc = burstyTrace(0);
        tc.arrivalsPerKcycle = 0.0048; // sessions overlap: KV pressure
        tc.numSessions = 6;
        tc.turnsPerSession = 3;
        tc.lowPriorityFrac = 0.3;
        tc.outputMean = 48;
        auto base = generateTrace(tc, seed);
        const dam::Cycle span = base.back().arrival;

        EngineConfig ec;
        ec.seed = seed;
        ec.prefixCache.capacityTokens = 1 << 12;
        // A 768-token KV budget: overlapping sessions' reservations
        // push the brown-out ladder to its output cap.
        ec.batcher.kvBudgetBytes = 768 * ec.batcher.kvBytesPerToken;
        ec.admission = &brownout;
        FaultPlanConfig fc; // a seeded timeline: crashes that recover,
        fc.mtbfCycles = static_cast<double>(span) / 4; // deep slowdowns
        fc.mttrCycles = static_cast<double>(span) / 20;
        fc.slowdownMtbfCycles = static_cast<double>(span) / 4;
        fc.horizonCycles = span;
        ec.faults = generateFaultPlan(fc, 1, seed).forReplica(0);
        ASSERT_FALSE(ec.faults.downs.empty());
        ASSERT_FALSE(ec.faults.slowdowns.empty());
        for (const auto& w : slowdownTrips(ec.faults))
            ec.drainAt.push_back(w.start);
        const Barriers bars = faultBarriers(ec);

        // Deep copies of every chain: serving must write none of them.
        std::vector<std::vector<uint64_t>> chains;
        for (const Request& r : base)
            chains.emplace_back(r.blockHashes.begin(), r.blockHashes.end());
        const Served first = serveCold(ec, policy, base, bars);
        // Capped: admitted with its output budget cut to the cap.
        int64_t capped = 0;
        for (const Request& r : first.reqs)
            capped += r.outputLen == BrownoutPolicy::kOutputCapTokens &&
                      base[size_t(r.id)].outputLen > r.outputLen;
        EXPECT_GT(capped, 0);
        // A cap shrinks only the incarnation's view of its session's
        // stored chain, to (prompt + cap) / 16 blocks; the caller's
        // trace and the session's other turns keep their full chains.
        for (const Request& r : first.reqs) {
            const std::vector<uint64_t>& full = chains[size_t(r.id)];
            EXPECT_TRUE(std::ranges::equal(base[size_t(r.id)].blockHashes,
                                           full));
            EXPECT_EQ(r.blockHashes.size(),
                      size_t((r.promptLen + r.outputLen) /
                             kPrefixBlockTokens));
            EXPECT_TRUE(std::equal(r.blockHashes.begin(),
                                   r.blockHashes.end(), full.begin()));
        }
        Rng rng(seed);
        std::vector<Request> extra;
        dam::Cycle earliest = kEnd;
        for (int k = 0; k < 3; ++k) {
            const Request& src = base[rng.uniformInt(base.size())];
            dam::Cycle at =
                span / 4 + static_cast<dam::Cycle>(rng.uniformInt(span));
            // A cluster never places an incarnation on a replica that
            // is down when it arrives.
            for (const ReplicaFaultTimeline::Down& d : ec.faults.downs)
                if (d.failAt <= at && at < d.recoverAt)
                    at = d.recoverAt;
            extra.push_back(incarnation(src, at));
            earliest = std::min(earliest, at);
        }
        const std::vector<Request> grown = appended(base, extra);
        for (dam::Cycle at : boundariesUpTo(first.result, earliest)) {
            SCOPED_TRACE(at);
            const Barriers eb = withBarrier(bars, at);
            expectSameRun(serveCold(ec, policy, grown, eb),
                          serveAppended(ec, policy, base, eb, at, extra));
        }
    }

    // The finish-time insert of a capped turn publishes only its
    // shorter prefix. A filler holds 800 of 1,024 KV tokens, so turn 0
    // (128-token prompt, 64-token output) is admitted at pressure 0.78
    // and capped to 32 tokens. Turn 1 arrives long after both finished
    // and hits exactly (128 + 32) / 16 blocks, not (128 + 64) / 16.
    TraceConfig tc;
    tc.numSessions = 1;
    tc.turnsPerSession = 2;
    tc.sharedSystemPromptLen = 64;
    tc.turnDeltaMean = tc.promptMin = tc.promptMax = 64;
    tc.outputMean = tc.outputMin = tc.outputMax = 64;
    const std::vector<Request> session = generateTrace(tc, 1);
    std::vector<Request> trace = {mkReq(0, 0, 768, 32), session[0],
                                  session[1]};
    trace[1].id = 1;
    trace[1].arrival = 1;
    trace[2].id = 2;
    trace[2].arrival = 1'000'000'000;
    EngineConfig ec;
    ec.prefixCache.capacityTokens = 1 << 12;
    ec.batcher.kvBudgetBytes = 1024 * ec.batcher.kvBytesPerToken;
    ec.admission = &brownout;
    const Served capped = serveCold(ec, policy, trace);
    const Request& turn0 = capped.reqs[1];
    const Request& turn1 = capped.reqs[2];
    ASSERT_EQ(turn0.state, ReqState::Finished);
    ASSERT_EQ(turn0.outputLen, BrownoutPolicy::kOutputCapTokens);
    EXPECT_EQ(turn0.blockHashes.size(), size_t(160 / kPrefixBlockTokens));
    ASSERT_EQ(turn1.state, ReqState::Finished);
    EXPECT_EQ(turn1.blockHashes, trace[2].blockHashes);
    EXPECT_EQ(trace[1].blockHashes.size(), size_t(192 / kPrefixBlockTokens));
    EXPECT_EQ(turn1.cachedPrefixTokens, 160);
}

TEST(LiveAppend, PrefillOnlyWakeStopsAtTheBarrierAndTheAppendCutsIt)
{
    // A lone prompt runs as prefill-only iterations, each waking on the
    // next scheduled event. Stepped up to a barrier, the wake stops
    // there, so an arrival appended inside the wake window still cuts
    // the iteration at its own cycle, as in the cold run.
    StaticSplitPolicy policy(0.3);
    EngineConfig ec;
    const int64_t prompt = 1024;
    std::vector<Request> base = {mkReq(0, 0, prompt, 1),
                                 mkReq(1, 0, prompt, 1)};
    const Served probe = serveCold(ec, policy, base);
    const dam::Cycle t0 = probe.reqs[0].firstTokenAt;
    base[1].arrival = t0 + 10; // an idle jump, then its own prefill
    const Served first = serveCold(ec, policy, base);
    const dam::Cycle t1 = first.reqs[1].firstTokenAt;
    ASSERT_GT(t1, t0 + 12);
    const dam::Cycle inside = t0 + 10 + (t1 - t0 - 10) / 2;
    const std::vector<Request> extra = {
        incarnation(mkReq(2, 0, 64, 4), inside)};
    const std::vector<Request> grown = appended(base, extra);
    for (dam::Cycle at : {t0 + 10, inside - 1, inside}) {
        SCOPED_TRACE(at);
        const Barriers eb = {at};
        const Served cold = serveCold(ec, policy, grown, eb);
        bool cut = false; // the arrival ended an iteration
        for (const IterationSample& it : cold.result.samples)
            cut |= it.start + it.length == inside;
        EXPECT_TRUE(cut);
        expectSameRun(cold, serveAppended(ec, policy, base, eb, at, extra));
    }
}

TEST(LiveAppend, AppendTiedWithAnArrivalAtTheBarrierIsDeliveredAfterIt)
{
    // An appended arrival exactly on an iteration boundary of the first
    // run, tied with an existing arrival at that cycle but carrying a
    // lower id: appends are delivered after equal arrivals, and the cold
    // run over that order matches.
    QueueDepthPolicy policy;
    auto base = generateTrace(burstyTrace(16), 7);
    EngineConfig ec;
    const std::vector<IterationSample> samples =
        serveCold(ec, policy, base).result.samples;
    ASSERT_GT(samples.size(), 10u);
    const dam::Cycle on = samples[samples.size() / 2].start;
    // A tie: the last request moves onto that boundary too.
    base.back().arrival = on;
    std::ranges::stable_sort(base, {}, &Request::arrival);
    const Served first = serveCold(ec, policy, base);
    const std::vector<Request> extra = {incarnation(base[0], on)};
    const std::vector<Request> grown = appended(base, extra);
    ASSERT_EQ(grown.back().id, 0); // id 0 after id 15, both at `on`
    ASSERT_EQ(grown[grown.size() - 2].arrival, on);
    const std::vector<dam::Cycle> from = boundariesUpTo(first.result, on);
    ASSERT_EQ(from.back(), on);
    for (size_t k = from.size() - std::min<size_t>(from.size(), 4);
         k < from.size(); ++k) {
        SCOPED_TRACE(from[k]);
        const Barriers eb = {from[k]};
        expectSameRun(serveCold(ec, policy, grown, eb),
                      serveAppended(ec, policy, base, eb, from[k], extra));
    }
}

TEST(LiveAppend, CrashWithRecoveryRefusesAppendsInsideTheOutage)
{
    QueueDepthPolicy policy;
    auto base = generateTrace(burstyTrace(30), 11);
    const dam::Cycle span = base.back().arrival;
    EngineConfig ec;
    const dam::Cycle down = span / 3, up = span / 2;
    ec.faults.downs.push_back({down, up});
    ec.faults.normalize();
    const Barriers bars = {down, up};
    const Served first = serveCold(ec, policy, base, bars);
    ASSERT_GT(first.result.summary.failedRequests, 0);
    // One incarnation inside the outage (refused) and one after it.
    const std::vector<Request> extra = {incarnation(base[3], (down + up) / 2),
                                        incarnation(base[4], up + 1000)};
    const std::vector<Request> grown = appended(base, extra);
    // Narrow windows: the refusals the crash delivery records land in
    // windows before the boundary that delivered them.
    const auto ex = [] {
        return Exporters(size_t{1} << 20, obs::TraceLevel::Request, 20'000);
    };
    // Every boundary before the crash: at its barrier the crash refuses
    // the outage's arrivals first (checked below).
    for (dam::Cycle at : boundariesUpTo(first.result, down - 1)) {
        SCOPED_TRACE(at);
        const Barriers eb = withBarrier(bars, at);
        const Served cold = serveCold(ec, policy, grown, eb, ex());
        EXPECT_EQ(cold.reqs[std::ranges::find(cold.reqs, 1, &Request::attempt) -
                            cold.reqs.begin()]
                      .state,
                  ReqState::Failed);
        expectSameRun(cold,
                      serveAppended(ec, policy, base, eb, at, extra, ex()));
    }
    // Once the crash is delivered the outage's arrivals have been read
    // (refused): an append inside it is refused at once, as they were,
    // and one before the crash breaks the contract.
    ServingEngine engine(ec, policy);
    IterationWorkspace ws;
    ServingEngine::Run run(engine, base);
    advanceThrough(run, ec, bars, 0, down, ws);
    EXPECT_EQ(run.horizon(), up);
    (void)run.takeCasualties();
    run.append(extra[0]);
    const std::vector<size_t> refused = run.takeCasualties();
    ASSERT_EQ(refused, std::vector<size_t>{base.size()});
    EXPECT_EQ(run.request(base.size()).state, ReqState::Failed);
    EXPECT_EQ(run.request(base.size()).finishedAt, extra[0].arrival);
    EXPECT_THROW(run.append(incarnation(base[5], down - 1)), PanicError);
    run.append(extra[1]);
}

TEST(LiveAppend, CrashDeliveredLateRefusesAtItsBarrier)
{
    // A crash in the middle of a decode iteration is delivered at the
    // barrier it is on, after the iteration ended, and refuses at once
    // an arrival the outage covers: both casualties are known at the
    // barrier, and an incarnation appended after the recovery ends the
    // run exactly as the cold run over the grown input.
    QueueDepthPolicy policy;
    EngineConfig ec;
    std::vector<Request> base = {mkReq(0, 0, 64, 400)};
    const Served probe = serveCold(ec, policy, base);
    const IterationSample mid =
        probe.result.samples[probe.result.iterations / 2];
    ASSERT_GT(mid.length, 4'000u);
    const dam::Cycle down = mid.start + mid.length / 2;
    const dam::Cycle up = down + 1'000'000;
    ec.faults.downs.push_back({down, up});
    ec.faults.normalize();
    const Barriers bars = {down, up};
    base.push_back(mkReq(1, down + 1, 64, 4)); // refused
    const std::vector<Request> extra = {incarnation(base[0], up + 100)};
    const auto ex = [] {
        return Exporters(size_t{1} << 20, obs::TraceLevel::Request, 1'000);
    };
    const Served cold =
        serveCold(ec, policy, appended(base, extra), bars, ex());
    ASSERT_EQ(cold.reqs[1].state, ReqState::Failed);
    expectSameRun(cold,
                  serveAppended(ec, policy, base, bars, down, extra, ex()));

    ServingEngine engine(ec, policy);
    IterationWorkspace ws;
    ServingEngine::Run run(engine, base);
    advanceThrough(run, ec, bars, 0, down, ws);
    EXPECT_EQ(run.takeCasualties(), (std::vector<size_t>{0, 1}));
    EXPECT_EQ(run.request(0).finishedAt, mid.start + mid.length);
    EXPECT_EQ(run.request(1).finishedAt, down + 1);
    EXPECT_TRUE(run.takeCasualties().empty());
}

TEST(LiveAppend, LateDrainInAWindowThatAlreadyHoldsAMigration)
{
    // Two drains migrate a prefilling prompt each while a long decode
    // runs. The second drain edge falls inside a decode iteration, so
    // its barrier delivers it after that iteration ended, into a metrics
    // window the first migration already touched; the incarnation
    // appended there ends the run as the cold run does.
    QueueDepthPolicy policy;
    EngineConfig ec;
    const dam::Cycle d1 = 2'000'000; // first drain edge
    ec.faults.slowdowns.push_back({d1 - 1'000, d1 + 2'000, 0.5});
    ec.faults.normalize();
    ec.drainAt = {d1};
    std::vector<Request> base = {mkReq(0, 0, 64, 400),
                                 mkReq(1, 1'000'000, 1024, 4),
                                 mkReq(2, 3'000'000, 1024, 4)};
    const Served probe = serveCold(ec, policy, base);
    ASSERT_EQ(probe.reqs[1].state, ReqState::Migrated);
    const IterationSample* it = nullptr;
    for (const IterationSample& x : probe.result.samples)
        if (x.start > 3'000'000 && x.decodeBatch > 0 && x.length > 8'000) {
            it = &x;
            break;
        }
    ASSERT_NE(it, nullptr);
    const dam::Cycle d2 = it->start + it->length / 2;
    const dam::Cycle t = it->start + it->length;
    ec.faults.slowdowns.push_back({d2 - 1'000, d2 + 2'000, 0.5});
    ec.faults.normalize();
    ec.drainAt.push_back(d2);
    const Barriers bars = faultBarriers(ec);
    const auto ex = [&] {
        return Exporters(size_t{1} << 20, obs::TraceLevel::Request,
                         (d2 + t) / 2); // d1, d2 in window 0; t in 1
    };
    const std::vector<Request> extra = {incarnation(base[1], t + 5)};
    const Served cold =
        serveCold(ec, policy, appended(base, extra), bars, ex());
    ASSERT_EQ(cold.reqs[2].state, ReqState::Migrated);
    ASSERT_EQ(cold.reqs[2].finishedAt, d2);
    expectSameRun(cold,
                  serveAppended(ec, policy, base, bars, d2, extra, ex()));
}

TEST(LiveAppend, IdleJumpStopsAtTheBarrier)
{
    // With nothing queued the engine jumps its clock to the next
    // arrival, but not past a barrier: an arrival appended inside the
    // gap is still ahead of the run.
    QueueDepthPolicy policy;
    EngineConfig ec;
    const std::vector<Request> base = {mkReq(0, 0, 64, 4),
                                       mkReq(1, 50'000'000, 64, 4)};
    const Served first = serveCold(ec, policy, base);
    const dam::Cycle gap_start = first.reqs[0].finishedAt;
    const dam::Cycle at = (gap_start + 50'000'000) / 2;
    const std::vector<Request> extra = {
        incarnation(mkReq(2, 0, 64, 4), at + 1'000)};
    const Barriers eb = {at};
    expectSameRun(serveCold(ec, policy, appended(base, extra), eb),
                  serveAppended(ec, policy, base, eb, at, extra));
    ServingEngine engine(ec, policy);
    IterationWorkspace ws;
    ServingEngine::Run run(engine, base);
    run.advance(at, ws);
    EXPECT_EQ(run.horizon(), at);
}

TEST(LiveAppend, AppendWhilePrefixCachePinsAreHeld)
{
    // Sessions sharing prefixes keep admitted requests pinned in the
    // cache across most boundaries; requests keep their addresses while
    // the run grows (the run asserts every pin comes back by its end).
    // Op-level tracing records the graphs' scheduler events too.
    QueueDepthPolicy policy;
    TraceConfig tc = burstyTrace(0);
    tc.numSessions = 8;
    tc.turnsPerSession = 3;
    tc.sharedSystemPromptLen = 96;
    auto base = generateTrace(tc, 5);
    EngineConfig ec;
    ec.prefixCache.capacityTokens = 1 << 14;
    const Served first = serveCold(ec, policy, base);
    ASSERT_GT(first.result.summary.prefixHitRate, 0.0);
    const dam::Cycle last = base[base.size() / 2].arrival + 1;
    const std::vector<Request> extra = {
        incarnation(base[base.size() / 3], last)};
    const std::vector<Request> grown = appended(base, extra);
    const auto ex = [] {
        return Exporters(size_t{1} << 22, obs::TraceLevel::Op);
    };
    const std::vector<dam::Cycle> from = boundariesUpTo(first.result, last);
    for (size_t k = from.size() / 2; k < from.size(); ++k) {
        SCOPED_TRACE(from[k]);
        const Barriers eb = {from[k]};
        expectSameRun(serveCold(ec, policy, grown, eb, ex()),
                      serveAppended(ec, policy, base, eb, from[k], extra,
                                    ex()));
    }
}

namespace {

/** A cluster run with its exports, to compare runs byte for byte. */
struct ClusterOutcome
{
    ClusterResult r;
    std::vector<Request> reqs;
    std::string trace, lifecycles, metrics;
};

ClusterOutcome
runCluster(const ClusterConfig& cc, const Policy& policy,
           std::vector<Request> reqs)
{
    ClusterOutcome o;
    o.reqs = std::move(reqs);
    o.r = ServingCluster(cc, policy).run(o.reqs);
    std::ostringstream t, l, m;
    obs::writeChromeTrace(t, o.r.traceViews());
    obs::writeRequestJsonl(l, o.r.traceViews());
    obs::writeMetricsJson(m, o.r.metricsViews(), o.r.mergedMetrics.get());
    o.trace = t.str();
    o.lifecycles = l.str();
    o.metrics = m.str();
    return o;
}

/**
 * Each replica of @p o against a cold run over its final input — every
 * incarnation it served, rebuilt from @p trace (the caller's requests
 * before the run) and the incarnation's arrival, attempt and carried
 * KV — under the configuration it ran with, advanced through the
 * cluster's barriers: requests, iterations and trace and metrics bytes.
 * With telemetry breakers the barriers include the health-window edges
 * the cluster ran (the first ones, as many as its epochs count). The
 * cold run's sink gets the replica's cluster track from the one stamp
 * function the cluster uses, for plan and telemetry breakers alike.
 */
void
expectReplicasEqualColdRuns(const ClusterOutcome& o, const ClusterConfig& cc,
                            const Policy& policy,
                            const std::vector<Request>& trace)
{
    std::unordered_map<int64_t, const Request*> byId;
    for (const Request& q : trace)
        byId.emplace(q.id, &q);
    Barriers barriers; // every replica's, as the cluster's epochs ran
    for (const ReplicaResult& rr : o.r.replicas)
        for (dam::Cycle b : faultBarriers(rr.engine))
            barriers = withBarrier(std::move(barriers), b);
    Barriers windows;
    if (cc.resilience.enabled &&
        cc.resilience.breakerSource == BreakerSource::Telemetry) {
        const dam::Cycle w = cc.resilience.health.windowCycles;
        while (static_cast<int64_t>(barriers.size()) + 1 < o.r.epochs) {
            windows.push_back(w * (windows.size() + 1));
            barriers = withBarrier(std::move(barriers), windows.back());
        }
        EXPECT_GT(windows.size(), 10u);
    }
    EXPECT_EQ(o.r.epochs, static_cast<int64_t>(barriers.size()) + 1);
    for (const ReplicaResult& rr : o.r.replicas) {
        SCOPED_TRACE(rr.replica);
        std::vector<Request> input;
        for (const Request& q : rr.requests) {
            Request in = *byId.at(q.id);
            in.arrival = q.arrival;
            in.attempt = q.attempt;
            in.remoteKvTokens = q.remoteKvTokens;
            input.push_back(std::move(in));
        }
        deliveryOrder(input);
        Exporters ex(cc.trace.ringCapacity, cc.trace.level,
                     cc.metrics.windowCycles);
        stampClusterTrack(ex.sink, o.r, rr.replica);
        Served cold =
            serveCold(rr.engine, policy, input, barriers, std::move(ex));
        std::vector<Request> live = rr.requests;
        deliveryOrder(live);
        ASSERT_EQ(cold.reqs.size(), live.size());
        for (size_t i = 0; i < live.size(); ++i)
            EXPECT_TRUE(cold.reqs[i] == live[i])
                << "request " << live[i].id << " attempt "
                << live[i].attempt;
        EXPECT_EQ(cold.result.iterations, rr.result.iterations);
        EXPECT_TRUE(cold.result.samples == rr.result.samples);
        std::ostringstream t, l, m;
        obs::writeChromeTrace(t, {o.r.traces[rr.replica].get()});
        obs::writeRequestJsonl(l, {o.r.traces[rr.replica].get()});
        obs::writeMetricsJson(m, {o.r.metrics[rr.replica].get()});
        EXPECT_TRUE(cold.trace == t.str()) << "trace JSON differs";
        EXPECT_TRUE(cold.lifecycles == l.str()) << "requests JSONL differs";
        EXPECT_TRUE(cold.metrics == m.str()) << "metrics JSON differs";
    }
}

/** Incarnations that arrived with more KV than their predecessor had
 *  built: what they hold beyond it came from the owner's prefix cache. */
int64_t
remotePrefixFetches(const ClusterResult& r)
{
    std::map<std::pair<int64_t, int64_t>, const Request*> by;
    for (const ReplicaResult& rr : r.replicas)
        for (const Request& q : rr.requests)
            by[{q.id, q.attempt}] = &q;
    int64_t n = 0;
    for (const auto& [key, q] : by)
        if (q->attempt > 0) {
            const Request& prev = *by.at({q->id, q->attempt - 1});
            n += q->remoteKvTokens > carriedKvTokens(prev);
        }
    return n;
}

} // namespace

TEST(ClusterFaults, ReplicasEqualColdRunsOverTheirFinalInputs)
{
    // Seeded fault timelines on four replicas: crashes that recover and
    // one that does not, on the plain tier with retries; and crashes
    // plus drained slowdowns on the resilience tier with a prefix cache
    // and remote prefix fetch, under plan- and telemetry-inferred
    // breakers. Each replica's live run must end exactly as a cold run
    // over its final input advanced through the same barriers, each
    // replica iteration must run once, and 1 and 4 threads must give
    // the same bytes.
    QueueDepthPolicy policy;
    TraceConfig tc = burstyTrace(0);
    tc.arrivalsPerKcycle = 0.0048;
    tc.numSessions = 24;
    tc.turnsPerSession = 3;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;
    const std::vector<Request> trace = generateTrace(tc, deriveSeed(2));
    const dam::Cycle span = trace.back().arrival;
    for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE(variant);
        ClusterConfig cc;
        cc.replicas = 4;
        cc.routing = variant == 2 ? RouteKind::PrefixAffinity
                                  : RouteKind::LeastQueued;
        FaultPlanConfig fc;
        fc.mtbfCycles = static_cast<double>(span) / 3;
        fc.mttrCycles = fc.mtbfCycles / 4;
        fc.horizonCycles = span;
        if (variant > 0) {
            fc.slowdownMtbfCycles = static_cast<double>(span) / 3;
            cc.engine.prefixCache.capacityTokens = 1 << 13;
            cc.resilience.enabled = true;
            cc.resilience.remotePrefix.enabled = true;
            if (variant == 2)
                cc.resilience.breakerSource = BreakerSource::Telemetry;
        }
        cc.faults = generateFaultPlan(fc, cc.replicas, deriveSeed(3));
        for (SlowdownWindow& w : cc.faults.slowdowns)
            w.bwFactor = 0.4; // deeper than the generated 0.5
        std::erase_if(cc.faults.crashes,
                      [](const FaultEvent& e) { return e.replica == 3; });
        cc.faults.crashes.push_back({3, span / 2, 0}); // never recovers
        cc.trace = obs::TraceOptions{obs::TraceLevel::Request,
                                     size_t{1} << 20};
        cc.metrics = obs::MetricsConfig{true, 4'000'000};
        cc.threads = 1;
        const ClusterOutcome a = runCluster(cc, policy, trace);
        cc.threads = 4;
        const ClusterOutcome b = runCluster(cc, policy, trace);

        EXPECT_GT(a.r.epochs, 2);
        EXPECT_GT(a.r.retriesIssued + a.r.migrationsIssued, 0);
        if (variant > 0) {
            EXPECT_GT(a.r.migrationsIssued, 0);
            EXPECT_GT(remotePrefixFetches(a.r), 0);
        }
        EXPECT_EQ(a.r.replicaIterationsSimulated, a.r.totalIterations);
        expectReplicasEqualColdRuns(a, cc, policy, trace);

        EXPECT_TRUE(a.r.aggregate == b.r.aggregate);
        EXPECT_EQ(a.r.epochs, b.r.epochs);
        EXPECT_EQ(a.r.replicaIterationsSimulated,
                  b.r.replicaIterationsSimulated);
        EXPECT_TRUE(a.reqs == b.reqs);
        EXPECT_TRUE(a.trace == b.trace) << "trace JSON differs";
        EXPECT_TRUE(a.lifecycles == b.lifecycles) << "requests JSONL differs";
        EXPECT_TRUE(a.metrics == b.metrics) << "metrics JSON differs";
        expectAllAccounted(a.reqs, a.r.aggregate);
    }
}

TEST(ClusterFaults, FaultFreeRunIsOneEpochSimulatedOnce)
{
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    auto reqs = generateTrace(clusterTrace(60), deriveSeed(2));
    ClusterResult r = ServingCluster(cc, policy).run(reqs);
    EXPECT_EQ(r.epochs, 1);
    EXPECT_EQ(r.replicaIterationsSimulated, r.totalIterations);
    for (const ReplicaResult& rr : r.replicas)
        EXPECT_TRUE(faultBarriers(rr.engine).empty());
}

TEST(ClusterFaults, RetryPolicyThatNeverGivesUpIsAFatalError)
{
    // A lone long prompt on one replica that crashes for one cycle every
    // 1000 cycles: every incarnation dies mid-prefill, and a policy that
    // always retries one cycle later never lets failover converge. That
    // is a configuration error, reported once the request reaches the
    // attempt bound, naming the request and the attempt.
    struct AlwaysRetry : RetryPolicy
    {
        std::optional<dam::Cycle>
        reschedule(const Request&, int64_t, dam::Cycle failed_at) const override
        {
            return failed_at + 1;
        }
    } always;
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 1;
    cc.retry = &always;
    for (dam::Cycle k = 1; k <= 1100; ++k)
        cc.faults.crashes.push_back({0, 1000 * k, 1000 * k + 1});
    std::vector<Request> reqs = {mkReq(0, 0, 1024, 1)};
    try {
        ServingCluster(cc, policy).run(reqs);
        FAIL() << "failover converged under an unbounded retry policy";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("did not converge"), std::string::npos) << what;
        EXPECT_NE(what.find("request 0 attempt 1024 after attempt 1023"),
                  std::string::npos)
            << what;
    }
}
