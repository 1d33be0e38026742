/**
 * @file
 * Serving-runtime tests: KV-budgeted admission, trace generation,
 * policy behavior, metric correctness on a hand-computed trace,
 * deterministic replay, scheduler reuse across iterations, and the
 * headline property — queue-depth-driven bandwidth reallocation beats a
 * static split on goodput under bursty arrivals.
 */
#include <gtest/gtest.h>

#include <limits>

#include "runtime/engine.hh"
#include "support/error.hh"

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

} // namespace

// ---- batcher ----------------------------------------------------------

TEST(Batcher, AdmitsUnderKvBudgetInFifoOrder)
{
    BatcherConfig bc;
    bc.kvBudgetBytes = 40 * 256; // 40 KV tokens
    bc.kvBytesPerToken = 256;
    bc.maxRunning = 10;
    ContinuousBatcher b(bc);

    // 15 + 15 tokens fit; the 20-token third request would overflow.
    Request r0 = mkReq(0, 0, 10, 5);
    Request r1 = mkReq(1, 0, 10, 5);
    Request r2 = mkReq(2, 0, 15, 5);
    Request r3 = mkReq(3, 0, 1, 1); // would fit, but FIFO blocks it
    for (Request* r : {&r0, &r1, &r2, &r3})
        b.enqueue(r);

    auto admitted = b.admit().admitted;
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0]->id, 0);
    EXPECT_EQ(admitted[1]->id, 1);
    EXPECT_EQ(b.kvBytesReserved(), 30 * 256);
    EXPECT_EQ(b.waitingCount(), 2);
    EXPECT_EQ(b.waitingPromptTokens(), 16);
    EXPECT_EQ(r0.state, ReqState::Prefilling);
    EXPECT_EQ(r2.state, ReqState::Queued);

    // Nothing more fits until a release frees the budget.
    EXPECT_TRUE(b.admit().admitted.empty());
    b.release(&r0);
    admitted = b.admit().admitted;
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0]->id, 2);
    EXPECT_EQ(admitted[1]->id, 3);
    EXPECT_EQ(b.kvBytesReserved(), (15 + 20 + 2) * 256);
}

TEST(Batcher, RespectsBatchCap)
{
    BatcherConfig bc;
    bc.kvBudgetBytes = int64_t{1} << 30;
    bc.kvBytesPerToken = 256;
    bc.maxRunning = 2;
    ContinuousBatcher b(bc);
    Request r0 = mkReq(0, 0, 4, 4), r1 = mkReq(1, 0, 4, 4),
            r2 = mkReq(2, 0, 4, 4);
    for (Request* r : {&r0, &r1, &r2})
        b.enqueue(r);
    EXPECT_EQ(b.admit().admitted.size(), 2u);
    EXPECT_EQ(b.waitingCount(), 1);
}

TEST(Batcher, OversizedRequestStallsWithoutPolicyShedsWithOne)
{
    BatcherConfig bc;
    bc.kvBudgetBytes = 10 * 256;
    bc.kvBytesPerToken = 256;
    ContinuousBatcher b(bc);
    Request r = mkReq(0, 0, 100, 100);
    b.enqueue(&r); // accepted: shedding/stalling is decided at admit
    // Without a policy the head blocks forever (the engine turns that
    // into a StallError); with any policy attached the impossible head
    // is shed structurally.
    EXPECT_TRUE(b.admit().admitted.empty());
    EXPECT_EQ(b.waitingCount(), 1);
    DeadlineAwareShedPolicy shed;
    auto out = b.admit(&shed);
    EXPECT_TRUE(out.admitted.empty());
    ASSERT_EQ(out.shed.size(), 1u);
    EXPECT_EQ(out.shed[0]->id, 0);
    EXPECT_EQ(r.state, ReqState::Shed);
    EXPECT_EQ(b.waitingCount(), 0);
    EXPECT_EQ(b.kvBytesReserved(), 0);
}

// ---- trace generation -------------------------------------------------

TEST(Trace, DeterministicSortedAndClamped)
{
    TraceConfig tc = burstyTrace(100);
    auto a = generateTrace(tc, 7);
    auto b = generateTrace(tc, 7);
    auto c = generateTrace(tc, 8);
    ASSERT_EQ(a.size(), 100u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].promptLen, b[i].promptLen);
        EXPECT_EQ(a[i].outputLen, b[i].outputLen);
        EXPECT_GE(a[i].promptLen, tc.promptMin);
        EXPECT_LE(a[i].promptLen, tc.promptMax);
        EXPECT_GE(a[i].outputLen, tc.outputMin);
        EXPECT_LE(a[i].outputLen, tc.outputMax);
        if (i) {
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
    }
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs |= a[i].arrival != c[i].arrival;
    EXPECT_TRUE(differs);
}

// ---- policies ---------------------------------------------------------

TEST(Policy, StaticSplitIgnoresLoad)
{
    StaticSplitPolicy p(0.3);
    LoadSnapshot idle;
    LoadSnapshot busy;
    busy.waitingPromptTokens = 100000;
    busy.activeDecodes = 64;
    BwSplit a = p.split(idle, 1000);
    BwSplit c = p.split(busy, 1000);
    EXPECT_EQ(a.prefillBw, 300);
    EXPECT_EQ(a.decodeBw, 700);
    EXPECT_EQ(c.prefillBw, a.prefillBw);
    EXPECT_EQ(c.decodeBw, a.decodeBw);
}

TEST(Policy, QueueDepthReallocates)
{
    QueueDepthPolicy p(256.0, 0.75);
    LoadSnapshot idle;
    idle.activeDecodes = 8;
    BwSplit a = p.split(idle, 1000);
    EXPECT_EQ(a.prefillBw, 0); // empty queue: decode gets everything
    EXPECT_EQ(a.decodeBw, 1000);

    LoadSnapshot deep;
    deep.pendingPrefillTokens = 10000;
    deep.activeDecodes = 8;
    BwSplit b = p.split(deep, 1000);
    EXPECT_EQ(b.prefillBw, 750); // capped at the decode-protection limit
    EXPECT_EQ(b.decodeBw, 250);

    // Waiting-but-unadmittable work must not pull bandwidth: nothing in
    // the batch could spend it this iteration.
    LoadSnapshot blocked;
    blocked.waitingPromptTokens = 10000;
    blocked.activeDecodes = 8;
    BwSplit d = p.split(blocked, 1000);
    EXPECT_EQ(d.prefillBw, 0);
    EXPECT_EQ(d.decodeBw, 1000);

    LoadSnapshot shallow;
    shallow.pendingPrefillTokens = 128; // half the ramp
    BwSplit c = p.split(shallow, 1000);
    EXPECT_EQ(c.prefillBw, 375);
}

// ---- metrics: hand-computed 3-request trace ---------------------------

TEST(Metrics, HandComputedThreeRequestTrace)
{
    // r0: TTFT 100, single-token (no TPOT).
    // r1: TTFT 200, TPOT (1050-250)/4 = 200.
    // r2: TTFT 600, TPOT (1100-700)/2 = 200.
    std::vector<Request> reqs(3);
    reqs[0] = mkReq(0, 0, 10, 1);
    reqs[0].firstTokenAt = 100;
    reqs[0].finishedAt = 100;
    reqs[0].generated = 1;
    reqs[1] = mkReq(1, 50, 10, 5);
    reqs[1].firstTokenAt = 250;
    reqs[1].finishedAt = 1050;
    reqs[1].generated = 5;
    reqs[2] = mkReq(2, 100, 10, 3);
    reqs[2].firstTokenAt = 700;
    reqs[2].finishedAt = 1100;
    reqs[2].generated = 3;
    for (auto& r : reqs)
        r.state = ReqState::Finished;

    SloConfig slo;
    slo.ttftCycles = 250;
    slo.tpotCycles = 300;
    ServingSummary s = summarize(reqs, 1100, slo);

    EXPECT_EQ(s.completed, 3);
    EXPECT_EQ(s.generatedTokens, 9);
    EXPECT_DOUBLE_EQ(ttft(reqs[2]), 600.0);
    EXPECT_DOUBLE_EQ(tpot(reqs[1]), 200.0);
    // Nearest-rank percentiles over {100, 200, 600} and {200, 200}.
    EXPECT_DOUBLE_EQ(s.ttftP50, 200.0);
    EXPECT_DOUBLE_EQ(s.ttftP99, 600.0);
    EXPECT_DOUBLE_EQ(s.ttftMean, 300.0);
    EXPECT_DOUBLE_EQ(s.tpotP50, 200.0);
    EXPECT_DOUBLE_EQ(s.tpotP99, 200.0);
    // r2 misses the TTFT SLO; 1 + 5 tokens remain good.
    EXPECT_EQ(s.sloCompliant, 2);
    EXPECT_DOUBLE_EQ(s.throughputTokensPerKcycle, 9.0 / 1.1);
    EXPECT_DOUBLE_EQ(s.goodputTokensPerKcycle, 6.0 / 1.1);
}

// ---- per-iteration graphs & scheduler reuse ---------------------------

TEST(Runtime, SchedulerReuseMatchesFreshScheduler)
{
    DecoderParams p;
    p.cfg = servingSimConfig();
    p.moeRegions = 4;
    p.moeTile = 16;
    p.denseTile = 16;
    IterationSpec spec;
    spec.kvLens = {32, 64, 96, 160};
    Rng rng(3);
    spec.trace = generateExpertTrace(rng, 4, p.cfg.numExperts, p.cfg.topK);

    SimResult fresh1 = runDecoderIteration(p, spec);
    dam::Scheduler sched;
    SimResult reused1 = runDecoderIteration(p, spec, &sched);
    SimResult reused2 = runDecoderIteration(p, spec, &sched);
    EXPECT_EQ(fresh1.cycles, reused1.cycles);
    EXPECT_EQ(reused1.cycles, reused2.cycles);
    EXPECT_EQ(fresh1.totalFlops, reused1.totalFlops);
    EXPECT_EQ(fresh1.offChipBytes, reused2.offChipBytes);
}

TEST(Runtime, RecycledGraphMatchesFreshGraphAcrossBatchChanges)
{
    DecoderParams p;
    p.cfg = servingSimConfig();
    p.moeRegions = 4;
    p.moeTile = 16;
    p.denseTile = 16;
    dam::Scheduler sched;
    GraphArena arena;
    Graph reuse(SimConfig{}, &arena);

    // Vary the batch composition across recycles, as the engine does.
    std::vector<std::vector<int64_t>> batches = {
        {32, 64, 96, 160}, {48, 80}, {32, 64, 96, 160}, {200},
        {16, 16, 16, 16, 16, 16},
    };
    for (size_t i = 0; i < batches.size(); ++i) {
        IterationSpec spec;
        spec.kvLens = batches[i];
        Rng rng(100 + i);
        spec.trace = generateExpertTrace(
            rng, static_cast<int64_t>(spec.kvLens.size()),
            p.cfg.numExperts, p.cfg.topK);
        SimResult fresh = runDecoderIteration(p, spec, &sched);
        SimResult recycled = runDecoderIteration(p, spec, &sched, &reuse);
        EXPECT_EQ(fresh.cycles, recycled.cycles) << "batch " << i;
        EXPECT_EQ(fresh.totalFlops, recycled.totalFlops) << "batch " << i;
        EXPECT_EQ(fresh.offChipBytes, recycled.offChipBytes)
            << "batch " << i;
        EXPECT_EQ(fresh.onChipPeakBytes, recycled.onChipPeakBytes)
            << "batch " << i;
    }
}

// ---- engine -----------------------------------------------------------

TEST(Engine, DeterministicReplayUnderFixedSeed)
{
    TraceConfig tc = burstyTrace(30);
    EngineConfig ec;
    ec.seed = 11;
    QueueDepthPolicy policy;

    auto run_once = [&] {
        auto reqs = generateTrace(tc, 5);
        ServingEngine engine(ec, policy);
        return engine.run(reqs);
    };
    EngineResult a = run_once();
    EngineResult b = run_once();
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.summary.makespan, b.summary.makespan);
    EXPECT_DOUBLE_EQ(a.summary.ttftP99, b.summary.ttftP99);
    EXPECT_DOUBLE_EQ(a.summary.tpotP99, b.summary.tpotP99);
    EXPECT_DOUBLE_EQ(a.summary.goodputTokensPerKcycle,
                     b.summary.goodputTokensPerKcycle);
    EXPECT_DOUBLE_EQ(a.summary.computeUtilization,
                     b.summary.computeUtilization);
}

TEST(Engine, CompletesAllRequestsAndStampsLatencies)
{
    TraceConfig tc = burstyTrace(30);
    EngineConfig ec;
    QueueDepthPolicy policy;
    auto reqs = generateTrace(tc, 5);
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    EXPECT_EQ(r.summary.completed, 30);
    for (const auto& req : reqs) {
        EXPECT_TRUE(req.done());
        EXPECT_EQ(req.generated, req.outputLen);
        EXPECT_GT(req.firstTokenAt, req.arrival);
        EXPECT_GE(req.finishedAt, req.firstTokenAt);
    }
    EXPECT_GT(r.summary.computeUtilization, 0.0);
    EXPECT_LE(r.summary.computeUtilization, 1.0);
    EXPECT_EQ(r.timeline.span(), r.summary.makespan);
    EXPECT_EQ(static_cast<int64_t>(r.timeline.iterations()),
              r.iterations);
}

TEST(Engine, RecycledGraphsMatchRebuildPathOver100Iterations)
{
    // Acceptance gate for graph recycling: >= 100 batching iterations on
    // one engine instance, with every request's outcome and every
    // iteration identical to rebuilding the iteration graph from scratch
    // each time (the oracle). The decode batch walks from 1 to past the
    // attention region count, so the recycled graph is rearmed across
    // batch sizes, including the dispatcher's min(regions, B) priming.
    TraceConfig tc = burstyTrace(60);
    QueueDepthPolicy policy;
    const EngineConfig defaults;

    auto run_once = [&](bool recycle, std::vector<Request>& reqs) {
        reqs = generateTrace(tc, 5);
        EngineConfig ec;
        ec.recycleGraphs = recycle;
        ServingEngine engine(ec, policy);
        return engine.run(reqs);
    };
    std::vector<Request> rebuild_reqs;
    std::vector<Request> recycled_reqs;
    EngineResult rebuild = run_once(false, rebuild_reqs);
    EngineResult recycled = run_once(true, recycled_reqs);

    EXPECT_GE(recycled.iterations, 100);
    EXPECT_EQ(recycled.iterations, rebuild.iterations);

    int64_t min_batch = std::numeric_limits<int64_t>::max();
    int64_t max_batch = 0;
    for (const IterationSample& s : recycled.timeline.samples()) {
        if (s.decodeBatch == 0)
            continue;
        min_batch = std::min(min_batch, s.decodeBatch);
        max_batch = std::max(max_batch, s.decodeBatch);
    }
    EXPECT_EQ(min_batch, 1);
    EXPECT_GT(max_batch, defaults.attnRegions);

    ASSERT_EQ(recycled_reqs.size(), rebuild_reqs.size());
    for (size_t i = 0; i < recycled_reqs.size(); ++i) {
        EXPECT_EQ(recycled_reqs[i].state, rebuild_reqs[i].state)
            << "request " << i;
        EXPECT_EQ(recycled_reqs[i].firstTokenAt,
                  rebuild_reqs[i].firstTokenAt) << "request " << i;
        EXPECT_EQ(recycled_reqs[i].finishedAt, rebuild_reqs[i].finishedAt)
            << "request " << i;
    }
    const auto& got = recycled.timeline.samples();
    const auto& want = rebuild.timeline.samples();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "iteration " << i;

    EXPECT_EQ(recycled.summary.makespan, rebuild.summary.makespan);
    EXPECT_EQ(recycled.summary.completed, rebuild.summary.completed);
    EXPECT_EQ(recycled.summary.generatedTokens,
              rebuild.summary.generatedTokens);
    EXPECT_DOUBLE_EQ(recycled.summary.ttftP50, rebuild.summary.ttftP50);
    EXPECT_DOUBLE_EQ(recycled.summary.ttftP99, rebuild.summary.ttftP99);
    EXPECT_DOUBLE_EQ(recycled.summary.tpotP99, rebuild.summary.tpotP99);
    EXPECT_DOUBLE_EQ(recycled.summary.goodputTokensPerKcycle,
                     rebuild.summary.goodputTokensPerKcycle);
    EXPECT_DOUBLE_EQ(recycled.summary.computeUtilization,
                     rebuild.summary.computeUtilization);
}

TEST(Engine, DeterministicReplayWithRecycledGraphs)
{
    // Two seeded runs through the recycled-graph engine must produce
    // byte-identical metrics (guards the arena/recycling refactor
    // against nondeterminism, e.g. reused state leaking across
    // iterations).
    TraceConfig tc = burstyTrace(40);
    QueueDepthPolicy policy;
    auto run_once = [&] {
        auto reqs = generateTrace(tc, 9);
        EngineConfig ec;
        ec.seed = 17;
        ec.recycleGraphs = true;
        ServingEngine engine(ec, policy);
        return engine.run(reqs);
    };
    EngineResult a = run_once();
    EngineResult b = run_once();
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.summary.makespan, b.summary.makespan);
    EXPECT_EQ(a.summary.generatedTokens, b.summary.generatedTokens);
    EXPECT_DOUBLE_EQ(a.summary.ttftP50, b.summary.ttftP50);
    EXPECT_DOUBLE_EQ(a.summary.ttftP99, b.summary.ttftP99);
    EXPECT_DOUBLE_EQ(a.summary.tpotP99, b.summary.tpotP99);
    EXPECT_DOUBLE_EQ(a.summary.goodputTokensPerKcycle,
                     b.summary.goodputTokensPerKcycle);
    EXPECT_DOUBLE_EQ(a.summary.computeUtilization,
                     b.summary.computeUtilization);
}

TEST(Engine, QueueDepthPolicyBeatsStaticSplitOnBurstyTrace)
{
    TraceConfig tc = burstyTrace(80);
    EngineConfig ec;

    auto goodput = [&](const Policy& policy) {
        auto reqs = generateTrace(tc, deriveSeed(102));
        ServingEngine engine(ec, policy);
        return engine.run(reqs).summary.goodputTokensPerKcycle;
    };
    StaticSplitPolicy static_policy(0.3);
    QueueDepthPolicy dynamic_policy;
    double static_goodput = goodput(static_policy);
    double dynamic_goodput = goodput(dynamic_policy);

    // The headline serving property: queue-depth-driven reallocation
    // strictly beats the static split on SLO goodput under bursts —
    // deterministically, since everything is seeded.
    EXPECT_GT(dynamic_goodput, static_goodput);
    EXPECT_DOUBLE_EQ(dynamic_goodput, goodput(dynamic_policy));
    EXPECT_DOUBLE_EQ(static_goodput, goodput(static_policy));
}
