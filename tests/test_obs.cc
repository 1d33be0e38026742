/**
 * @file
 * Observability-layer tests. The correctness bar for tracing is the
 * determinism contract: exported bytes are bit-identical across seeded
 * replays and across cluster worker-thread counts, and attaching a sink
 * never changes what the simulation computes. On top of that: name
 * interning, counter change-sampling and merge semantics, ring-buffer
 * bounding, span balance and per-track monotonicity, request-lifecycle
 * ordering, JSON escaping, the per-replica peak-occupancy merge fix,
 * and rollback to a mark (what a resumed replica run does to its sink).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <tuple>

#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "runtime/cluster.hh"
#include "runtime/engine.hh"
#include "support/rng.hh"

#include "helpers.hh"

using namespace step;
using namespace step::obs;
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

EngineResult
runTraced(TraceSink* sink, int64_t n)
{
    EngineConfig ec;
    ec.seed = deriveSeed(1);
    QueueDepthPolicy policy;
    auto reqs = generateTrace(burstyTrace(n), deriveSeed(2));
    ServingEngine engine(ec, policy);
    if (sink)
        engine.attachTrace(sink);
    return engine.run(reqs);
}

std::string
exportChrome(const TraceSink& sink)
{
    std::ostringstream os;
    writeChromeTrace(os, {&sink});
    return os.str();
}

std::string
exportJsonl(const TraceSink& sink)
{
    std::ostringstream os;
    writeRequestJsonl(os, {&sink});
    return os.str();
}

} // namespace

// ---- building blocks --------------------------------------------------

TEST(ObsTrace, LevelParseAndNamesRoundTrip)
{
    // --trace-level accepts exactly the names traceLevelName prints.
    auto parse = [](std::string level, TraceLevel* out) {
        test::Args a({"sim", "--trace", "t.json", "--trace-level", level});
        Cli cli = a.cli();
        TraceCli trace(cli);
        const std::string error = cli.tryParse();
        *out = trace.options.level;
        return error;
    };
    for (TraceLevel l : {TraceLevel::Off, TraceLevel::Request,
                         TraceLevel::Op, TraceLevel::Full}) {
        TraceLevel parsed = TraceLevel::Off;
        EXPECT_EQ(parse(traceLevelName(l), &parsed), "");
        EXPECT_EQ(parsed, l);
    }
    TraceLevel parsed = TraceLevel::Off;
    EXPECT_EQ(parse("verbose", &parsed),
              "--trace-level takes one of off|request|op|full, got "
              "'verbose'");
    EXPECT_LT(TraceLevel::Off, TraceLevel::Request);
    EXPECT_LT(TraceLevel::Request, TraceLevel::Op);
    EXPECT_LT(TraceLevel::Op, TraceLevel::Full);
}

TEST(ObsTrace, CliWriteLaysOutTheExportersFiles)
{
    TraceSink sink(TraceOptions{TraceLevel::Op});
    runTraced(&sink, 6);
    const std::vector<const TraceSink*> views{&sink};
    auto write = [&](const std::string& path) {
        test::Args a({"sim", "--trace", path, "--trace-level", "op"});
        Cli cli = a.cli();
        TraceCli trace(cli);
        EXPECT_EQ(cli.tryParse(), "");
        std::ostringstream out;
        testing::internal::CaptureStderr();
        const bool ok = trace.write(out, views, "6 requests", "engine");
        return std::tuple(ok, out.str(),
                          testing::internal::GetCapturedStderr());
    };

    // Both files hold exactly what the stream exporters write, and the
    // report follows the switch table (the level is op).
    const std::string path = testing::TempDir() + "obs_cli_write.json";
    const std::string jsonl =
        testing::TempDir() + "obs_cli_write.requests.jsonl";
    const auto [ok, out, err] = write(path);
    EXPECT_TRUE(ok);
    EXPECT_EQ(err, "");
    std::ostringstream chrome;
    writeChromeTrace(chrome, views, "engine");
    EXPECT_EQ(test::readFile(path), chrome.str());
    EXPECT_EQ(test::readFile(jsonl), exportJsonl(sink));
    EXPECT_EQ(out.rfind("\ncontext-switch attribution (", 0), 0u);
    const std::string report = "\ntrace (op, 6 requests) -> " + path +
                               "\nrequest lifecycle -> " + jsonl + "\n";
    ASSERT_GE(out.size(), report.size());
    EXPECT_EQ(out.substr(out.size() - report.size()), report);
    std::remove(path.c_str());
    std::remove(jsonl.c_str());

    // A path in a missing directory: one stderr line, nothing on out.
    const std::string missing = testing::TempDir() + "no-such-dir/t.json";
    const auto [failed_ok, failed_out, failed_err] = write(missing);
    EXPECT_FALSE(failed_ok);
    EXPECT_EQ(failed_out, "");
    EXPECT_EQ(failed_err, "sim: cannot write trace to " + missing + "\n");

    EXPECT_EQ(sidecarPath("out.json", ".requests.jsonl"),
              "out.requests.jsonl");
    EXPECT_EQ(sidecarPath("out", ".requests.jsonl"), "out.requests.jsonl");
}

TEST(ObsTrace, InterningIsStableAndIdempotent)
{
    TraceSink sink;
    const uint32_t a = sink.intern("moe.gather");
    const uint32_t b = sink.intern("attn.disp");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, sink.intern("moe.gather"));
    // Force table growth, then confirm early ids still resolve (the
    // interner must not hand out views that dangle on rehash).
    for (int i = 0; i < 300; ++i)
        sink.intern("op." + std::to_string(i));
    EXPECT_EQ(sink.name(a), "moe.gather");
    EXPECT_EQ(sink.name(b), "attn.disp");
}

TEST(ObsTrace, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ObsCounters, RegistrationIsIdempotentAndTyped)
{
    CounterRegistry reg;
    auto h1 = reg.monotonic("tokens");
    auto h2 = reg.gauge("queue");
    EXPECT_EQ(h1, reg.monotonic("tokens"));
    EXPECT_NE(h1, h2);
    reg.add(h1, 5);
    reg.add(h1, 7);
    reg.set(h2, 3);
    EXPECT_EQ(reg.value(h1), 12);
    EXPECT_EQ(reg.value(h2), 3);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "tokens");
    EXPECT_TRUE(snap[0].monotonic);
    EXPECT_EQ(snap[1].name, "queue");
    EXPECT_FALSE(snap[1].monotonic);
}

TEST(ObsCounters, ConsumeChangedSamplesOnlyTransitions)
{
    CounterRegistry reg;
    auto h = reg.gauge("depth");
    EXPECT_TRUE(reg.consumeChanged(h)); // initial value is a transition
    EXPECT_FALSE(reg.consumeChanged(h));
    reg.set(h, 4);
    EXPECT_TRUE(reg.consumeChanged(h));
    EXPECT_FALSE(reg.consumeChanged(h));
    reg.set(h, 4); // unchanged value: no sample
    EXPECT_FALSE(reg.consumeChanged(h));
}

TEST(ObsTrace, RingBoundsEventCountAndCountsDrops)
{
    TraceOptions opts;
    opts.level = TraceLevel::Request;
    opts.ringCapacity = 8;
    TraceSink sink(opts);
    for (int i = 0; i < 50; ++i)
        sink.reqFirstToken(i, 0, static_cast<dam::Cycle>(i) * 10);
    EXPECT_EQ(sink.eventCount(), 8u);
    EXPECT_EQ(sink.droppedEvents(), 42u);
    // The survivors are the newest events, oldest-first.
    int64_t expect_id = 42;
    dam::Cycle last = 0;
    sink.forEachEvent([&](const TraceEvent& e) {
        EXPECT_EQ(e.arg0, expect_id++);
        EXPECT_GE(e.ts, last);
        last = e.ts;
    });
    EXPECT_EQ(expect_id, 50);
}

// ---- engine integration ------------------------------------------------

TEST(ObsEngine, AttachingTraceDoesNotChangeTheSimulation)
{
    EngineResult plain = runTraced(nullptr, 40);
    TraceOptions opts;
    opts.level = TraceLevel::Full;
    TraceSink sink(opts);
    EngineResult traced = runTraced(&sink, 40);

    EXPECT_EQ(plain.iterations, traced.iterations);
    EXPECT_EQ(plain.summary.completed, traced.summary.completed);
    EXPECT_EQ(plain.summary.generatedTokens,
              traced.summary.generatedTokens);
    EXPECT_EQ(plain.summary.makespan, traced.summary.makespan);
    EXPECT_EQ(plain.summary.ttftP99, traced.summary.ttftP99);
    EXPECT_EQ(plain.summary.tpotP99, traced.summary.tpotP99);
}

TEST(ObsEngine, RequestLifecycleIsCompleteAndOrdered)
{
    TraceOptions opts;
    opts.level = TraceLevel::Request;
    TraceSink sink(opts);
    EngineResult r = runTraced(&sink, 40);

    ASSERT_EQ(sink.requests().size(), 40u);
    for (const RequestLifecycle& rec : sink.requests()) {
        EXPECT_TRUE(rec.admitted);
        EXPECT_TRUE(rec.sawFirstToken);
        EXPECT_TRUE(rec.finished);
        EXPECT_LE(rec.arrival, rec.admittedAt);
        EXPECT_LE(rec.admittedAt, rec.firstTokenAt);
        EXPECT_LE(rec.firstTokenAt, rec.finishedAt);
        EXPECT_GT(rec.promptLen, 0);
    }
    EXPECT_EQ(static_cast<int64_t>(sink.requests().size()),
              r.summary.completed);
}

TEST(ObsEngine, CountersAreSnapshottedIntoTheSummary)
{
    TraceOptions opts;
    opts.level = TraceLevel::Request;
    TraceSink sink(opts);
    EngineResult r = runTraced(&sink, 30);

    ASSERT_FALSE(r.summary.counters.empty());
    auto find = [&](const std::string& name) -> const CounterSample* {
        for (const CounterSample& c : r.summary.counters)
            if (c.name == name)
                return &c;
        return nullptr;
    };
    const CounterSample* iters = find("iterations");
    ASSERT_NE(iters, nullptr);
    EXPECT_EQ(iters->value, r.iterations);
    const CounterSample* gen = find("generated_tokens");
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(gen->value, r.summary.generatedTokens);
    const CounterSample* depth = find("queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_FALSE(depth->monotonic);
    // Drained at the end of the run.
    EXPECT_EQ(depth->value, 0);
}

TEST(ObsEngine, EveryCounterIsRegisteredEvenWithTheTiersInactive)
{
    TraceOptions opts;
    opts.level = TraceLevel::Request;
    TraceSink sink(opts);
    EngineResult r = runTraced(&sink, 20);

    // Registration order: engine, then fault tier, then resilience tier.
    const std::vector<std::string> expected = {
        "queue_depth",       "running_requests", "decode_batch",
        "kv_reserved_bytes", "prefix_cache_tokens", "iterations",
        "prefill_tokens",    "generated_tokens", "context_switches",
        "requests_failed",   "requests_retried", "requests_shed",
        "deadline_misses",   "replica_faults",   "requests_migrated",
        "requests_capped"};
    const size_t first_tier_counter = 9; // requests_failed
    ASSERT_EQ(r.summary.counters.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.summary.counters[i].name, expected[i]);
        if (i >= first_tier_counter) {
            EXPECT_TRUE(r.summary.counters[i].monotonic) << expected[i];
            EXPECT_EQ(r.summary.counters[i].value, 0) << expected[i];
        }
    }
}

TEST(ObsEngine, CountersAgreeWithMetricsOnAFaultyRun)
{
    // A crash, a deep slowdown the drain migrates away from, deadlines
    // some requests miss and a shedding policy that drops sure losers:
    // every outcome the two exporters both record shows up here, and
    // each final counter must match its metrics series.
    TraceConfig tc = burstyTrace(80);
    tc.deadlineCycles = 2'000'000;
    QueueDepthPolicy policy;
    EngineConfig ec;
    ec.seed = deriveSeed(1);
    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    const dam::Cycle makespan =
        ServingEngine(ec, policy).run(probe_reqs).summary.makespan;

    ec.faults.downs.push_back({makespan / 5, makespan / 3});
    ec.faults.slowdowns.push_back({makespan / 2, makespan * 3 / 4, 0.2});
    for (const auto& w : slowdownTrips(ec.faults))
        ec.drainAt.push_back(w.start);
    DeadlineAwareShedPolicy shed;
    ec.admission = &shed;
    TraceOptions opts;
    opts.level = TraceLevel::Request;
    TraceSink sink(opts);
    MetricsRegistry metrics;
    ServingEngine engine(ec, policy);
    engine.attachTrace(&sink);
    engine.attachMetrics(&metrics);
    auto reqs = generateTrace(tc, deriveSeed(2));
    const EngineResult r = engine.run(reqs);

    auto counter = [&](const std::string& name) {
        for (const CounterSample& c : r.summary.counters)
            if (c.name == name)
                return c.value;
        ADD_FAILURE() << "no counter " << name;
        return int64_t{-1};
    };
    auto series = [&](const std::string& name) {
        const MetricsRegistry::Instrument* ins = metrics.find(name);
        EXPECT_NE(ins, nullptr) << "no instrument " << name;
        return ins ? ins->series.total() : WindowAgg{};
    };
    for (const char* event : {"requests_failed", "requests_shed",
                              "deadline_misses", "requests_migrated"}) {
        EXPECT_GT(counter(event), 0) << event;
        EXPECT_EQ(counter(event),
                  static_cast<int64_t>(series(event).count))
            << event;
    }
    for (const char* amount : {"generated_tokens", "prefill_tokens"}) {
        EXPECT_GT(counter(amount), 0) << amount;
        EXPECT_EQ(counter(amount),
                  static_cast<int64_t>(series(amount).sum))
            << amount;
    }
    EXPECT_EQ(counter("requests_failed"), r.summary.failedRequests);
    EXPECT_EQ(counter("requests_shed"), r.summary.shedRequests);
    EXPECT_EQ(counter("deadline_misses"), r.summary.deadlineMisses);
}

TEST(ObsEngine, SchedulerSpansBalanceAndStayMonotonePerTrack)
{
    TraceOptions opts;
    opts.level = TraceLevel::Full;
    TraceSink sink(opts);
    runTraced(&sink, 12);

    EXPECT_GT(sink.attributedSwitches(), 0u);
    int64_t depth = 0;
    uint64_t begins = 0, ends = 0, completes = 0;
    dam::Cycle last[3] = {0, 0, 0};
    sink.forEachEvent([&](const TraceEvent& e) {
        if (e.kind != EventKind::Complete) {
            EXPECT_GE(e.ts, last[e.tid]);
            last[e.tid] = e.ts;
        }
        switch (e.kind) {
          case EventKind::SpanBegin:
            ++begins;
            ++depth;
            break;
          case EventKind::SpanEnd:
            ++ends;
            --depth;
            EXPECT_GE(depth, 0);
            break;
          case EventKind::Complete:
            ++completes;
            break;
          default:
            break;
        }
    });
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(depth, 0);
    EXPECT_GT(completes, 0u); // per-op lifetime X spans
    // Every resume recorded in the attribution histogram.
    uint64_t attributed = 0;
    for (const SwitchAttribution& a : sink.switchAttribution())
        attributed += a.switches;
    EXPECT_EQ(attributed, sink.attributedSwitches());
    EXPECT_EQ(attributed, begins);
}

TEST(ObsEngine, ExportIsBitIdenticalAcrossSeededReplays)
{
    TraceOptions opts;
    opts.level = TraceLevel::Full;
    TraceSink a(opts), b(opts);
    runTraced(&a, 16);
    runTraced(&b, 16);
    EXPECT_EQ(exportChrome(a), exportChrome(b));
    EXPECT_EQ(exportJsonl(a), exportJsonl(b));
}

TEST(ObsEngine, ChromeExportBalancesSpansEvenAfterRingDrops)
{
    TraceOptions opts;
    opts.level = TraceLevel::Full;
    opts.ringCapacity = 64; // force heavy wrapping
    TraceSink sink(opts);
    runTraced(&sink, 12);
    EXPECT_GT(sink.droppedEvents(), 0u);

    const std::string json = exportChrome(sink);
    size_t b_count = 0, e_count = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos)
        ++b_count, ++pos;
    pos = 0;
    while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos)
        ++e_count, ++pos;
    EXPECT_EQ(b_count, e_count);
    EXPECT_NE(json.find("trace.ring_dropped_events"), std::string::npos);
}

// ---- cluster integration ----------------------------------------------

TEST(ObsCluster, TraceBytesIndependentOfWorkerThreadCount)
{
    TraceConfig tc = burstyTrace(60);
    tc.arrivalsPerKcycle = 0.0045;
    QueueDepthPolicy policy;

    std::string chrome[2], jsonl[2];
    for (int i = 0; i < 2; ++i) {
        ClusterConfig cc;
        cc.replicas = 3;
        cc.threads = i == 0 ? 1 : 3;
        cc.trace.level = TraceLevel::Full;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingCluster cluster(cc, policy);
        ClusterResult r = cluster.run(reqs);
        ASSERT_EQ(r.traces.size(), 3u);
        std::ostringstream cos, jos;
        writeChromeTrace(cos, r.traceViews());
        writeRequestJsonl(jos, r.traceViews());
        chrome[i] = cos.str();
        jsonl[i] = jos.str();
    }
    EXPECT_EQ(chrome[0], chrome[1]);
    EXPECT_EQ(jsonl[0], jsonl[1]);
}

TEST(ObsCluster, TracingOffProducesNoSinks)
{
    ClusterConfig cc;
    cc.replicas = 2;
    QueueDepthPolicy policy;
    auto reqs = generateTrace(burstyTrace(20), deriveSeed(2));
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);
    EXPECT_TRUE(r.traces.empty());
    EXPECT_TRUE(r.aggregate.counters.empty());
}

// ---- summary merge satellites -----------------------------------------

TEST(ObsMerge, PeakOccupancyReportsBothMaxReplicaAndSummedBound)
{
    // Leaf summaries as an engine builds them: one replica is its own
    // busiest replica.
    ServingSummary a, b;
    a.prefixPeakOccupancyTokens = a.prefixPeakOccupancyMaxReplica = 100;
    b.prefixPeakOccupancyTokens = b.prefixPeakOccupancyMaxReplica = 60;
    ServingSummary m = mergeSummaries({a, b});
    EXPECT_EQ(m.prefixPeakOccupancyTokens, 160);
    EXPECT_EQ(m.prefixPeakOccupancyMaxReplica, 100);

    // A merge of merges carries the busiest replica, not a summed bound.
    ServingSummary c;
    c.prefixPeakOccupancyTokens = c.prefixPeakOccupancyMaxReplica = 90;
    ServingSummary m2 = mergeSummaries({m, c});
    EXPECT_EQ(m2.prefixPeakOccupancyTokens, 250);
    EXPECT_EQ(m2.prefixPeakOccupancyMaxReplica, 100);
}

TEST(ObsMerge, CountersSumMonotonicAndMaxGauges)
{
    ServingSummary a, b;
    a.counters = {{"generated_tokens", 100, true}, {"queue_depth", 7,
                                                    false}};
    b.counters = {{"generated_tokens", 40, true},
                  {"queue_depth", 11, false},
                  {"iterations", 5, true}};
    ServingSummary m = mergeSummaries({a, b});
    ASSERT_EQ(m.counters.size(), 3u);
    EXPECT_EQ(m.counters[0].name, "generated_tokens");
    EXPECT_EQ(m.counters[0].value, 140);
    EXPECT_EQ(m.counters[1].name, "queue_depth");
    EXPECT_EQ(m.counters[1].value, 11);
    EXPECT_EQ(m.counters[2].name, "iterations");
    EXPECT_EQ(m.counters[2].value, 5);
}
