/**
 * @file
 * Hot-path benchmark for the DAM substrate and the serving engine's
 * graph-recycling path. Reports, for several substrate workloads at
 * bench_micro_substrate scale:
 *
 *  - events/sec (an event = one token pushed through a channel),
 *  - steady-state heap allocations per event, measured with a counting
 *    global allocator around the scheduler's drain() phase only (graph
 *    build/teardown and coroutine-frame creation in start() excluded),
 *  - serving-iteration throughput with graph recycling on and off, and
 *    through one rearmed graph over a realistic decode-batch mix.
 *
 * With `--json[=path]` the results are also written to
 * BENCH_hotpath.json for CI trajectory capture.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "ops/higher_order.hh"
#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/rng.hh"
#include "workloads/decoder.hh"

// ---- counting allocator hook ------------------------------------------
// Every global allocation in the process bumps this counter; the bench
// snapshots it around the measured region.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
} // namespace

void*
operator new(std::size_t n)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

// GCC tracks the malloc attribute through the replaced operator new and
// then flags the inlined free() in the replaced operator delete as a
// mismatched pair (false positive: both are this TU's malloc/free
// replacements, which do match).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace step {
namespace {

using Clk = std::chrono::steady_clock;

double
seconds(Clk::time_point a, Clk::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- substrate pipelines ----------------------------------------------

/** src -> sink channel kernel (the BM_ChannelPingPong workload). */
void
buildPingPong(Graph& g, int n)
{
    std::vector<Token> toks;
    toks.reserve(static_cast<size_t>(n) + 1);
    for (int i = 0; i < n; ++i)
        toks.push_back(Token::data(Tile(1, 64)));
    toks.push_back(Token::done());
    auto& src = g.add<SourceOp>("src", std::move(toks),
                                StreamShape({Dim::fixed(n)}),
                                DataType::tile(1, 64));
    g.add<SinkOp>("sink", src.out());
}

/** src -> 4 identity maps -> sink (the BM_MapPipeline workload). */
void
buildMapPipeline(Graph& g, int n)
{
    std::vector<Token> toks;
    toks.reserve(static_cast<size_t>(n) + 1);
    for (int i = 0; i < n; ++i)
        toks.push_back(Token::data(Tile(32, 64)));
    toks.push_back(Token::done());
    auto& src = g.add<SourceOp>("src", std::move(toks),
                                StreamShape({Dim::fixed(n)}),
                                DataType::tile(32, 64));
    MapFn id = [](const std::vector<Value>& a, int64_t& f) -> Value {
        f += 64;
        return a[0];
    };
    StreamPort cur = src.out();
    for (int s = 0; s < 4; ++s) {
        auto& m = g.add<MapOp>("m" + std::to_string(s),
                               std::vector<StreamPort>{cur}, id, 64,
                               DataType::tile(32, 64));
        cur = m.out();
    }
    g.add<SinkOp>("sink", cur);
}

/** src -> Partition(one-hot) -> 4 ways -> EagerMerge -> sinks. */
void
buildRouting(Graph& g, int chunks)
{
    const int K = 4;
    const int W = 4;
    std::vector<Token> in_toks, sel_toks;
    for (int b = 0; b < chunks; ++b) {
        for (int k = 0; k < K; ++k)
            in_toks.push_back(Token::data(Tile(1, 16)));
        in_toks.push_back(Token::stop(1));
        sel_toks.push_back(Token::data(
            Selector::oneHot(static_cast<uint32_t>(b % W))));
    }
    in_toks.push_back(Token::done());
    sel_toks.push_back(Token::done());
    auto& src = g.add<SourceOp>("src", std::move(in_toks),
                                StreamShape({Dim::fixed(chunks),
                                             Dim::fixed(K)}),
                                DataType::tile(1, 16));
    auto& sel = g.add<SourceOp>("sel", std::move(sel_toks),
                                StreamShape({Dim::fixed(chunks)}),
                                DataType::selector(W));
    auto& part = g.add<PartitionOp>("part", src.out(), sel.out(), 1, W);
    std::vector<StreamPort> ways;
    for (int w = 0; w < W; ++w)
        ways.push_back(part.out(w));
    auto& merge = g.add<EagerMergeOp>("merge", ways, 1);
    g.add<SinkOp>("osink", merge.out());
    g.add<SinkOp>("ssink", merge.selOut());
}

struct SubstrateResult
{
    double eventsPerSec = 0;
    double allocsPerEvent = 0;
    uint64_t steadyAllocs = 0;
    uint64_t events = 0;
};

/**
 * Run @p build through the recycled-graph path @p reps times and time
 * drain() only; the alloc delta is measured on the final (fully warm)
 * rep, so ring growth to the occupancy high-water mark and pooled-
 * channel warmup are excluded, exactly like graph build/teardown.
 */
template <typename BuildFn>
SubstrateResult
runSubstrate(BuildFn build, int reps)
{
    GraphArena arena;
    SimConfig sc;
    Graph g(sc, &arena);
    dam::Scheduler sched;
    SubstrateResult res;
    double drain_s = 0;
    for (int r = 0; r < reps; ++r) {
        g.recycle(sc);
        build(g);
        sched.reset();
        for (OpBase* op : g.ops())
            sched.add(op);
        sched.start();
        uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
        auto t0 = Clk::now();
        sched.drain();
        auto t1 = Clk::now();
        uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
        sched.reset();
        if (r > 0) { // rep 0 warms rings, pools, and scratch buffers
            drain_s += seconds(t0, t1);
            res.events += g.totalChannelTokens();
        }
        if (r == reps - 1)
            res.steadyAllocs = a1 - a0;
    }
    res.eventsPerSec = static_cast<double>(res.events) / drain_s;
    res.allocsPerEvent =
        static_cast<double>(res.steadyAllocs) /
        static_cast<double>(g.totalChannelTokens());
    return res;
}

// ---- serving iteration ------------------------------------------------

struct ServingResult
{
    double rearmItersPerSec = 0;    ///< rearm fast path (engine default)
    double batchMixItersPerSec = 0; ///< rearm over a changing batch
    uint64_t batchMixRebuilds = 0;  ///< builds over the whole batch mix
    double recycledItersPerSec = 0; ///< recycle + rebuild per iteration
    double rebuildItersPerSec = 0;  ///< cold graph per iteration
    double rearmEventsPerSec = 0;
    double rearmBuildUs = 0; ///< graph rearm + patch cost, no run
    uint64_t eventsPerIter = 0;
    uint64_t switchesPerIter = 0;
};

/**
 * Decode batch sizes of the batch-mix case: up from 1 to 24 and down to
 * 3 in single steps, then a few jumps, the way a continuous batcher's
 * batch moves as requests arrive and finish.
 */
std::vector<int64_t>
batchMixWalk()
{
    std::vector<int64_t> walk;
    for (int64_t b = 1; b <= 24; ++b)
        walk.push_back(b);
    for (int64_t b = 23; b >= 3; --b)
        walk.push_back(b);
    for (int64_t b : {12, 4, 20, 8, 16, 2, 24, 6})
        walk.push_back(b);
    return walk;
}

ServingResult
runServing(int reps)
{
    DecoderParams p;
    p.cfg = servingSimConfig();
    p.moeRegions = 4;
    p.moeTile = 16;
    p.denseTile = 16;
    IterationSpec spec;
    spec.kvLens = {32, 64, 96, 160};
    Rng rng(3);
    spec.trace = generateExpertTrace(
        rng, static_cast<int64_t>(spec.kvLens.size()), p.cfg.numExperts,
        p.cfg.topK);
    dam::Scheduler sched;

    ServingResult res;
    {
        // Rearm fast path: the structural key never changes, so every
        // iteration after the first patches the recycled graph in
        // place.
        GraphArena arena;
        Graph g(SimConfig{}, &arena);
        DecoderRearmHandles handles;
        runDecoderIteration(p, spec, &sched, &g, &handles); // build
        runDecoderIteration(p, spec, &sched, &g, &handles); // first rearm
        res.eventsPerIter = g.totalChannelTokens();
        auto t0 = Clk::now();
        for (int r = 0; r < reps; ++r)
            runDecoderIteration(p, spec, &sched, &g, &handles);
        double s = seconds(t0, Clk::now());
        res.rearmItersPerSec = reps / s;
        res.rearmEventsPerSec =
            static_cast<double>(res.eventsPerIter) * reps / s;

        // Rearm+patch cost alone (no simulation run in between; the
        // repeated rearm is idempotent).
        t0 = Clk::now();
        for (int r = 0; r < reps; ++r)
            rearmDecoderLayer(g, handles, p, spec);
        res.rearmBuildUs = seconds(t0, Clk::now()) / reps * 1e6;
    }
    {
        // Batch mix: a fixed continuous-batcher-like walk of the decode
        // batch through one graph. Batch size is a rearm payload, so the
        // graph is built once and every batch change rearms it.
        std::vector<IterationSpec> mix;
        for (int64_t b : batchMixWalk()) {
            IterationSpec s;
            for (int64_t i = 0; i < b; ++i)
                s.kvLens.push_back(rng.uniformRange(32, 192));
            s.trace = generateExpertTrace(rng, b, p.cfg.numExperts,
                                          p.cfg.topK);
            mix.push_back(std::move(s));
        }
        GraphArena arena;
        Graph g(SimConfig{}, &arena);
        DecoderRearmHandles handles;
        for (const IterationSpec& s : mix) // warmup pass, builds once
            runDecoderIteration(p, s, &sched, &g, &handles);
        const int walks = std::max(1, reps / 30);
        auto t0 = Clk::now();
        for (int w = 0; w < walks; ++w)
            for (const IterationSpec& s : mix)
                runDecoderIteration(p, s, &sched, &g, &handles);
        res.batchMixItersPerSec = static_cast<double>(walks) *
                                  static_cast<double>(mix.size()) /
                                  seconds(t0, Clk::now());
        res.batchMixRebuilds = handles.rebuilds;
    }
    {
        // Recycle + rebuild every iteration (the PR-2 path).
        GraphArena arena;
        Graph g(SimConfig{}, &arena);
        runDecoderIteration(p, spec, &sched, &g); // warmup
        auto t0 = Clk::now();
        for (int r = 0; r < reps; ++r)
            runDecoderIteration(p, spec, &sched, &g);
        res.recycledItersPerSec = reps / seconds(t0, Clk::now());
    }
    {
        runDecoderIteration(p, spec, &sched); // warmup
        auto t0 = Clk::now();
        for (int r = 0; r < reps; ++r)
            runDecoderIteration(p, spec, &sched);
        res.rebuildItersPerSec = reps / seconds(t0, Clk::now());
    }
    {
        // Context switches per decoder iteration.
        Graph g(iterationSimConfig(
            static_cast<int64_t>(spec.kvLens.size())));
        buildDecoderLayer(g, p, spec.trace, spec.kvLens);
        res.switchesPerIter = g.run().contextSwitches;
    }
    return res;
}

} // namespace
} // namespace step

int
main(int argc, char** argv)
{
    using namespace step;
    std::string json_path =
        bench::jsonFlagPath(argc, argv, "BENCH_hotpath.json");

    bench::banner("DAM hot path");

    SubstrateResult pp =
        runSubstrate([](Graph& g) { buildPingPong(g, 8192); }, 30);
    SubstrateResult mp =
        runSubstrate([](Graph& g) { buildMapPipeline(g, 8192); }, 30);
    SubstrateResult rt =
        runSubstrate([](Graph& g) { buildRouting(g, 4096); }, 30);
    ServingResult sv = runServing(300);

    std::printf("%-24s %14s %12s\n", "workload", "events/sec",
                "allocs/event");
    std::printf("%-24s %14.0f %12.4f\n", "pingpong", pp.eventsPerSec,
                pp.allocsPerEvent);
    std::printf("%-24s %14.0f %12.4f\n", "map_pipeline", mp.eventsPerSec,
                mp.allocsPerEvent);
    std::printf("%-24s %14.0f %12.4f\n", "routing", rt.eventsPerSec,
                rt.allocsPerEvent);
    std::printf("\nserving iteration (decoder layer, B=4, %llu events):\n",
                static_cast<unsigned long long>(sv.eventsPerIter));
    std::printf("  rearm (fast path):   %9.1f iters/sec (%.0f events/sec)\n",
                sv.rearmItersPerSec, sv.rearmEventsPerSec);
    std::printf("  recycle + rebuild:   %9.1f iters/sec\n",
                sv.recycledItersPerSec);
    std::printf("  cold rebuild:        %9.1f iters/sec\n",
                sv.rebuildItersPerSec);
    std::printf("  rearm build cost:    %9.1f us/iter\n", sv.rearmBuildUs);
    std::printf("  batch mix (B=1..24): %9.1f iters/sec (builds: %llu)\n",
                sv.batchMixItersPerSec,
                static_cast<unsigned long long>(sv.batchMixRebuilds));
    std::printf("  rearm vs rebuild:    %9.2fx\n",
                sv.rearmItersPerSec / sv.rebuildItersPerSec);
    std::printf("  switches/iter:       %9llu\n",
                static_cast<unsigned long long>(sv.switchesPerIter));

    bool zero_alloc = pp.steadyAllocs == 0 && mp.steadyAllocs == 0 &&
                      rt.steadyAllocs == 0;
    std::printf("\nsteady-state drain allocations: pingpong=%llu "
                "map=%llu routing=%llu -> %s\n",
                static_cast<unsigned long long>(pp.steadyAllocs),
                static_cast<unsigned long long>(mp.steadyAllocs),
                static_cast<unsigned long long>(rt.steadyAllocs),
                zero_alloc ? "ZERO-ALLOC OK" : "NON-ZERO");

    if (!json_path.empty()) {
        bench::JsonReport j;
        j.set("bench", std::string("hotpath"));
        j.set("pingpong_events_per_sec", pp.eventsPerSec, "events/sec");
        j.set("pingpong_allocs_per_event", pp.allocsPerEvent,
              "allocs/event");
        j.set("map_pipeline_events_per_sec", mp.eventsPerSec,
              "events/sec");
        j.set("map_pipeline_allocs_per_event", mp.allocsPerEvent,
              "allocs/event");
        j.set("routing_events_per_sec", rt.eventsPerSec, "events/sec");
        j.set("routing_allocs_per_event", rt.allocsPerEvent,
              "allocs/event");
        j.set("serving_rearm_iters_per_sec", sv.rearmItersPerSec,
              "iters/sec");
        j.set("serving_recycled_iters_per_sec", sv.recycledItersPerSec,
              "iters/sec");
        j.set("serving_rebuild_iters_per_sec", sv.rebuildItersPerSec,
              "iters/sec");
        j.set("serving_rearm_events_per_sec", sv.rearmEventsPerSec,
              "events/sec");
        j.set("serving_rearm_build_us", sv.rearmBuildUs, "us");
        j.set("serving_batchmix_iters_per_sec", sv.batchMixItersPerSec,
              "iters/sec");
        j.set("serving_batchmix_rebuilds",
              static_cast<double>(sv.batchMixRebuilds), "builds");
        j.set("serving_events_per_iter",
              static_cast<double>(sv.eventsPerIter), "events");
        j.set("serving_switches_per_iter",
              static_cast<double>(sv.switchesPerIter), "switches");
        j.set("zero_alloc_steady_state",
              std::string(zero_alloc ? "true" : "false"));
        if (!j.writeTo(json_path)) {
            std::fprintf(stderr, "failed to write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return zero_alloc ? 0 : 2;
}
