/**
 * @file
 * KV prefix-cache demo: a multi-turn conversation workload (shared
 * system prompt, per-turn deltas, outputs folded back into the context)
 * served three ways —
 *
 *   1. single engine, cache disabled vs enabled: hit rate, prefill
 *      tokens saved, TTFT/goodput win;
 *   2. cache-capacity sweep: hit rate and savings vs KV budget, the
 *      capacity-planning curve;
 *   3. 4-replica cluster, round-robin vs least-queued vs
 *      prefix-affinity routing: sessions sticking to the replica that
 *      holds their KV beat cache-blind routing on TTFT and goodput.
 *
 *   ./prefix_cache_sim [--seed N]
 *                 [--trace out.json] [--trace-level off|request|op|full]
 *
 * Tracing covers the cache-enabled single-engine run: the per-request
 * JSONL carries cached_prefix_tokens per admission, so cache hits are
 * visible per request, not just in aggregate.
 */
#include <iostream>
#include <memory>
#include <string>

#include "obs/export.hh"
#include "runtime/cluster.hh"
#include "support/cli.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace step;
using namespace step::runtime;

namespace {

TraceConfig
conversationTrace()
{
    TraceConfig tc;
    tc.numSessions = 48;
    tc.turnsPerSession = 5;
    tc.sharedSystemPromptLen = 96;
    tc.turnDeltaMean = 96;
    tc.outputMean = 48;
    tc.arrivalsPerKcycle = 0.0002; // session starts
    tc.turnGapMean = 6'000'000;
    return tc;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    uint64_t seed = 0;
    cli.seed(&seed);
    obs::TraceCli trace_cli(cli);
    cli.parse();
    TraceConfig tc = conversationTrace();

    std::cout << "multi-turn workload: " << tc.numSessions
              << " sessions x " << tc.turnsPerSession
              << " turns, shared system prompt "
              << tc.sharedSystemPromptLen << " tokens, seed " << seed
              << "\n";

    // ---- 1. single engine, cache off vs on ---------------------------
    for (int64_t capacity : {int64_t{0}, int64_t{1} << 16}) {
        EngineConfig ec;
        ec.seed = deriveSeed(1);
        ec.prefixCache.capacityTokens = capacity;
        QueueDepthPolicy policy;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingEngine engine(ec, policy);
        // Trace the cache-enabled run: the admission instants then
        // carry per-request cached-prefix-token annotations.
        std::unique_ptr<obs::TraceSink> sink;
        if (capacity && trace_cli.enabled()) {
            sink = std::make_unique<obs::TraceSink>(trace_cli.options);
            engine.attachTrace(sink.get());
        }
        EngineResult r = engine.run(reqs);
        std::cout << "\n--- prefix cache "
                  << (capacity ? "enabled" : "disabled");
        if (capacity)
            std::cout << " (" << capacity << " KV tokens)";
        std::cout << " ---\n";
        printSummary(r.summary, std::cout);
        if (sink &&
            !trace_cli.write(std::cout, {sink.get()},
                             std::to_string(sink->eventCount()) + " events",
                             "engine"))
            return 1;
    }

    // ---- 2. capacity sweep -------------------------------------------
    std::cout << "\ncache-capacity sweep (hit rate and prefill savings "
                 "vs KV budget):\n";
    Table sweep({"capacity (KV tok)", "hit %", "saved tok", "saved %",
                 "peak occ", "TTFT p50 (kcyc)", "goodput"});
    for (int64_t capacity : {512, 2048, 8192, 32768, 131072}) {
        EngineConfig ec;
        ec.seed = deriveSeed(1);
        ec.prefixCache.capacityTokens = capacity;
        QueueDepthPolicy policy;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingEngine engine(ec, policy);
        ServingSummary s = engine.run(reqs).summary;
        sweep.row()
            .cell(capacity)
            .cellF(100.0 * s.prefixHitRate, 1)
            .cell(s.prefixTokensSaved)
            .cellF(100.0 * s.prefillTokensSavedFrac, 1)
            .cell(s.prefixPeakOccupancyTokens)
            .cellF(s.ttftP50 / 1000.0, 0)
            .cellF(s.goodputTokensPerKcycle, 4);
    }
    sweep.print();

    // ---- 3. cluster routing comparison -------------------------------
    TraceConfig ctc = conversationTrace();
    ctc.numSessions = 96;
    ctc.arrivalsPerKcycle *= 4.0; // 4 replicas absorb 4x the sessions
    std::cout << "\n4-replica cluster on " << ctc.numSessions
              << " sessions (per-replica caches, 65536 KV tokens "
                 "each):\n";
    Table ct({"routing", "hit %", "saved %", "TTFT p50", "TTFT p99",
              "goodput", "SLO ok"});
    QueueDepthPolicy policy;
    for (RouteKind routing :
         {RouteKind::RoundRobin, RouteKind::LeastQueued,
          RouteKind::PrefixAffinity}) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.routing = routing;
        cc.engine.seed = deriveSeed(1);
        cc.engine.prefixCache.capacityTokens = int64_t{1} << 16;
        auto reqs = generateTrace(ctc, deriveSeed(3));
        ServingCluster cluster(cc, policy);
        ServingSummary s = cluster.run(reqs).aggregate;
        ct.row()
            .cell(routeKindName(routing))
            .cellF(100.0 * s.prefixHitRate, 1)
            .cellF(100.0 * s.prefillTokensSavedFrac, 1)
            .cellF(s.ttftP50 / 1000.0, 0)
            .cellF(s.ttftP99 / 1000.0, 0)
            .cellF(s.goodputTokensPerKcycle, 4)
            .cell(s.sloCompliant);
    }
    ct.print();
    std::cout << "\n(TTFT columns in kcycles. Prefix-affinity keeps a "
                 "session's turns on the replica that already holds "
                 "their KV; round-robin sprays them across cold "
                 "caches.)\n";
    return 0;
}
