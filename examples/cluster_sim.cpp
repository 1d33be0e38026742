/**
 * @file
 * Sharded serving-cluster demo: a 480-request bursty workload routed
 * across 4 shared-nothing replica engines running on worker threads,
 * once per routing policy (round-robin, least-queued-prompt-tokens,
 * hash affinity). Prints the cluster aggregate (percentiles recomputed
 * over the union of raw samples), then the per-replica breakdown for
 * the work-aware router, showing what the shards actually carried.
 *
 *   ./cluster_sim [--seed N] [--threads N] [--verify]
 *                 [--trace out.json] [--trace-level off|request|op|full]
 *                 [--metrics out.json] [--metrics-window N]
 *                 [--mtbf N | --fault-plan SPEC] [--slowdown-mtbf N]
 *                 [--deadline N] [--resilience]
 *                 [--breaker-source plan|telemetry]
 *                 [--bw-scales S0,S1,...]
 *
 * --verify statically checks every freshly built iteration graph on
 * every replica (src/verify) before running it; read-only, so output
 * bytes are identical with and without the flag.
 *
 * Tracing covers the least-queued-routing run: one sink per replica,
 * merged in replica order, so the output bytes do not depend on
 * --threads — the property CI pins with a byte comparison.
 *
 * --metrics exports the streaming-metrics artifact of the same
 * least-queued run (schema v2: per-replica windowed histograms and
 * time-series plus the replica-index-order merge) and the per-window
 * JSONL next to it; --metrics-window overrides the aggregation window
 * width in cycles. Like traces, metrics bytes are --threads-invariant.
 *
 * --bw-scales runs a heterogeneous fleet: comma-separated per-replica
 * compute-capacity factors (one per replica), honored by the replica
 * engines, the least-queued router's service model, and the resilience
 * tier's placement scoring.
 *
 * --breaker-source telemetry makes the resilience tier infer each
 * replica's circuit-breaker timeline online, from the failures and
 * first-token latencies (TTFT p95) its own run shows per health window,
 * instead of reading the fault plan; see runtime/resilience.hh.
 * Requires --resilience.
 *
 * Fault tier (off by default; without these flags the output is
 * bit-identical to the fault-less build): --mtbf N draws a seeded
 * random crash plan with mean-time-between-failures N cycles (MTTR =
 * N/4) over twice the trace span; --fault-plan takes explicit
 * "REPLICA@FAIL_AT[:RECOVER_AT]" windows, comma-separated;
 * --slowdown-mtbf N adds seeded slowdown windows (mean gap N cycles,
 * factor 0.5 — deep and long enough to trip the resilience breaker and
 * its migration drain); --deadline N stamps every request with an
 * arrival-relative deadline and sheds unmeetable work through
 * DeadlineAwareShedPolicy.
 *
 * --resilience turns on the PR 8 tier (see runtime/resilience.hh):
 * live migration with modeled KV handoff, circuit-breaker health
 * routing, cross-replica prefix reuse, the utilization autoscaler, and
 * the brown-out admission ladder over a priority-tagged trace. The
 * fault table gains a `migrated` column; an availability accounting
 * check (completed + failed + shed == submitted) runs on every
 * configuration, silently when it holds.
 */
#include <iostream>
#include <string>
#include <utility>

#include "obs/export.hh"
#include "runtime/cluster.hh"
#include "support/cli.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace step;
using namespace step::runtime;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    uint64_t seed = 0;
    int64_t mtbf = 0;
    int64_t slowdown_mtbf = 0;
    int64_t deadline = 0;
    bool resilience = false;
    std::string plan_spec;
    ClusterConfig cc;
    cli.seed(&seed);
    obs::TraceCli trace_cli(cli);
    obs::MetricsCli metrics_cli(cli);
    cli.number("--threads", &cc.threads);
    cli.number("--mtbf", &mtbf);
    cli.number("--slowdown-mtbf", &slowdown_mtbf);
    cli.number("--deadline", &deadline);
    cli.flag("--resilience", &resilience);
    // Static graph verification on every replica engine (read-only;
    // output bytes are identical with and without the flag).
    cli.flag("--verify", &cc.engine.verifyGraphs);
    cli.text("--fault-plan", &plan_spec);
    cli.factors("--bw-scales", &cc.bwScales);
    cli.choice("--breaker-source",
               {{"plan", BreakerSource::Plan},
                {"telemetry", BreakerSource::Telemetry}},
               &cc.resilience.breakerSource);
    cli.needs("--breaker-source", "--resilience");
    cli.parse();
    if ((mtbf > 0 || slowdown_mtbf > 0) && !plan_spec.empty())
        cli.fail("--mtbf/--slowdown-mtbf and --fault-plan are mutually "
                 "exclusive");

    TraceConfig tc;
    tc.numRequests = 480;
    // 4 replicas absorb ~4x the single-engine demo's arrival stream.
    tc.arrivalsPerKcycle = 0.0048;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    // Heavy-tailed lengths: equal request counts carry unequal work,
    // which is where routing policies separate.
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;

    if (deadline > 0)
        tc.deadlineCycles = deadline;

    cc.replicas = 4;
    if (!cc.bwScales.empty() &&
        cc.bwScales.size() != static_cast<size_t>(cc.replicas))
        cli.fail("--bw-scales wants " + std::to_string(cc.replicas) +
                 " factors, got " + std::to_string(cc.bwScales.size()));

    FaultPlan plan;
    if (!plan_spec.empty()) {
        std::string err;
        if (!parseFaultPlan(plan_spec, &plan, &err))
            cli.fail("--fault-plan: " + err);
    } else if (mtbf > 0 || slowdown_mtbf > 0) {
        // Horizon: twice the trace span, so late crashes are possible.
        const auto probe = generateTrace(tc, deriveSeed(2));
        FaultPlanConfig fc;
        fc.mtbfCycles = mtbf;
        fc.mttrCycles = mtbf / 4;
        // The default windows (factor 0.5, 2M cycles on average) are
        // deep and long enough to trip the breaker (slowdownTrips:
        // factor <= 0.75, longer than the detection lag), so the
        // resilience tier's slowdown drain has something to drain.
        fc.slowdownMtbfCycles = slowdown_mtbf;
        fc.horizonCycles =
            probe.empty() ? 0 : probe.back().arrival * 2;
        plan = generateFaultPlan(fc, cc.replicas, deriveSeed(3));
    }
    cc.faults = plan;
    DeadlineAwareShedPolicy shed_policy;
    if (deadline > 0)
        cc.engine.admission = &shed_policy;
    // Resilience tier (PR 8): migration + breakers + cross-replica
    // prefix reuse + autoscaler, with the brown-out admission ladder
    // over a priority-tagged trace. Strictly opt-in: without the flag
    // every output byte matches the plain fault tier.
    BrownoutPolicy brownout;
    if (resilience) {
        cc.resilience.enabled = true;
        cc.resilience.remotePrefix.enabled = true;
        cc.resilience.autoscale.enabled = true;
        tc.lowPriorityFrac = 0.2;
        tc.highPriorityFrac = 0.1;
        if (deadline > 0)
            brownout.fallback = &shed_policy;
        cc.engine.admission = &brownout;
    }

    std::cout << "serving " << tc.numRequests << " requests (seed "
              << seed << ") on " << cc.replicas << " replicas of "
              << cc.engine.model.name << ", " << cc.engine.totalComputeBw
              << " FLOPs/cycle each\n";
    if (!plan.empty()) {
        std::cout << "fault plan: " << plan.crashes.size()
                  << " crash window(s):";
        for (const FaultEvent& e : plan.crashes) {
            std::cout << " replica " << e.replica << " down @"
                      << e.failAt;
            if (e.recoverAt != 0)
                std::cout << " up @" << e.recoverAt;
            else
                std::cout << " (permanent)";
            std::cout << ";";
        }
        std::cout << "\n";
        if (!plan.slowdowns.empty()) {
            std::cout << "            " << plan.slowdowns.size()
                      << " slowdown window(s):";
            for (const SlowdownWindow& w : plan.slowdowns)
                std::cout << " replica " << w.replica << " x"
                          << w.bwFactor << " @" << w.start << ".."
                          << w.end << ";";
            std::cout << "\n";
        }
    }
    if (deadline > 0)
        std::cout << "deadline: arrival + " << deadline
                  << " cycles, deadline-aware shedding on\n";
    if (resilience)
        std::cout << "resilience: migration + breakers + remote prefix "
                     "+ autoscale + brown-out admission\n";
    if (cc.resilience.breakerSource == BreakerSource::Telemetry)
        std::cout << "breaker source: telemetry (per-replica health "
                     "monitors over each live run's windows)\n";
    if (!cc.bwScales.empty()) {
        std::cout << "heterogeneous fleet: bw scales";
        for (double s : cc.bwScales)
            std::cout << " " << s;
        std::cout << "\n";
    }
    std::cout << "\n";

    QueueDepthPolicy policy;
    const bool fault_tier = !plan.empty() || deadline > 0 || resilience;
    Table t({"routing", "TTFT p50", "TTFT p99", "TPOT p99",
             "tput tok/kcyc", "goodput", "SLO ok", "util %"});
    Table ft(resilience
                 ? std::vector<std::string>{"routing", "completed",
                                            "failed", "retried", "shed",
                                            "ddl miss", "retries",
                                            "migrated", "avail %"}
                 : std::vector<std::string>{"routing", "completed",
                                            "failed", "retried", "shed",
                                            "ddl miss", "retries",
                                            "avail %"});
    ClusterResult least_queued;
    for (RouteKind routing :
         {RouteKind::RoundRobin, RouteKind::LeastQueued,
          RouteKind::HashAffinity}) {
        cc.routing = routing;
        // Trace and meter the least-queued run, one sink/registry per
        // replica.
        cc.trace = routing == RouteKind::LeastQueued && trace_cli.enabled()
                       ? trace_cli.options
                       : obs::TraceOptions{};
        cc.metrics =
            routing == RouteKind::LeastQueued && metrics_cli.enabled()
                ? metrics_cli.config()
                : obs::MetricsConfig{};
        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingCluster cluster(cc, policy);
        ClusterResult r = cluster.run(reqs);
        const ServingSummary& s = r.aggregate;
        t.row()
            .cell(routeKindName(routing))
            .cellF(s.ttftP50 / 1000.0, 0)
            .cellF(s.ttftP99 / 1000.0, 0)
            .cellF(s.tpotP99 / 1000.0, 1)
            .cellF(s.throughputTokensPerKcycle, 4)
            .cellF(s.goodputTokensPerKcycle, 4)
            .cell(s.sloCompliant)
            .cellF(100.0 * s.computeUtilization, 1);
        if (fault_tier) {
            ft.row()
                .cell(routeKindName(routing))
                .cell(s.completed)
                .cell(s.failedRequests)
                .cell(s.retriedRequests)
                .cell(s.shedRequests)
                .cell(s.deadlineMisses)
                .cell(r.retriesIssued);
            if (resilience)
                ft.cell(s.migratedRequests);
            ft.cellF(100.0 * s.availability, 2);
        }
        // Availability accounting must close: every original request
        // ends exactly once as completed, failed, or shed — retried
        // and migrated incarnations are transit, not outcomes.
        STEP_ASSERT(s.completed + s.failedRequests + s.shedRequests ==
                        tc.numRequests,
                    "availability accounting does not close: "
                        << s.completed << " + " << s.failedRequests
                        << " + " << s.shedRequests
                        << " != " << tc.numRequests);
        if (routing == RouteKind::LeastQueued)
            least_queued = std::move(r);
    }
    t.print();
    if (fault_tier) {
        std::cout << "\nfault tolerance (per routing):\n";
        ft.print();
    }

    std::cout << "\nper-replica breakdown (least-queued routing):\n";
    Table per({"replica", "seed", "requests", "iterations", "makespan",
               "TTFT p99", "util %"});
    for (const ReplicaResult& rr : least_queued.replicas) {
        per.row()
            .cell(rr.replica)
            .cell(rr.engine.seed)
            .cell(rr.requests.size())
            .cell(rr.result.iterations)
            .cell(static_cast<int64_t>(rr.result.summary.makespan))
            .cellF(rr.result.summary.ttftP99 / 1000.0, 0)
            .cellF(100.0 * rr.result.summary.computeUtilization, 1);
    }
    per.print();
    std::cout << "\naggregate percentiles are recomputed over the union "
                 "of the replicas' raw samples ("
              << least_queued.aggregate.ttftSamples.size()
              << " TTFT samples), never from per-replica percentiles.\n";

    if (!least_queued.traces.empty() &&
        !trace_cli.write(std::cout, least_queued.traceViews(),
                         std::to_string(least_queued.traces.size()) +
                             " replica tracks, least-queued run"))
        return 1;

    if (!least_queued.metrics.empty()) {
        if (!metrics_cli.write(std::cout, least_queued.metricsViews(),
                               least_queued.mergedMetrics.get(),
                               std::to_string(least_queued.metrics.size()) +
                                   " replica registries + merge, "
                                   "least-queued run"))
            return 1;
        const ServingSummary& ls = least_queued.aggregate;
        std::cout << "slo windows (least-queued): "
                  << ls.sloWindowsAttained << "/" << ls.sloWindows
                  << " attained\n";
    }
    return 0;
}
