/**
 * @file
 * Fault-tolerance demo: what one replica crash does to a 4-replica
 * cluster. A bursty trace is served four times over the same seed:
 *
 *   1. fault-free (the baseline every other row is judged against),
 *   2. one replica killed mid-trace, never to return,
 *   3. the same crash but the replica recovers after a repair window,
 *   4. the permanent crash again, with per-request deadlines and
 *      deadline-aware shedding soaking up the unmeetable backlog.
 *
 * The crash cycle is derived from the fault-free makespan (40% in), so
 * the experiment scales with the workload instead of hard-coding a
 * cycle count. Every run is fully deterministic — same seed, same
 * output bytes — which is what lets CI pin this binary with a byte
 * comparison of two runs.
 *
 *   ./fault_sim [--seed N] [--threads N] [--verify]
 *               [--metrics out.json] [--metrics-window N]
 *
 * --verify statically checks every freshly built iteration graph
 * (src/verify) before running it; read-only, so output bytes are
 * identical with and without the flag.
 *
 * --metrics exports the kill+recovery scenario's streaming-metrics
 * artifact (per-replica windowed histograms and series plus the
 * replica-index-order merge; see obs/metrics.hh) and its per-window
 * JSONL — the crash, the failover burst, and the recovery are all
 * visible as windowed failure counts and TTFT spikes.
 */
#include <iostream>
#include <string>

#include "runtime/cluster.hh"
#include "support/cli.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace step;
using namespace step::runtime;

namespace {

ClusterResult
runOnce(const ClusterConfig& cc, const TraceConfig& tc, const Policy& pol)
{
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, pol);
    return cluster.run(reqs);
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    uint64_t seed = 0;
    ClusterConfig cc;
    cli.seed(&seed);
    cli.number("--threads", &cc.threads);
    cli.flag("--verify", &cc.engine.verifyGraphs);
    obs::MetricsCli metrics_cli(cli);
    cli.parse();

    TraceConfig tc;
    tc.numRequests = 320;
    tc.arrivalsPerKcycle = 0.0048;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;

    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;

    QueueDepthPolicy policy;

    std::cout << "fault_sim: " << tc.numRequests << " requests (seed "
              << seed << ") on " << cc.replicas
              << " least-queued-routed replicas of "
              << cc.engine.model.name << "\n";

    // Baseline pass fixes the crash cycle: 40% into the fault-free
    // makespan, squarely inside the serving window.
    const ClusterResult base = runOnce(cc, tc, policy);
    const auto crash_at = static_cast<dam::Cycle>(
        static_cast<double>(base.aggregate.makespan) * 0.4);
    const dam::Cycle recover_at = crash_at + base.aggregate.makespan / 5;
    std::cout << "fault-free makespan " << base.aggregate.makespan
              << " cycles -> replica 1 crashes @" << crash_at
              << " (recovery variant: up @" << recover_at << ")\n\n";

    Table t({"scenario", "completed", "failed", "retried", "shed",
             "ddl miss", "retries", "avail %", "TTFT p99", "goodput"});
    auto report = [&](const std::string& name, const ClusterResult& r) {
        const ServingSummary& s = r.aggregate;
        t.row()
            .cell(name)
            .cell(s.completed)
            .cell(s.failedRequests)
            .cell(s.retriedRequests)
            .cell(s.shedRequests)
            .cell(s.deadlineMisses)
            .cell(r.retriesIssued)
            .cellF(100.0 * s.availability, 2)
            .cellF(s.ttftP99 / 1000.0, 0)
            .cellF(s.goodputTokensPerKcycle, 4);
    };
    report("fault-free", base);

    // Scenario 2: replica 1 dies at crash_at, permanently, and no one
    // retries the casualties — the availability hit, undressed.
    cc.faults = FaultPlan{};
    cc.faults.crashes.push_back({1, crash_at, 0});
    NoRetryPolicy no_retry;
    cc.retry = &no_retry;
    report("kill, no retry", runOnce(cc, tc, policy));
    cc.retry = nullptr;

    // Scenario 3: same crash, default exponential-backoff failover.
    report("kill, no recovery", runOnce(cc, tc, policy));

    // Scenario 4: same crash, repair brings it back. This is the run
    // the --metrics artifact describes (crash, failover, recovery all
    // leave windowed signatures).
    cc.faults = FaultPlan{};
    cc.faults.crashes.push_back({1, crash_at, recover_at});
    cc.metrics = metrics_cli.config();
    const ClusterResult recovery = runOnce(cc, tc, policy);
    report("kill + recovery", recovery);
    cc.metrics = obs::MetricsConfig{};

    // Scenario 5: permanent crash under deadlines — requests the
    // surviving replicas cannot finish in time are shed up front
    // instead of missing their deadlines late.
    cc.faults = FaultPlan{};
    cc.faults.crashes.push_back({1, crash_at, 0});
    TraceConfig dtc = tc;
    dtc.deadlineCycles = base.aggregate.makespan / 4;
    DeadlineAwareShedPolicy shed;
    // Arm the shed bound with the observed decode pace: without it the
    // optimistic estimate is prefill-only and never trips.
    shed.safetyDecodeCyclesPerToken =
        static_cast<int64_t>(base.aggregate.tpotP50);
    cc.engine.admission = &shed;
    report("kill + deadline shed", runOnce(cc, dtc, policy));
    cc.engine.admission = nullptr;

    t.print();
    std::cout
        << "\navailability = completed / (completed + failed + shed); a "
           "failure whose retry\nsucceeded elsewhere counts as retried, "
           "not failed, so transparent failover keeps\navailability at "
           "100 %.\n";

    if (!recovery.metrics.empty() &&
        !metrics_cli.write(std::cout, recovery.metricsViews(),
                           recovery.mergedMetrics.get(),
                           "kill + recovery scenario, " +
                               std::to_string(recovery.metrics.size()) +
                               " replica registries + merge"))
        return 1;
    return 0;
}
