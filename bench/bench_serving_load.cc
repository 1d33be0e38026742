/**
 * @file
 * Serving-load sweep: TTFT/TPOT tails, throughput, SLO goodput, and
 * compute utilization across arrival rates for the static-split and
 * queue-depth dynamic-parallelism policies. The shape to look for: at
 * low load the policies tie (no queue to react to); as load approaches
 * capacity, queue-depth-driven reallocation holds TTFT down during
 * bursts and turns that into a goodput gap over the static split.
 *
 * With --replicas N the sweep runs a ServingCluster instead of a single
 * engine: the trace (and its arrival rate) scales by N so every replica
 * sees the same operating point, the N shared-nothing replica
 * simulations run on worker threads, and the reported metrics are the
 * raw-sample cluster aggregates — so the sweep finally uses more than
 * one core. The closing "sweep:" line reports wall-clock simulation
 * throughput (requests simulated per second of real time) for comparing
 * replica counts.
 *
 * With --json[=path] the sweep also writes a schema-v2 bench artifact
 * (BENCH_serving_load.json): simulation throughput in requests/sec (a
 * rate metric, so bench/check_bench_regression.py gates it in CI
 * against bench/baseline_serving_load.json alongside the hot-path
 * bench) plus the goodput of both policies at the highest load point.
 *
 * With --mtbf N (a seeded per-point plan) or --fault-plan SPEC (an
 * explicit plan, parseFaultPlan syntax) the whole sweep runs under
 * fault injection with the resilience tier's migration, breakers, and
 * cross-replica prefix reuse enabled — cluster only, so --replicas >= 2
 * is required. The JSON artifact then additionally records goodput
 * under faults, availability, and the migration/retry counts at the
 * highest load point. CI gates it against
 * bench/baseline_serving_load_faults.json, whose goodput and
 * availability floors carry an explicit {"gate": "floor"} marker.
 * Without either flag the sweep's output is byte-identical to the
 * fault-free bench.
 *
 * Every cluster run must simulate each replica iteration exactly once
 * (ClusterResult::replicaIterationsSimulated == totalIterations, summed
 * over the sweep and reported as replica_iterations_simulated and
 * replica_iterations); the bench exits 2 when it did not.
 *
 *   ./bench_serving_load [--seed N] [--requests N] [--replicas N]
 *                        [--threads N] [--routing rr|lq|hash|prefix]
 *                        [--mtbf N | --fault-plan SPEC] [--json[=path]]
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.hh"
#include "runtime/cluster.hh"
#include "runtime/faults.hh"
#include "support/parse.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace step;
using namespace step::runtime;

int
main(int argc, char** argv)
{
    uint64_t seed = seedFromArgsOrEnv(argc, argv);
    int64_t requests = 160;
    int64_t replicas = 1;
    int64_t threads = 0; // 0 = one per replica
    RouteKind routing = RouteKind::LeastQueued;
    int64_t mtbf = 0;
    std::string plan_spec;
    const std::pair<const char*, int64_t*> counts[] = {
        {"--requests", &requests},
        {"--replicas", &replicas},
        {"--threads", &threads},
        {"--mtbf", &mtbf}};
    for (int i = 1; i + 1 < argc; ++i) {
        for (const auto& [flag, value] : counts)
            if (std::strcmp(argv[i], flag) == 0 &&
                !parseUnsigned(argv[i + 1], value)) {
                std::cerr << "bench_serving_load: " << flag
                          << " takes a whole non-negative number, got '"
                          << argv[i + 1] << "'\n";
                return 2;
            }
        if (std::strcmp(argv[i], "--fault-plan") == 0)
            plan_spec = argv[i + 1];
        if (std::strcmp(argv[i], "--routing") == 0) {
            std::string r = argv[i + 1];
            routing = r == "rr"       ? RouteKind::RoundRobin
                      : r == "hash"   ? RouteKind::HashAffinity
                      : r == "prefix" ? RouteKind::PrefixAffinity
                                      : RouteKind::LeastQueued;
        }
    }
    const std::string json_path =
        bench::jsonFlagPath(argc, argv, "BENCH_serving_load.json");
    if (replicas < 1)
        replicas = 1;
    if (mtbf > 0 && !plan_spec.empty()) {
        std::cerr << "bench_serving_load: --mtbf and --fault-plan are "
                     "mutually exclusive\n";
        return 2;
    }
    const bool faulty = mtbf > 0 || !plan_spec.empty();
    if (faulty && replicas < 2) {
        std::cerr << "bench_serving_load: fault injection needs the "
                     "cluster path; use --replicas >= 2\n";
        return 2;
    }
    FaultPlan explicit_plan;
    if (!plan_spec.empty()) {
        std::string err;
        if (!parseFaultPlan(plan_spec, &explicit_plan, &err)) {
            std::cerr << "bench_serving_load: --fault-plan: " << err
                      << "\n";
            return 2;
        }
    }
    // Mirror the cluster's own clamp so the printed configuration is the
    // one that actually ran.
    threads = std::min(threads > 0 ? threads : replicas, replicas);
    const int64_t per_point = requests * replicas;

    std::cout << "\n=== Serving load sweep (" << per_point
              << " requests/point, seed " << seed << ", replicas "
              << replicas;
    if (replicas > 1)
        std::cout << ", threads " << threads << ", routing "
                  << routeKindName(routing);
    if (faulty) {
        if (plan_spec.empty())
            std::cout << ", faults mtbf " << mtbf;
        else
            std::cout << ", faults plan " << plan_spec;
        std::cout << ", resilience on";
    }
    std::cout << ") ===\n\n";

    Table t({"arrivals/Mcycle", "policy", "TTFT p50", "TTFT p99",
             "TPOT p50", "TPOT p99", "tput tok/kcyc", "goodput",
             "SLO ok", "util %"});
    const auto t0 = std::chrono::steady_clock::now();
    int64_t simulated = 0;
    double goodput_static = 0.0, goodput_dynamic = 0.0; // highest rate
    double availability_hiload = 1.0; // dynamic policy, highest rate
    int64_t migrations_hiload = 0, retries_hiload = 0;
    // Replica iterations the cluster runs executed, and the ones in their
    // final timelines: equal when none ran twice.
    int64_t iters_simulated = 0, iters_final = 0;
    for (double rate_per_mcycle : {0.6, 1.0, 1.4, 1.8}) {
        for (bool dynamic : {false, true}) {
            TraceConfig tc;
            tc.numRequests = per_point;
            // Rate scales with the replica count: an N-replica cluster
            // at the same per-replica operating point absorbs N times
            // the arrival stream.
            tc.arrivalsPerKcycle =
                rate_per_mcycle / 1000.0 * static_cast<double>(replicas);
            tc.burstPeriod = 16'000'000;
            tc.burstDuty = 0.3;
            tc.burstFactor = 4.0;

            EngineConfig ec;
            ec.seed = deriveSeed(101);

            StaticSplitPolicy static_policy(0.3);
            QueueDepthPolicy dynamic_policy;
            const Policy& policy =
                dynamic ? static_cast<const Policy&>(dynamic_policy)
                        : static_cast<const Policy&>(static_policy);

            auto reqs = generateTrace(tc, deriveSeed(102));
            ServingSummary s;
            if (replicas == 1) {
                ServingEngine engine(ec, policy);
                s = engine.run(reqs).summary;
            } else {
                ClusterConfig cc;
                cc.engine = ec;
                cc.replicas = replicas;
                cc.threads = threads;
                cc.routing = routing;
                if (faulty) {
                    if (!plan_spec.empty()) {
                        cc.faults = explicit_plan;
                    } else {
                        // Per-point plan: the horizon tracks this
                        // rate's trace span so late crashes stay
                        // possible at every operating point.
                        FaultPlanConfig fc;
                        fc.mtbfCycles = mtbf;
                        fc.mttrCycles = mtbf / 4;
                        fc.horizonCycles =
                            reqs.empty() ? 0 : reqs.back().arrival * 2;
                        cc.faults = generateFaultPlan(fc, replicas,
                                                      deriveSeed(103));
                    }
                    // Goodput under faults is the resilience tier's
                    // claim, so measure with it on: migration,
                    // breakers, and cross-replica prefix reuse. The
                    // autoscaler stays off — parking replicas at the
                    // low-load points would conflate two effects.
                    cc.resilience.enabled = true;
                    cc.resilience.remotePrefix.enabled = true;
                }
                ServingCluster cluster(cc, policy);
                ClusterResult cr = cluster.run(reqs);
                s = cr.aggregate;
                iters_simulated += cr.replicaIterationsSimulated;
                iters_final += cr.totalIterations;
                if (dynamic) {
                    availability_hiload = s.availability;
                    migrations_hiload = cr.migrationsIssued;
                    retries_hiload = cr.retriesIssued;
                }
            }
            simulated += per_point;
            (dynamic ? goodput_dynamic : goodput_static) =
                s.goodputTokensPerKcycle;
            t.row()
                .cellF(rate_per_mcycle, 1)
                .cell(policy.name())
                .cellF(s.ttftP50 / 1000.0, 0)
                .cellF(s.ttftP99 / 1000.0, 0)
                .cellF(s.tpotP50 / 1000.0, 1)
                .cellF(s.tpotP99 / 1000.0, 1)
                .cellF(s.throughputTokensPerKcycle, 4)
                .cellF(s.goodputTokensPerKcycle, 4)
                .cell(s.sloCompliant)
                .cellF(100.0 * s.computeUtilization, 1);
        }
    }
    t.print();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    std::cout << "\n(TTFT columns in kcycles, TPOT in kcycles/token; "
                 "rate column is per replica)\n";
    if (faulty)
        std::cout << "faults @ hi-load (queue-depth): availability "
                  << availability_hiload << ", " << migrations_hiload
                  << " migration(s), " << retries_hiload
                  << " retry/retries\n";
    const double req_per_sec = static_cast<double>(simulated) / wall_s;
    std::cout << "sweep: " << simulated << " requests in " << wall_s
              << " s wall -> " << req_per_sec
              << " requests/s (replicas=" << replicas << ", threads="
              << threads << ")\n";

    if (!json_path.empty()) {
        bench::JsonReport report;
        report.set("bench", "serving_load");
        report.set("routing", routeKindName(routing));
        report.set("replicas", static_cast<double>(replicas), "count");
        report.set("requests_simulated", static_cast<double>(simulated),
                   "count");
        // The one gated rate metric ("/sec" unit): end-to-end cluster
        // simulation throughput, the serving runtime's hot path.
        report.set("sim_requests_per_sec", req_per_sec, "requests/sec");
        report.set("goodput_static_hiload", goodput_static,
                   "tokens/kcycle");
        report.set("goodput_dynamic_hiload", goodput_dynamic,
                   "tokens/kcycle");
        if (faulty) {
            report.set("fault_mode",
                       plan_spec.empty() ? "mtbf" : "plan");
            report.set("goodput_faults_hiload", goodput_dynamic,
                       "tokens/kcycle");
            report.set("availability_faults", availability_hiload,
                       "fraction");
            report.set("migrations_hiload",
                       static_cast<double>(migrations_hiload), "count");
            report.set("retries_hiload",
                       static_cast<double>(retries_hiload), "count");
        }
        report.set("replica_iterations_simulated",
                   static_cast<double>(iters_simulated), "count");
        report.set("replica_iterations", static_cast<double>(iters_final),
                   "count");
        if (!report.writeTo(json_path))
            std::cerr << "failed to write " << json_path << "\n";
        else
            std::cout << "wrote " << json_path << "\n";
    }
    if (iters_simulated != iters_final) {
        std::cerr << "bench_serving_load: the cluster runs simulated "
                  << iters_simulated << " replica iterations for "
                  << iters_final << " in their final timelines\n";
        return 2;
    }
    return 0;
}
