/**
 * @file
 * Multi-replica sharded serving cluster: the scale-out layer over the
 * single-engine serving runtime. One ServingEngine is single-threaded by
 * design (deterministic virtual time); a ServingCluster splits a request
 * trace across N shared-nothing replica engines — each with its own
 * Scheduler, GraphArena, rearm handles, and thread-local coroutine-frame
 * pool — runs each replica's simulation in a worker thread, and merges
 * the per-replica results into one aggregate with percentiles recomputed
 * over the union of raw latency samples. This mirrors how continuous-
 * batching serving systems scale out: replicas behind a router, sharing
 * nothing but the request stream.
 *
 * Determinism contract: routing is a pre-pass on the coordinating
 * thread, per-replica seeds are derived before workers spawn
 * (deriveSeed(replica_id)), every replica simulates independently, and
 * merging walks replicas in index order — so the aggregate is
 * bit-identical whether the replicas run on 1 worker thread or N.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "runtime/engine.hh"

namespace step::runtime {

/** How the cluster assigns arriving requests to replicas. */
enum class RouteKind {
    /** Request i goes to replica i mod N: fair counts, blind to work. */
    RoundRobin,
    /**
     * Join-least-work: pick the replica whose shadow queue holds the
     * fewest outstanding prompt tokens (waiting, via
     * ContinuousBatcher::waitingPromptTokens, plus admitted-but-
     * unfinished). The router drains its shadow queues with an analytic
     * service-time model, so decisions need no feedback from the
     * replica simulations and stay a deterministic pre-pass.
     */
    LeastQueued,
    /**
     * Hash of the request id picks the replica: sticky session/prefix
     * affinity, at the cost of load blindness.
     */
    HashAffinity,
    /**
     * KV-prefix-aware affinity: requests route by their dominant-prefix
     * hash (Request::affinityKey — the session's first-turn prompt
     * hash), so every turn of a session lands on the replica whose
     * prefix cache already holds its context. The first request of a
     * key falls back to the least-loaded replica (fewest assigned
     * prompt+output tokens, ties to the lowest index), which spreads
     * sessions without breaking stickiness. Legacy requests carry no
     * affinity key, so each takes the least-loaded fallback
     * individually — a work-balanced spread with no stickiness to
     * preserve.
     */
    PrefixAffinity,
};

std::string routeKindName(RouteKind k);

struct ClusterConfig
{
    /**
     * Per-replica engine template. The seed field is ignored: replica i
     * always runs with deriveSeed(i) so replica streams decorrelate
     * deterministically under one global seed.
     */
    EngineConfig engine;
    int64_t replicas = 2;
    /** Worker threads; 0 means one per replica. */
    int64_t threads = 0;
    /**
     * Static per-replica compute-capacity scales for a heterogeneous
     * fleet (empty = every replica at 1.0, the default — run() is then
     * bit-identical to a scale-less build). Replica r simulates with
     * round(engine.totalComputeBw * bwScales[r]); the least-queued
     * router's shadow service times, the resilience tier's
     * health-scored placement (pickResilientTarget divides load by the
     * scale), and the merged utilization denominator all honor the
     * scale. Must be empty or have exactly `replicas` positive entries.
     */
    std::vector<double> bwScales;
    RouteKind routing = RouteKind::RoundRobin;
    /**
     * Cluster-wide fault plan (empty = fault-free, the default — run()
     * is then bit-identical to a fault-less build). Each replica
     * receives its own timeline (FaultPlan::forReplica); the engine
     * template's `faults` field is ignored, like its seed. The router
     * is fault-aware: a request arriving while its chosen replica is
     * down is re-routed to the least-loaded alive replica before any
     * simulation runs (a health-checked load balancer), and requests a
     * crash kills in flight are re-routed through the retry policy.
     */
    FaultPlan faults;
    /**
     * Failover policy for requests a replica crash killed (not owned;
     * null = a default ExponentialBackoffRetry). Consulted once per
     * failed incarnation; a granted retry re-arrives at the policy's
     * cycle on the least-loaded replica alive then, with
     * Request::attempt incremented. See RetryPolicy for the
     * never-retry-past-deadline contract.
     */
    const RetryPolicy* retry = nullptr;
    /**
     * Resilience tier (disabled = the default — run() is then
     * bit-identical to the plain fault tier). Enabled, it changes four
     * things (see resilience.hh): the router and failover placement
     * become health-scored (circuit breakers from the fault plan,
     * autoscale parking, affinity preference); crash casualties and
     * slowdown-drained requests *migrate*: the tier's RetryPolicy is a
     * MigrationHandoff, and cfg_.retry is not consulted; migrated or
     * retried requests placed off their cache-affinity replica may
     * fetch their prefix from the owner's cache at a modeled transfer
     * cost; and each engine runs the slowdown drain with the breaker's
     * detection parameters.
     */
    ResilienceConfig resilience;
    /**
     * Tracing (level Off = disabled). When enabled, run() creates one
     * TraceSink per replica *before* workers spawn — each sink is then
     * written by exactly one worker, so recording needs no locks — and
     * hands them back in ClusterResult::traces, replica-index order.
     * Exporting that vector yields bytes independent of the thread
     * count. Replicas re-simulated by a failover wave get a fresh sink,
     * so exported traces always describe the final timeline.
     */
    obs::TraceOptions trace;
    /**
     * Streaming metrics (enabled = false is the default — run() is then
     * bit-identical to a metrics-less build). When enabled, run()
     * creates one MetricsRegistry per replica *before* workers spawn
     * (single-writer, like the trace sinks), each engine samples its
     * instrument set into its replica's registry at iteration
     * boundaries, and ClusterResult hands back the per-replica
     * registries plus their replica-index-order merge — so the exported
     * artifact is bit-identical whatever the thread count. Replicas
     * re-simulated by a failover wave get a fresh registry, so metrics
     * always describe the final timeline.
     */
    obs::MetricsConfig metrics;
};

struct ReplicaResult
{
    int64_t replica = 0;
    uint64_t seed = 0; ///< deriveSeed(replica), recorded for replay
    int64_t assignedRequests = 0;
    EngineResult result;
};

struct ClusterResult
{
    /** Raw-sample merge of the per-replica summaries (mergeSummaries);
     *  computeUtilization is against replicas * totalComputeBw. */
    ServingSummary aggregate;
    /** Union of the per-replica iteration samples. */
    UtilizationTimeline timeline;
    std::vector<ReplicaResult> replicas;
    int64_t totalIterations = 0;
    /** Retry incarnations the failover waves issued (0 without faults). */
    int64_t retriesIssued = 0;
    /** Migration incarnations the resilience tier issued (0 unless the
     *  tier is enabled and a slowdown drain fired). */
    int64_t migrationsIssued = 0;
    /** The autoscaler's precomputed step timeline (empty unless the
     *  resilience tier's autoscaler is enabled). */
    std::vector<AutoscaleStep> autoscale;
    /** Per-replica trace sinks (replica-index order); empty when
     *  ClusterConfig::trace.level is Off. unique_ptr keeps the sinks'
     *  addresses stable across the result's moves. */
    std::vector<std::unique_ptr<obs::TraceSink>> traces;
    /** Per-replica metrics registries (replica-index order); empty when
     *  ClusterConfig::metrics.enabled is false. */
    std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
    /** Replica-index-order merge of `metrics` (null when disabled);
     *  the cluster aggregate's windowed-SLO fields are computed from
     *  this registry. */
    std::unique_ptr<obs::MetricsRegistry> mergedMetrics;
    /** The breaker timelines the router and failover placement actually
     *  consulted (empty unless the resilience tier is enabled):
     *  plan-derived by default, telemetry-inferred under
     *  BreakerSource::Telemetry. Exposed for tests and tools. */
    std::vector<BreakerTimeline> breakers;

    /** Borrowed views of `traces` in export order (replica order),
     *  ready to pass to the obs exporters. */
    std::vector<const obs::TraceSink*>
    traceViews() const
    {
        std::vector<const obs::TraceSink*> out;
        out.reserve(traces.size());
        for (const auto& t : traces)
            out.push_back(t.get());
        return out;
    }

    /** Borrowed views of `metrics` in export order (replica order),
     *  ready to pass to the obs metrics exporters. */
    std::vector<const obs::MetricsRegistry*>
    metricsViews() const
    {
        std::vector<const obs::MetricsRegistry*> out;
        out.reserve(metrics.size());
        for (const auto& m : metrics)
            out.push_back(m.get());
        return out;
    }
};

class ServingCluster
{
  public:
    ServingCluster(ClusterConfig cfg, const Policy& policy);

    /**
     * Route @p reqs (sorted by arrival) across the replicas, run every
     * replica's simulation to completion on the worker pool, and merge.
     * Requests are mutated in place exactly as ServingEngine::run would
     * (states, TTFT/finish stamps). With a fault plan, failover runs in
     * deterministic waves: replicas simulate, casualties are collected
     * in (fail-cycle, request) order and offered to the tier's
     * RetryPolicy, granted incarnations are appended to their target
     * replica's shard, and only the changed replicas re-simulate —
     * until no new failure appears. A request that failed but was
     * retried reports the final incarnation's outcome to the caller
     * (original arrival kept, Request::attempt telling the story); its
     * source replica's summary reclassifies it failed -> retried.
     * Deterministic for fixed (config, policy, trace, global seed),
     * independent of the thread count.
     */
    ClusterResult run(std::vector<Request>& reqs);

    /**
     * The deterministic routing pre-pass alone: replica index per
     * request, in trace order. Includes the fault-aware remap (requests
     * arriving into a down replica move to the least-loaded alive one)
     * — or, with the resilience tier enabled, the health-scored remap
     * (down, breaker-open, and autoscale-parked replicas stop getting
     * fresh placements; targets are picked by pickResilientTarget).
     * Exposed for tests and routing studies.
     */
    std::vector<int64_t> routeTrace(const std::vector<Request>& reqs) const;

  private:
    class Run; ///< one run()'s failover state machine (cluster.cc)

    /**
     * The breaker timelines the resilience tier will consult, by
     * ClusterConfig::resilience.breakerSource: plan-derived
     * (computeBreakerTimeline per replica) or telemetry-inferred — an
     * observation pass runs the *plain fault tier* on a copy of the
     * trace (resilience off, traces off, metrics forced on at the
     * health monitor's window width) and feeds each replica's windowed
     * failure counts and TTFT p95 to inferBreakerTimeline. Both are
     * pure pre-passes on the coordinating thread, so routing stays
     * deterministic and thread-count independent.
     */
    std::vector<BreakerTimeline>
    resilientBreakers(const std::vector<Request>& reqs) const;
    /** routeTrace, also handing back the breaker and autoscale timelines
     *  the resilience tier's remap consulted (left empty off the tier),
     *  so run() shares them with failover placement. */
    std::vector<int64_t> route(const std::vector<Request>& reqs,
                               std::vector<BreakerTimeline>& breakers,
                               std::vector<AutoscaleStep>& autoscale) const;

    ClusterConfig cfg_;
    const Policy& policy_;
    /** Analytic prefill FLOPs per prompt token across the engine's
     *  layers: the router's and autoscaler's service-time proxy. */
    double prefillFpt_;
};

} // namespace step::runtime
