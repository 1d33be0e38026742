/**
 * @file
 * Multi-replica sharded serving cluster: the scale-out layer over the
 * single-engine serving runtime. One ServingEngine is single-threaded by
 * design (deterministic virtual time); a ServingCluster splits a request
 * trace across N shared-nothing replica engines, steps them on a pool
 * of worker threads — each worker owning one iteration workspace
 * (scheduler, graph arena, rearm handles) and thread-local coroutine-
 * frame pool, lent to whichever replica it steps — and merges
 * the per-replica results into one aggregate with percentiles recomputed
 * over the union of raw latency samples. This mirrors how continuous-
 * batching serving systems scale out: replicas behind a router, sharing
 * nothing but the request stream.
 *
 * Determinism contract: every routing, failover and breaker decision
 * runs on the coordinating thread between epochs, per-replica seeds
 * are derived before workers spawn (deriveSeed(replica_id)), every
 * replica simulates independently within an epoch, and merging walks
 * replicas in index order — so the aggregate is bit-identical whether
 * the replicas run on 1 worker thread or N.
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
     * service-time model, so its picks need no feedback from the
     * replica simulations: they depend on the trace alone.
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
     * router's shadow service times, remap and failover placement
     * (pickResilientTarget divides load by the scale), and the merged
     * utilization denominator all honor the
     * scale. Must be empty or have exactly `replicas` positive entries.
     */
    std::vector<double> bwScales;
    RouteKind routing = RouteKind::RoundRobin;
    /**
     * Cluster-wide fault plan (empty = fault-free, the default — run()
     * is then bit-identical to a fault-less build). The constructor
     * splits it once into the per-replica timelines (forReplica) that
     * engines, routing, placement, breakers and autoscaler read; the
     * engine template's `faults` is ignored, like its seed. The router
     * is fault-aware: a request arriving while its chosen replica is
     * down is re-routed to the least-loaded alive replica (a
     * health-checked load balancer), and requests a crash kills in
     * flight are re-routed through the retry policy.
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
     * become health-scored (circuit breakers, autoscale parking,
     * affinity preference); crash casualties and
     * slowdown-drained requests *migrate*: the tier's RetryPolicy is a
     * MigrationHandoff, and cfg_.retry is not consulted; migrated or
     * retried requests placed off their cache-affinity replica may
     * fetch their prefix from the owner's cache at a modeled transfer
     * cost; and each engine drains at the starts of its replica's
     * slowdown trips (slowdownTrips, the breakers' trip rule).
     */
    ResilienceConfig resilience;
    /**
     * Tracing (level Off = disabled). When enabled, run() creates one
     * TraceSink per replica *before* workers run — within an epoch each
     * sink is written by exactly one worker, so recording needs no
     * locks — and
     * hands them back in ClusterResult::traces, replica-index order.
     * Exporting that vector yields bytes independent of the thread
     * count. Each replica's run records once, in simulated-time order,
     * so the exported traces describe the final timelines; the cluster
     * decisions go on last (stampClusterTrack).
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
     * artifact is bit-identical whatever the thread count.
     */
    obs::MetricsConfig metrics;
};

struct ReplicaResult
{
    int64_t replica = 0;
    EngineResult result;
    /** The engine configuration the replica ran under (seed
     *  deriveSeed(replica), fault timeline, bandwidth, drain cycles),
     *  for replay. */
    EngineConfig engine;
    /** Every incarnation the replica served, by slot: as appended,
     *  routed requests and failover incarnations interleaved. A fresh
     *  ServingEngine::Run over `engine` on their inputs, stable-sorted
     *  by arrival and advanced through the cluster's barriers, ends
     *  with these requests, `result`'s iterations and samples, and —
     *  once stampClusterTrack has stamped its sink — the replica's trace
     *  and metrics bytes. Its summary differs only in sample order and
     *  in the failover reclassification. */
    std::vector<Request> requests;
};

struct ClusterResult
{
    /** Raw-sample merge of the per-replica summaries (mergeSummaries);
     *  computeUtilization is the replicas' summed sample FLOPs over the
     *  merged makespan times sum(scale_r * totalComputeBw). */
    ServingSummary aggregate;
    std::vector<ReplicaResult> replicas;
    int64_t totalIterations = 0;
    /** Retry incarnations failover issued (0 without faults). */
    int64_t retriesIssued = 0;
    /** Migration incarnations the resilience tier issued (0 unless the
     *  tier is enabled and a slowdown drain fired). */
    int64_t migrationsIssued = 0;
    /** Epochs run: one more than the barriers (1 without faults or
     *  telemetry breakers). */
    int64_t epochs = 0;
    /** Replica iterations the epochs executed, counted as they ran;
     *  equal to totalIterations, since no iteration runs twice. */
    int64_t replicaIterationsSimulated = 0;
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
    /** The breaker timelines routing and failover consulted (empty off
     *  the resilience tier): plan-derived, or what the health monitors
     *  had decided by the run's last window edge. */
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

/**
 * Stamp replica @p replica's cluster-scope decisions in @p r on
 * @p sink's cluster track, in cycle order: a breaker.* instant at each
 * edge where r.breakers[replica] changes state, named by the new state
 * (value: the replica), and on replica 0 one autoscale.active instant
 * per step of r.autoscale (value: the active count). run() stamps each
 * replica's sink this way once every run has ended, so a trace shows
 * exactly the breakers and steps routing consulted; a replay stamps its
 * cold run's sink the same way.
 */
void stampClusterTrack(obs::TraceSink& sink, const ClusterResult& r,
                       int64_t replica);

class ServingCluster
{
  public:
    ServingCluster(ClusterConfig cfg, const Policy& policy);

    /**
     * Route @p reqs (sorted by arrival) across the replicas, run every
     * replica's simulation to completion on the worker pool, and merge.
     * Requests are mutated in place exactly as ServingEngine::run would
     * (states, TTFT/finish stamps).
     *
     * Each replica keeps one live ServingEngine::Run, advanced epoch by
     * epoch between *barriers*: every crash, recovery and drain
     * trigger, and with telemetry breakers every health-window edge
     * while anything is left to route or serve. Inside an epoch the
     * replicas share nothing and step in parallel, each while its clock
     * is before the next barrier E. At E the coordinator takes over: at
     * a window edge the health monitors decide and the next window's
     * arrivals are routed (otherwise the whole trace is routed before
     * the first epoch); then the replicas with a crash or drain at E
     * deliver it, and the casualties — with a crash, also the arrivals
     * it refuses until its recovery — are offered to the tier's
     * RetryPolicy in (fail-cycle, request, attempt) order, each granted
     * incarnation placed by the load routed up to E and appended to its
     * target's run. Every replica iteration is simulated once, and no
     * decision depends on anything later in simulated time. A retry
     * policy that keeps granting attempts raises a FatalError naming
     * the request once it reaches attempt 1024.
     *
     * A request that failed over reports its final incarnation to the
     * caller (original arrival kept, Request::attempt telling the
     * story); its source replica's summary counts it retried. The
     * aggregate scores SLO attainment over these caller copies.
     * Deterministic for fixed (config, policy, trace, global seed),
     * independent of the thread count.
     */
    ClusterResult run(std::vector<Request>& reqs);

    /**
     * The routing with every breaker closed: replica per request, in
     * trace order — the policy's picks through run()'s remap (down and,
     * on the resilience tier, autoscale-parked replicas are routed
     * around; sessions stay put). run() also routes around open
     * breakers. Exposed for tests and routing studies.
     */
    std::vector<int64_t> routeTrace(const std::vector<Request>& reqs) const;

  private:
    class Run; ///< one run()'s epoch loop (cluster.cc)

    ClusterConfig cfg_;
    const Policy& policy_;
    /** Analytic prefill FLOPs per prompt token across the engine's
     *  layers: the router's and autoscaler's service-time proxy. */
    double prefillFpt_;
    /** Per replica: its slice of cfg_.faults, normalized once. */
    std::vector<ReplicaFaultTimeline> faults_;
};

} // namespace step::runtime
