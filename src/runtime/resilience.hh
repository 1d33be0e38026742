/**
 * @file
 * Resilient cluster tier: the recovery/placement policies that turn the
 * fault tier's *detection* machinery (FaultPlan, failover epochs) into
 * graceful degradation. Four pieces, all seeded-deterministic:
 *
 *  - Circuit breakers: per-replica health timelines precomputed from
 *    each replica's fault timeline (FaultPlan::forReplica). A breaker
 *    opens on a crash or on a sustained deep slowdown (slowdownTrips),
 *    half-opens deterministically after a cooldown, and closes again;
 *    the router and the failover target selection consult it, so a
 *    degraded replica stops receiving traffic *before* it drowns.
 *
 *  - Live request migration: on a crash or a tripping slowdown,
 *    in-flight (prefilling) and queued requests move to a healthy
 *    replica instead of failing, paying a modeled KV-handoff cost
 *    (fixed handshake + tokens x per-token transfer cycles). A
 *    hard-down source loses its KV, so crash casualties re-prefill. A
 *    drain is data to the engine (EngineConfig::drainAt), like a crash.
 *
 *  - Cross-replica prefix reuse: a migrated or retried request placed
 *    off its cache-affinity replica can still use that replica's radix
 *    tree at a modeled fetch latency (lookup RTT + per-token transfer),
 *    invalidated by the owner's own crashes. This is also the hook for
 *    cache-affinity-aware failover placement: prefer the affinity
 *    owner while it is alive, breaker-closed, and not overloaded.
 *
 *  - Overload brown-out: a graceful-degradation AdmissionPolicy ladder
 *    (shed low-priority first, then cap output lengths, then refuse all
 *    but high-priority) driven by queue depth, KV pressure, and
 *    bandwidth degradation, plus a utilization-driven replica
 *    autoscaler whose step timeline restricts fresh placements.
 *
 * Placement decisions, autoscale steps and plan-derived breaker
 * timelines are pure functions of their arguments, computed on the
 * coordinating thread before (or between) replica epochs; telemetry
 * breakers are state machines the coordinator steps at window edges.
 * Faulty runs thus stay bit-identical across replays and worker-thread
 * counts. No engine sees a breaker flip or an autoscale step: once the
 * run ends, the coordinator stamps the ones routing consulted on each
 * replica's cluster trace track (stampClusterTrack, cluster.hh).
 */
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/timeseries.hh"
#include "runtime/faults.hh"
#include "runtime/metrics.hh"
#include "runtime/request.hh"

namespace step::runtime {

// ---- circuit breakers --------------------------------------------------

enum class BreakerState : uint8_t { Closed, Open, HalfOpen };

/**
 * One replica's breaker timeline, derived from its fault timeline or
 * inferred by a HealthMonitor — data, so every consultation is a pure
 * lookup.
 * Open intervals are half-open [start, end) with end 0 = forever;
 * half-open probation intervals likewise. Open wins over HalfOpen
 * where they overlap; everything else is Closed.
 */
struct BreakerTimeline
{
    struct Window
    {
        dam::Cycle start = 0;
        dam::Cycle end = 0; ///< 0 = never (permanent)
    };
    std::vector<Window> open;
    std::vector<Window> halfOpen;

    BreakerState stateAt(dam::Cycle c) const;
    bool openAt(dam::Cycle c) const
    {
        return stateAt(c) == BreakerState::Open;
    }
};

/**
 * The detection lag: a deep slowdown must run longer than this before
 * the breaker opens — transient stragglers do not trip it. Crashes
 * open the breaker immediately.
 */
constexpr dam::Cycle kBreakerDetectCycles = 500'000;

/**
 * The trip rule: each slowdown of @p t at factor <= 0.75 that lasts
 * longer than kBreakerDetectCycles, in order, as the window it holds
 * the breaker open — from kBreakerDetectCycles after its start to its
 * end. A resilient cluster also drains the replica at each window's
 * start.
 */
std::vector<BreakerTimeline::Window>
slowdownTrips(const ReplicaFaultTimeline& t);

/** Derive a replica's breaker timeline from its fault timeline: open
 *  for each outage and slowdown trip, then half-open for 2M cycles. */
BreakerTimeline computeBreakerTimeline(const ReplicaFaultTimeline& t);

// ---- telemetry-inferred breakers ---------------------------------------

/**
 * Where the cluster's breaker timelines come from. Plan (the default)
 * derives them from the fault plan's ground truth via
 * computeBreakerTimeline. Telemetry infers them *online* with one
 * HealthMonitor per replica — the production-faithful variant: it only
 * knows what a client-side monitor could observe, so it detects
 * crashes one window late, needs consecutive evidence for slowdowns,
 * can miss a fault an idle replica never surfaces, and can open on
 * load-induced latency the plan never scripted.
 */
enum class BreakerSource : uint8_t { Plan, Telemetry };

/**
 * Health-monitor thresholds for telemetry-inferred breakers. All
 * decisions land on window-close edges (cycle (w+1)*windowCycles), so
 * the inferred timeline is causal: it only uses windows that had
 * fully closed by the decision cycle. Probation ends on a window edge
 * too, so every edge of an inferred timeline is one.
 */
struct HealthMonitorConfig
{
    /** Telemetry aggregation window; also the detection quantum. */
    dam::Cycle windowCycles = 2'000'000;
    /** A window is degraded when its p95 TTFT exceeds this. The
     *  default is the SLO's TTFT target. */
    double degradedTtftCycles = kSloTtftCycles;
    /** Consecutive degraded windows before the breaker opens (one
     *  with a failed request, the crash signal, opens it at once). */
    int64_t openAfterDegraded = 2;
    /**
     * Consecutive healthy windows (>= 1 first token, p95 within
     * threshold, no failures) before an open breaker closes; quiet
     * windows neither close nor extend. An open breaker's replica is
     * routed around, so its windows go quiet: after this many quiet
     * windows since the last bad one the breaker *probes* — the router
     * lets one arrival per window through while the replica is up —
     * until healthy windows close it. A probe records no edge.
     */
    int64_t closeAfterHealthy = 2;
    /** Half-open probation length after an inferred close, rounded up
     *  to whole windows (at least one). */
    dam::Cycle cooldownCycles = 2'000'000;
};

/**
 * Streaming per-replica breaker-state machine over telemetry windows. A
 * replica's live run reports each failed request and first token as it
 * records it, into the window its cycle falls in (a report into a
 * window already closed is a causality bug and panics); closeUntil
 * decides on every window that has ended, in order, empty ones
 * included, from its failure count and its p95 TTFT (windowed in an
 * obs::TimeSeries, as the metrics registry does). Bit-deterministic.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(HealthMonitorConfig cfg) : cfg_(cfg) {}

    void failed(dam::Cycle at);
    void firstToken(dam::Cycle at, uint64_t ttft);
    /** Decide every window ending by @p edge. */
    void closeUntil(dam::Cycle edge);

    /** One closed window: failed-request count, first-token count, and
     *  windowed p95 TTFT (ignored when @p first_tokens is 0). */
    void observeWindow(uint64_t failed, uint64_t first_tokens,
                       uint64_t p95_ttft);

    /** Open, and quiet long enough to take a probe (see
     *  HealthMonitorConfig::closeAfterHealthy). */
    bool probing() const
    {
        return open_ && quiet_ >= cfg_.closeAfterHealthy;
    }

    /** The timeline decided so far, a still-open breaker sealed as
     *  permanent: what the breaker says until the next decision. */
    BreakerTimeline timeline() const;

  private:
    void expectOpen(dam::Cycle at) const;

    HealthMonitorConfig cfg_;
    BreakerTimeline tl_;
    obs::TimeSeries failures_{cfg_.windowCycles, false};
    obs::TimeSeries ttft_{cfg_.windowCycles, true};
    int64_t window_ = 0; ///< the next window to close
    int64_t degraded_ = 0;
    int64_t healthy_ = 0;
    int64_t quiet_ = 0; ///< open: quiet windows since the last bad one
    bool open_ = false;
    dam::Cycle openAt_ = 0;
};

// ---- live request migration -------------------------------------------

/** KV tokens a handoff of @p r carries: its prefill progress after a
 *  soft drain (Migrated), none after a crash (the KV died with it). */
int64_t carriedKvTokens(const Request& r);

/**
 * The resilience tier's RetryPolicy, i.e. the migration cost model: up to
 * kMaxMigrations attempts, each re-arriving kFixedCycles +
 * carriedKvTokens(r) * kPerTokenCycles cycles after the failure, and
 * never past the request's deadline.
 */
class MigrationHandoff : public RetryPolicy
{
  public:
    /** Fixed handoff cost per migration (handshake + metadata). */
    static constexpr dam::Cycle kFixedCycles = 50'000;
    /** KV-shard transfer cost per token moved (soft drain only — a
     *  hard-down source lost its KV and the request re-prefills). */
    static constexpr dam::Cycle kPerTokenCycles = 100;
    /** Migrations per request before the cluster gives up
     *  (ExponentialBackoffRetry::kMaxRetries' analogue). */
    static constexpr int64_t kMaxMigrations = 3;

    std::optional<dam::Cycle> reschedule(const Request& r, int64_t attempt,
                                         dam::Cycle failed_at) const override;
};

// ---- cross-replica prefix reuse ---------------------------------------

struct RemotePrefixConfig
{
    bool enabled = false;
};

// ---- overload brown-out ------------------------------------------------

/**
 * Graceful-degradation admission ladder. Pressure is the worst of
 * queue depth (vs kQueueFullDepth), KV reservation occupancy, and
 * bandwidth degradation (1 - effective/nominal, the slowdown signal the
 * breakers read) — so the same health signal drives shedding that
 * drives routing. Rungs engage in order: shed low-priority, cap output
 * lengths (all but high-priority), refuse everything but high-priority.
 * Composes with deadline shedding via the optional fallback policy.
 */
class BrownoutPolicy : public AdmissionPolicy
{
  public:
    /** Waiting requests at which queue pressure saturates to 1.0. */
    static constexpr int64_t kQueueFullDepth = 64;
    /** Pressure at which low-priority requests shed (rung 1). */
    static constexpr double kShedLowAt = 0.5;
    /** Pressure at which output lengths cap (rung 2), and the cap. */
    static constexpr double kCapAt = 0.75;
    static constexpr int64_t kOutputCapTokens = 32;
    /** Pressure at which all but high-priority requests are refused
     *  (rung 3). */
    static constexpr double kRefuseAt = 0.95;

    /** Consulted first when set (e.g. DeadlineAwareShedPolicy). */
    const AdmissionPolicy* fallback = nullptr;

    /** The ladder's drive signal, exposed for tests. */
    static double pressure(const AdmissionContext& ctx);

    bool shouldShed(const Request& r,
                    const AdmissionContext& ctx) const override;
    int64_t outputCap(const Request& r,
                      const AdmissionContext& ctx) const override;
};

// ---- autoscaler --------------------------------------------------------

struct AutoscaleConfig
{
    bool enabled = false;
};

/** One autoscaler decision: @p active replicas from cycle @p at on. */
struct AutoscaleStep
{
    dam::Cycle at = 0;
    int64_t active = 0;
};

/**
 * Precompute the autoscaler's step timeline for a cluster of
 * faults.size() replicas from the offered load: per 4M-cycle evaluation
 * interval, the arriving work (prompt + output tokens, weighted by the
 * analytic per-token cost) against the capacity of the currently
 * active *alive* replicas; above 0.75 utilization one replica
 * activates, below 0.30 one parks (hysteresis band between), and at
 * least one stays active. A pure function of (cfg, trace, fault
 * timelines, ...) — the timeline, like the fault plan, is data fixed
 * before any simulation runs. Parked replicas stop receiving fresh
 * placements; sticky sessions already owned by a parked replica stay
 * (cache affinity outranks parking).
 */
std::vector<AutoscaleStep>
computeAutoscaleTimeline(const AutoscaleConfig& cfg,
                         const std::vector<Request>& reqs,
                         const std::vector<ReplicaFaultTimeline>& faults,
                         double flopsPerToken, int64_t perReplicaBw);

/** Active replica count at cycle @p c (replicas when steps empty). */
int64_t autoscaleActiveAt(const std::vector<AutoscaleStep>& steps,
                          dam::Cycle c, int64_t replicas);

// ---- health-scored placement ------------------------------------------

/**
 * Pick the placement target among load.size() replicas at cycle @p at —
 * the one placement the cluster's routing remap and failover share:
 * candidates must be alive (@p faults, one per replica),
 * breaker-not-open, and autoscale-active (the active restriction is
 * waived when it would leave no candidate, then the breaker). The
 * cache-affinity owner wins while its load is at most 1.5x the
 * least-loaded candidate's — a warm cache is worth a moderately longer
 * queue, not any queue; otherwise the lowest health-scored load wins,
 * where a candidate's score is its assigned load scaled up by its
 * current slowdown (1/bwFactor) and by 2x while half-open, and scaled
 * down by its static capacity scale (@p bwScales; short = 1.0 — a 2x
 * replica absorbs 2x the queue). Ties break to the lowest index.
 * Returns -1 when no replica is alive. Pure function of its arguments.
 */
int64_t pickResilientTarget(
    const std::vector<int64_t>& load,
    const std::vector<ReplicaFaultTimeline>& faults,
    const std::vector<BreakerTimeline>& breakers,
    const std::vector<AutoscaleStep>& autoscale, dam::Cycle at,
    int64_t affinityOwner, const std::vector<double>& bwScales = {});

// ---- the master switch -------------------------------------------------

/**
 * Cluster resilience tier configuration. With enabled == false (the
 * default) every piece is off and ServingCluster behaves bit-
 * identically to the plain fault tier — the empty-plan, disabled-tier
 * byte-identity contract CI pins.
 */
struct ResilienceConfig
{
    bool enabled = false;
    RemotePrefixConfig remotePrefix;
    AutoscaleConfig autoscale;
    /**
     * Plan: breakers from computeBreakerTimeline (ground truth).
     * Telemetry: one HealthMonitor per replica, fed by its live run;
     * every health.windowCycles edge is a cluster barrier where the
     * monitors decide, and routing and failover consult what they know
     * there, arrivals routed one window ahead. Engine-side slowdown
     * drains stay plan-driven either way — they model the replica's own
     * local detection, not the cluster monitor.
     */
    BreakerSource breakerSource = BreakerSource::Plan;
    HealthMonitorConfig health;
};

} // namespace step::runtime
