/**
 * @file
 * Resilient cluster tier: the recovery/placement policies that turn the
 * fault tier's *detection* machinery (FaultPlan, failover waves) into
 * graceful degradation. Four pieces, all seeded-deterministic:
 *
 *  - Circuit breakers: per-replica health timelines precomputed from the
 *    fault plan. A breaker opens on a crash or on a sustained deep
 *    slowdown (after a detection lag), half-opens deterministically
 *    after a cooldown, and closes again; the router and the failover
 *    target selection consult it, so a degraded replica stops receiving
 *    traffic *before* it drowns.
 *
 *  - Live request migration: on a crash or a breaker-opening slowdown,
 *    in-flight (prefilling) and queued requests move to a healthy
 *    replica instead of failing, paying a modeled KV-handoff cost
 *    (fixed handshake + tokens x per-token transfer cycles). A
 *    hard-down source loses its KV, so crash casualties re-prefill.
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
 * Everything here is a pure pre-pass or a pure function of its
 * arguments: breaker timelines, autoscale steps, and placement
 * decisions are computed on the coordinating thread before (or
 * between) replica simulations, so faulty runs stay bit-identical
 * across replays and worker-thread counts.
 */
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "runtime/faults.hh"
#include "runtime/request.hh"

namespace step::obs {
class MetricsRegistry;
}

namespace step::runtime {

// ---- circuit breakers --------------------------------------------------

enum class BreakerState : uint8_t { Closed, Open, HalfOpen };

const char* breakerStateName(BreakerState s);

struct BreakerConfig
{
    /**
     * A slowdown window must run this long (and dip to or below
     * openBelowFactor) before the breaker opens — transient stragglers
     * do not trip it. Crashes open the breaker immediately.
     */
    dam::Cycle detectCycles = 500'000;
    /** Slowdowns at or below this bandwidth factor count as degraded. */
    double openBelowFactor = 0.75;
    /** Half-open probation length after the degradation ends. */
    dam::Cycle cooldownCycles = 2'000'000;
    /**
     * Load multiplier a half-open replica carries in health-scored
     * target selection: it takes traffic again, but only when clearly
     * the best choice.
     */
    double halfOpenLoadPenalty = 2.0;
};

/**
 * One replica's breaker timeline, precomputed from its fault timeline —
 * data, like the plan itself, so every consultation is a pure lookup.
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

/** Derive a replica's breaker timeline from its fault timeline. */
BreakerTimeline computeBreakerTimeline(const ReplicaFaultTimeline& t,
                                       const BreakerConfig& cfg);

// ---- telemetry-inferred breakers ---------------------------------------

/**
 * Where the cluster's breaker timelines come from. Plan (the default)
 * derives them from the fault plan's ground truth via
 * computeBreakerTimeline. Telemetry infers them *online* from each
 * replica's windowed metrics — failed-request counts and windowed p95
 * TTFT — the production-faithful variant: it only knows what a client-
 * side monitor could observe, so it detects crashes one window late,
 * needs consecutive evidence for slowdowns, can miss a fault an idle
 * replica never surfaces, and can open on load-induced latency the
 * plan never scripted (the divergence-under-noise the tests pin).
 */
enum class BreakerSource : uint8_t { Plan, Telemetry };

/** Parse "plan" / "telemetry"; returns false on anything else. */
bool parseBreakerSource(std::string_view s, BreakerSource* out);

/**
 * Health-monitor thresholds for telemetry-inferred breakers. All
 * decisions land on window-close edges (cycle (w+1)*windowCycles), so
 * the inferred timeline is causal: it only uses windows that had
 * fully closed by the decision cycle.
 */
struct HealthMonitorConfig
{
    /** Telemetry aggregation window; also the detection quantum. */
    dam::Cycle windowCycles = 2'000'000;
    /** A window is degraded when its p95 TTFT exceeds this. The
     *  default matches SloConfig::ttftCycles. */
    double degradedTtftCycles = 5e6;
    /** Consecutive degraded windows before the breaker opens. */
    int64_t openAfterDegraded = 2;
    /** Failed requests in one window that open it immediately (the
     *  crash signal; 0 disables error-triggered opens). */
    int64_t openOnErrors = 1;
    /** Consecutive healthy windows (>= 1 first token, p95 within
     *  threshold, no failures) before an open breaker closes. Windows
     *  with no evidence either way — an opened replica is routed
     *  around, so its windows go quiet — neither close nor extend. */
    int64_t closeAfterHealthy = 2;
    /** Half-open probation length after an inferred close. */
    dam::Cycle cooldownCycles = 2'000'000;
};

/**
 * Streaming per-replica breaker-state machine over closed telemetry
 * windows. Feed windows in increasing index order (one observeWindow
 * per window, empty ones included); finish() seals a still-open
 * breaker as permanent and returns the inferred timeline. Pure state
 * machine over its inputs — bit-deterministic like the plan pre-pass.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(HealthMonitorConfig cfg) : cfg_(cfg) {}

    /** One closed window: failed-request count, first-token count, and
     *  windowed p95 TTFT (ignored when @p first_tokens is 0). */
    void observeWindow(uint64_t failed, uint64_t first_tokens,
                       uint64_t p95_ttft);

    BreakerTimeline finish();

  private:
    HealthMonitorConfig cfg_;
    BreakerTimeline tl_;
    int64_t window_ = 0;
    int64_t degraded_ = 0;
    int64_t healthy_ = 0;
    bool open_ = false;
    dam::Cycle openAt_ = 0;
};

/**
 * Infer one replica's breaker timeline from its metrics registry
 * (instruments `requests_failed` and `ttft_cycles`; the registry's
 * window width must equal cfg.windowCycles). This is the ROADMAP's
 * "breaker feedback from observed latency" follow-on: the cluster runs
 * an observation pass with metrics on, infers timelines per replica,
 * and the resilient run consults them exactly like plan-derived ones.
 */
BreakerTimeline inferBreakerTimeline(const obs::MetricsRegistry& m,
                                     const HealthMonitorConfig& cfg);

// ---- live request migration -------------------------------------------

struct MigrationConfig
{
    /** Fixed handoff cost per migration (handshake + metadata). */
    dam::Cycle fixedHandoffCycles = 50'000;
    /** KV-shard transfer cost per token moved (soft drain only — a
     *  hard-down source lost its KV and the request re-prefills). */
    dam::Cycle perTokenTransferCycles = 100;
    /** Migrations per request before the cluster gives up (the retry
     *  policy's maxRetries analogue). */
    int64_t maxMigrations = 3;
};

/** KV tokens a handoff of @p r carries: its prefill progress after a
 *  soft drain (Migrated), none after a crash (the KV died with it). */
int64_t carriedKvTokens(const Request& r);

/**
 * The resilience tier's RetryPolicy, i.e. the migration cost model: up to
 * maxMigrations attempts, each re-arriving max(1, fixedHandoffCycles +
 * carriedKvTokens(r) * perTokenTransferCycles) cycles after the failure,
 * and never past the request's deadline.
 */
class MigrationHandoff : public RetryPolicy
{
  public:
    explicit MigrationHandoff(const MigrationConfig& cfg) : cfg(cfg) {}
    MigrationConfig cfg;
    std::optional<dam::Cycle> reschedule(const Request& r, int64_t attempt,
                                         dam::Cycle failed_at) const override;
};

/**
 * Engine-side half of slowdown migration: when a slowdown window at or
 * below openBelowFactor has run for detectCycles (the same edge that
 * opens the breaker), the engine drains its queued and prefilling
 * requests — they leave in state Migrated, carrying their prefill
 * progress as the KV tokens the handoff must move. Decoding requests
 * stay: their batch finishes locally at the degraded bandwidth rather
 * than shipping a half-generated stream. Disabled (the default) the
 * engine is bit-identical to a drain-less build.
 */
struct SlowdownDrainConfig
{
    bool enabled = false;
    dam::Cycle detectCycles = 500'000;
    double openBelowFactor = 0.75;
};

// ---- cross-replica prefix reuse ---------------------------------------

struct RemotePrefixConfig
{
    bool enabled = false;
    /** Remote lookup round trip, paid once per remote hit. */
    dam::Cycle lookupCycles = 20'000;
    /** Per-token cost of fetching remote KV into local memory. */
    dam::Cycle perTokenFetchCycles = 150;
    /**
     * Failover placement prefers the cache-affinity owner while its
     * load is at most this multiple of the least-loaded candidate's —
     * a warm cache is worth a moderately longer queue, not any queue.
     */
    double affinityLoadFactor = 1.5;
};

// ---- overload brown-out ------------------------------------------------

struct BrownoutConfig
{
    /** Waiting requests at which queue pressure saturates to 1.0. */
    int64_t queueFullDepth = 64;
    /** Pressure at which low-priority requests shed (rung 1). */
    double shedLowAt = 0.5;
    /** Pressure at which output lengths cap (rung 2). */
    double capAt = 0.75;
    int64_t outputCapTokens = 32;
    /** Pressure at which all but high-priority requests are refused
     *  (rung 3). */
    double refuseAt = 0.95;
};

/**
 * Graceful-degradation admission ladder. Pressure is the worst of
 * queue depth (vs queueFullDepth), KV reservation occupancy, and
 * bandwidth degradation (1 - effective/nominal, the slowdown signal the
 * breakers read) — so the same health signal drives shedding that
 * drives routing. Rungs engage in order: shed low-priority, cap output
 * lengths (all but high-priority), refuse everything but high-priority.
 * Composes with deadline shedding via the optional fallback policy.
 */
class BrownoutPolicy : public AdmissionPolicy
{
  public:
    BrownoutConfig cfg;
    /** Consulted first when set (e.g. DeadlineAwareShedPolicy). */
    const AdmissionPolicy* fallback = nullptr;

    /** The ladder's drive signal, exposed for tests. */
    static double pressure(const AdmissionContext& ctx,
                           const BrownoutConfig& cfg);

    bool shouldShed(const Request& r,
                    const AdmissionContext& ctx) const override;
    int64_t outputCap(const Request& r,
                      const AdmissionContext& ctx) const override;
};

// ---- autoscaler --------------------------------------------------------

struct AutoscaleConfig
{
    bool enabled = false;
    /** Utilization is evaluated once per interval. */
    dam::Cycle evalIntervalCycles = 4'000'000;
    /** Offered-load utilization above which one replica activates. */
    double scaleUpUtil = 0.75;
    /** Below which one replica parks. */
    double scaleDownUtil = 0.30;
    int64_t minReplicas = 1;
    /** 0 = the cluster's replica count. */
    int64_t maxReplicas = 0;
};

/** One autoscaler decision: @p active replicas from cycle @p at on. */
struct AutoscaleStep
{
    dam::Cycle at = 0;
    int64_t active = 0;
};

/**
 * Precompute the autoscaler's step timeline from the offered load: per
 * evaluation interval, the arriving work (prompt + output tokens,
 * weighted by the analytic per-token cost) against the capacity of the
 * currently active *alive* replicas; above scaleUpUtil one replica
 * activates, below scaleDownUtil one parks (hysteresis band between).
 * A pure function of (cfg, trace, plan, ...) — the timeline, like the
 * fault plan, is data fixed before any simulation runs. Parked
 * replicas stop receiving fresh placements; sticky sessions already
 * owned by a parked replica stay (cache affinity outranks parking).
 */
std::vector<AutoscaleStep>
computeAutoscaleTimeline(const AutoscaleConfig& cfg,
                         const std::vector<Request>& reqs,
                         const FaultPlan& plan, int64_t replicas,
                         double flopsPerToken, int64_t perReplicaBw);

/** Active replica count at cycle @p c (replicas when steps empty). */
int64_t autoscaleActiveAt(const std::vector<AutoscaleStep>& steps,
                          dam::Cycle c, int64_t replicas);

// ---- health-scored placement ------------------------------------------

/**
 * Pick the failover/migration target among @p n replicas at cycle
 * @p at: candidates must be alive, breaker-not-open, and autoscale-
 * active (the active restriction is waived when it would leave no
 * candidate). The cache-affinity owner wins while its load is at most
 * affinityLoadFactor x the least-loaded candidate's; otherwise the
 * lowest health-scored load wins, where a candidate's score is its
 * assigned load scaled up by its current slowdown (1/bwFactor) and the
 * half-open penalty, and scaled down by its static capacity scale
 * (@p bwScales; null or short = 1.0 — a 2x replica absorbs 2x the
 * queue). Ties break to the lowest index. Returns -1 when no replica
 * is alive. Pure function of its arguments.
 */
int64_t pickResilientTarget(
    const std::vector<int64_t>& load, const FaultPlan& plan,
    const std::vector<BreakerTimeline>& breakers,
    const std::vector<AutoscaleStep>& autoscale, dam::Cycle at,
    int64_t affinityOwner, double affinityLoadFactor,
    double halfOpenLoadPenalty,
    const std::vector<double>* bwScales = nullptr);

// ---- cluster-level instants -------------------------------------------

/**
 * Cluster-scope decisions stamped onto a replica's trace. The
 * coordinating thread cannot append to a replica's TraceSink (one
 * writer per sink; the monotone per-track clamp would also drag engine
 * events forward), so the cluster hands each engine the instants that
 * concern it — breaker flips, autoscale steps — and the engine emits
 * them in cycle order from its own loop.
 */
struct ClusterInstant
{
    enum Kind : uint8_t {
        BreakerOpen,
        BreakerHalfOpen,
        BreakerClosed,
        AutoscaleActive,
    };
    dam::Cycle at = 0;
    Kind kind = BreakerOpen;
    int64_t value = 0; ///< AutoscaleActive: the active replica count
};

/** The instant's trace name ("breaker.open", "autoscale.active", ...). */
const char* clusterInstantName(ClusterInstant::Kind k);

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
    MigrationConfig migration;
    BreakerConfig breaker;
    RemotePrefixConfig remotePrefix;
    AutoscaleConfig autoscale;
    /**
     * Plan: breakers from computeBreakerTimeline (ground truth).
     * Telemetry: the cluster first runs an observation pass (the plain
     * fault tier, metrics force-enabled at health.windowCycles, no
     * resilience machinery) and infers each replica's timeline with
     * inferBreakerTimeline; the resilient run then consults the
     * inferred timelines everywhere the plan-derived ones are used.
     * Engine-side slowdown drains stay plan-driven either way — they
     * model the replica's own local detection, not the cluster
     * monitor. Plan-source runs are byte-identical to builds without
     * this knob.
     */
    BreakerSource breakerSource = BreakerSource::Plan;
    HealthMonitorConfig health;
};

} // namespace step::runtime
