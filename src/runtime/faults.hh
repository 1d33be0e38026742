/**
 * @file
 * Deterministic fault model for the serving runtime. A FaultPlan is a
 * list of scripted or seeded-random events — replica crashes at cycle X
 * (with optional recovery at cycle Y) and transient slowdown windows
 * that scale totalComputeBw — fixed *before* any simulation runs, so a
 * faulty run is as bit-identically replayable as a fault-free one: the
 * plan is data, derived from deriveSeed, never from simulation state.
 *
 * The same header carries the pluggable degradation policies the fault
 * tier needs (the DynaFlow-style policy-object pattern the routers and
 * bandwidth policies already use): RetryPolicy decides whether and when
 * a failed request re-arrives at a surviving replica (max attempts,
 * modeled backoff, never after its deadline), and AdmissionPolicy lets
 * the batcher shed requests whose deadline is already unmeetable instead
 * of queueing them without bound. StallError replaces the engine's
 * former fatal assert when admission genuinely cannot make progress,
 * carrying a scheduler-state diagnostic dump instead of aborting.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/request.hh"
#include "support/error.hh"

namespace step::runtime {

/** Replica crash at failAt; recoverAt 0 means it never comes back. */
struct FaultEvent
{
    int64_t replica = 0;
    dam::Cycle failAt = 0;
    dam::Cycle recoverAt = 0;
};

/** Transient degradation: totalComputeBw scales by bwFactor in
 *  [start, end) — a straggler window, not an outage. */
struct SlowdownWindow
{
    int64_t replica = 0;
    dam::Cycle start = 0;
    dam::Cycle end = 0;
    double bwFactor = 0.5;
};

/**
 * One replica's slice of a FaultPlan, in event order — what a
 * ServingEngine consumes. Down windows are half-open [failAt,
 * recoverAt); a window with recoverAt == 0 extends forever and must be
 * the replica's last.
 */
struct ReplicaFaultTimeline
{
    struct Down
    {
        dam::Cycle failAt = 0;
        dam::Cycle recoverAt = 0; ///< 0 = never recovers
    };
    struct Slow
    {
        dam::Cycle start = 0;
        dam::Cycle end = 0;
        double factor = 1.0;
    };

    std::vector<Down> downs;
    std::vector<Slow> slowdowns;

    static constexpr dam::Cycle kNoEvent =
        std::numeric_limits<dam::Cycle>::max();

    bool empty() const { return downs.empty() && slowdowns.empty(); }

    /** Is the replica down at cycle @p c? */
    bool downAt(dam::Cycle c) const;

    /** Effective bandwidth factor at cycle @p c (1.0 outside windows). */
    double bwFactorAt(dam::Cycle c) const;

    /**
     * Earliest timeline boundary (crash, recovery, slowdown edge)
     * strictly after @p c, or kNoEvent. The engine clamps analytic
     * prefill iterations to this so bandwidth changes land on exact
     * cycles. (Decode iterations are graph-simulated and keep their
     * natural length; a crash then takes effect at the next iteration
     * boundary — iteration-granular fault delivery, documented in the
     * README determinism contract.)
     */
    dam::Cycle nextEventAfter(dam::Cycle c) const;

    /** Sort windows and validate (no overlap, recoverAt==0 last,
     *  factors in (0, 1]). Throws FatalError on a malformed plan. */
    void normalize();
};

/** The full cluster-wide fault script. */
struct FaultPlan
{
    std::vector<FaultEvent> crashes;
    std::vector<SlowdownWindow> slowdowns;

    bool empty() const { return crashes.empty() && slowdowns.empty(); }

    /** Extract (and normalize) replica @p r's timeline: the one view
     *  of the plan every consumer reads. */
    ReplicaFaultTimeline forReplica(int64_t r) const;
};

/** Seeded-random plan generation: per-replica Poisson failure/repair
 *  processes, the classic MTBF/MTTR model. Slowdown windows last 2M
 *  cycles on average, at bandwidth factor 0.5. */
struct FaultPlanConfig
{
    /** Mean cycles between crashes per replica; 0 = no crashes. */
    double mtbfCycles = 0;
    /** Mean cycles to repair; 0 = crashes are permanent. */
    double mttrCycles = 0;
    /** Mean cycles between slowdown windows per replica; 0 = none. */
    double slowdownMtbfCycles = 0;
    /** Events are generated up to this cycle. */
    dam::Cycle horizonCycles = 0;
};

/**
 * Draw a FaultPlan from the config. Pure function of (cfg, replicas,
 * seed) — the plan, like a trace, is generated before simulation, so
 * every faulty run replays bit-identically.
 */
FaultPlan generateFaultPlan(const FaultPlanConfig& cfg, int64_t replicas,
                            uint64_t seed);

/**
 * Parse a scripted plan: comma- or semicolon-separated events, each
 * "REPLICA@FAIL_AT[:RECOVER_AT]" (cycles; recovery omitted = permanent),
 * e.g. "1@8000000:12000000,2@5000000". Every number is a whole unsigned
 * decimal (blanks around it allowed). Returns false with a message in
 * @p err on malformed input.
 */
bool parseFaultPlan(std::string_view spec, FaultPlan* out,
                    std::string* err);

// ---- retry ------------------------------------------------------------

/**
 * Decides whether a request that failed (its replica crashed) is
 * re-submitted, and when. Consulted by ServingCluster on the
 * coordinating thread between failover epochs, so implementations need
 * no synchronization; they must be pure functions of their arguments
 * for the determinism contract to hold.
 */
class RetryPolicy
{
  public:
    virtual ~RetryPolicy() = default;

    /**
     * @p r failed at cycle @p failed_at; @p attempt is the attempt
     * number the retry would be (1 = first retry). Return the re-arrival
     * cycle (>= failed_at — the router cannot travel back in time; the
     * cluster raises FatalError otherwise), or nullopt to give up (the
     * request stays failed).
     */
    virtual std::optional<dam::Cycle>
    reschedule(const Request& r, int64_t attempt,
               dam::Cycle failed_at) const = 0;
};

/**
 * Standard client behavior: up to kMaxRetries re-submissions, each
 * delayed by kBackoffBaseCycles * kBackoffMult^(attempt-1) cycles of
 * modeled backoff — and never a retry whose re-arrival would already be
 * past the request's deadline (retrying a sure loser only adds load
 * where the cluster is weakest).
 */
class ExponentialBackoffRetry : public RetryPolicy
{
  public:
    static constexpr int64_t kMaxRetries = 3;
    static constexpr dam::Cycle kBackoffBaseCycles = 1'000'000;
    static constexpr double kBackoffMult = 2.0;

    std::optional<dam::Cycle> reschedule(const Request& r, int64_t attempt,
                                         dam::Cycle failed_at) const override;
};

/** Fail fast: every failure is permanent. */
class NoRetryPolicy : public RetryPolicy
{
  public:
    std::optional<dam::Cycle>
    reschedule(const Request&, int64_t, dam::Cycle) const override
    {
        return std::nullopt;
    }
};

// ---- admission / shedding ---------------------------------------------

/** What the batcher knows when it consults the admission policy. */
struct AdmissionContext
{
    dam::Cycle now = 0;
    /** Analytic prefill cost per prompt token (engine's fpt). */
    double prefillFlopsPerToken = 0;
    /** Effective compute bandwidth (slowdown-scaled). */
    int64_t totalComputeBw = 0;
    /** Configured compute bandwidth before slowdown scaling; the gap to
     *  totalComputeBw is the degradation signal brown-out reads. 0 when
     *  the engine predates the signal (treated as "not degraded"). */
    int64_t nominalComputeBw = 0;
    int64_t runningRequests = 0;
    int64_t waitingRequests = 0;
    int64_t kvBudgetBytes = 0;
    int64_t kvReservedBytes = 0;
};

/**
 * Consulted per waiting request at every admission round. Returning
 * true sheds the request (terminal, counted separately from failures) —
 * graceful degradation under overload instead of unbounded queueing.
 * Must be a pure function of its arguments (determinism contract).
 */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;
    virtual bool shouldShed(const Request& r,
                            const AdmissionContext& ctx) const = 0;

    /**
     * Graceful degradation below shedding: a positive return caps the
     * request's outputLen at that many tokens at admission (never
     * raising it) — the brown-out ladder's middle rung. 0, the default,
     * admits unmodified.
     */
    virtual int64_t
    outputCap(const Request& /*r*/, const AdmissionContext& /*ctx*/) const
    {
        return 0;
    }
};

/**
 * Sheds a request only when its deadline is provably unmeetable: the
 * optimistic completion bound — start prefilling the uncached suffix
 * *now* at the full machine bandwidth, decode at safetyDecodeCycles per
 * token — already lands past deadlineAt. An optimistic bound sheds only
 * sure losers; requests without a deadline are never shed.
 */
class DeadlineAwareShedPolicy : public AdmissionPolicy
{
  public:
    /** Lower bound on decode cycles per output token after the first.
     *  0 (default) keeps the bound purely prefill-based. */
    dam::Cycle safetyDecodeCyclesPerToken = 0;

    bool shouldShed(const Request& r,
                    const AdmissionContext& ctx) const override;
};

// ---- stall diagnostics -------------------------------------------------

/**
 * Scheduler-state dump attached to a StallError: what was blocked and
 * what occupied the channels (KV reservations, cache pins) when the
 * engine concluded no further progress is possible.
 */
struct StallDiagnostic
{
    std::string reason;
    dam::Cycle now = 0;
    int64_t iterations = 0;

    struct BlockedRequest
    {
        int64_t id = 0;
        int64_t promptLen = 0;
        int64_t outputLen = 0;
        int64_t needKvBytes = 0; ///< reservation admission would take
        dam::Cycle arrival = 0;
    };
    /** Admission queue, head first (the head is what cannot admit). */
    std::vector<BlockedRequest> blocked;

    int64_t runningRequests = 0;
    int64_t kvReservedBytes = 0;
    int64_t kvBudgetBytes = 0;
    int64_t cachePinnedRequests = 0;
    int64_t cacheOccupancyTokens = 0;

    /** One-line-per-field human rendering (the StallError's what()). */
    std::string format() const;
};

/**
 * Thrown (instead of the former fatal assert) when the engine is idle
 * with requests it can never serve — e.g. a head-of-line request whose
 * KV reservation exceeds the whole budget and no admission policy is
 * attached to shed it. Subclasses PanicError so existing catch sites
 * and tests keep working; carries the structured diagnostic so stalls
 * are reportable and testable instead of aborting the process.
 */
class StallError : public PanicError
{
  public:
    explicit StallError(StallDiagnostic d)
        : PanicError(d.format()), diagnostic(std::move(d))
    {}

    StallDiagnostic diagnostic;
};

} // namespace step::runtime
