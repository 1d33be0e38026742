#include "runtime/resilience.hh"

#include <algorithm>
#include <cmath>

#include "support/error.hh"

namespace step::runtime {

// ---- circuit breakers --------------------------------------------------

BreakerState
BreakerTimeline::stateAt(dam::Cycle c) const
{
    for (const auto& w : open)
        if (w.start <= c && (w.end == 0 || c < w.end))
            return BreakerState::Open;
    for (const auto& w : halfOpen)
        if (w.start <= c && (w.end == 0 || c < w.end))
            return BreakerState::HalfOpen;
    return BreakerState::Closed;
}

std::vector<BreakerTimeline::Window>
slowdownTrips(const ReplicaFaultTimeline& t)
{
    constexpr double kDeepFactor = 0.75; // at or below: a deep slowdown
    std::vector<BreakerTimeline::Window> trips;
    for (const auto& s : t.slowdowns) {
        // Only a *sustained* deep slowdown trips, and only after the
        // detection lag — the health scorer needs to observe the
        // degradation before it can act on it.
        if (s.factor <= kDeepFactor && s.end - s.start > kBreakerDetectCycles)
            trips.push_back({s.start + kBreakerDetectCycles, s.end});
    }
    return trips;
}

BreakerTimeline
computeBreakerTimeline(const ReplicaFaultTimeline& t)
{
    constexpr dam::Cycle kCooldownCycles = 2'000'000; // half-open probation
    BreakerTimeline b;
    for (const auto& d : t.downs) {
        // A crash opens the breaker for the whole outage; recovery
        // starts the half-open probation. A permanent crash never
        // half-opens.
        b.open.push_back({d.failAt, d.recoverAt});
        if (d.recoverAt != 0)
            b.halfOpen.push_back(
                {d.recoverAt, d.recoverAt + kCooldownCycles});
    }
    for (const auto& w : slowdownTrips(t)) {
        b.open.push_back(w);
        b.halfOpen.push_back({w.end, w.end + kCooldownCycles});
    }
    auto byStart = [](const BreakerTimeline::Window& a,
                      const BreakerTimeline::Window& b) {
        return a.start < b.start;
    };
    std::sort(b.open.begin(), b.open.end(), byStart);
    std::sort(b.halfOpen.begin(), b.halfOpen.end(), byStart);
    return b;
}

// ---- telemetry-inferred breakers ---------------------------------------

void
HealthMonitor::expectOpen(dam::Cycle at) const
{
    STEP_ASSERT(int64_t(at / cfg_.windowCycles) >= window_,
                "telemetry at cycle " << at
                                      << " reported after its window closed");
}

void
HealthMonitor::failed(dam::Cycle at)
{
    expectOpen(at);
    failures_.record(at, 1);
}

void
HealthMonitor::firstToken(dam::Cycle at, uint64_t ttft)
{
    expectOpen(at);
    ttft_.record(at, ttft);
}

void
HealthMonitor::closeUntil(dam::Cycle edge)
{
    while (dam::Cycle(window_ + 1) * cfg_.windowCycles <= edge) {
        const auto w = size_t(window_);
        const obs::LogHistogram* h = ttft_.windowHistogram(w);
        observeWindow(failures_.window(w).count, h ? h->count() : 0,
                      h ? h->percentile(95.0) : 0);
    }
}

void
HealthMonitor::observeWindow(uint64_t failed, uint64_t first_tokens,
                             uint64_t p95_ttft)
{
    // Decisions land when the window closes — the monitor cannot act
    // on a window it has not fully observed.
    const dam::Cycle close_at =
        dam::Cycle(window_ + 1) * cfg_.windowCycles;
    ++window_;
    constexpr uint64_t kOpenOnErrors = 1; // failures: the crash signal
    const bool error = failed >= kOpenOnErrors;
    const bool degraded =
        !error && first_tokens > 0 &&
        double(p95_ttft) > cfg_.degradedTtftCycles;
    const bool healthy =
        !error && !degraded && first_tokens > 0;
    if (!open_) {
        if (error) {
            open_ = true;
            openAt_ = close_at;
            degraded_ = 0;
        } else if (degraded) {
            if (++degraded_ >= cfg_.openAfterDegraded) {
                open_ = true;
                openAt_ = close_at;
                degraded_ = 0;
            }
        } else if (healthy) {
            degraded_ = 0;
        }
        // Quiet window while closed: the degraded streak neither grows
        // nor resets — no evidence either way.
        return;
    }
    if (error || degraded) {
        healthy_ = 0;
        quiet_ = 0;
        return;
    }
    if (!healthy) {
        ++quiet_;
        return;
    }
    if (++healthy_ >= cfg_.closeAfterHealthy) {
        // Probation ends on a window edge, like every other decision.
        const dam::Cycle w = cfg_.windowCycles;
        const dam::Cycle probation =
            std::max<dam::Cycle>(1, (cfg_.cooldownCycles + w - 1) / w) * w;
        tl_.open.push_back({openAt_, close_at});
        tl_.halfOpen.push_back({close_at, close_at + probation});
        open_ = false;
        healthy_ = 0;
        quiet_ = 0;
    }
}

BreakerTimeline
HealthMonitor::timeline() const
{
    BreakerTimeline tl = tl_;
    if (open_) {
        // Still open: permanent until a later window closes it, like a
        // plan-derived breaker for an unrecovered crash.
        tl.open.push_back({openAt_, 0});
    }
    return tl;
}

// ---- live request migration -------------------------------------------

int64_t
carriedKvTokens(const Request& r)
{
    return r.state == ReqState::Migrated ? r.prefilledTokens : 0;
}

std::optional<dam::Cycle>
MigrationHandoff::reschedule(const Request& r, int64_t attempt,
                             dam::Cycle failed_at) const
{
    // The router cannot deliver a request at the cycle it failed.
    static_assert(kFixedCycles > 0, "a handoff must take time");
    const auto kv = static_cast<dam::Cycle>(carriedKvTokens(r));
    const dam::Cycle rearrive = failed_at + kFixedCycles + kv * kPerTokenCycles;
    if (attempt > kMaxMigrations ||
        (r.deadlineAt != 0 && rearrive > r.deadlineAt))
        return std::nullopt;
    return rearrive;
}

// ---- overload brown-out ------------------------------------------------

double
BrownoutPolicy::pressure(const AdmissionContext& ctx)
{
    double p = double(ctx.waitingRequests) / double(kQueueFullDepth);
    if (ctx.kvBudgetBytes > 0)
        p = std::max(p, double(ctx.kvReservedBytes) /
                            double(ctx.kvBudgetBytes));
    if (ctx.nominalComputeBw > 0)
        p = std::max(p, 1.0 - double(ctx.totalComputeBw) /
                                  double(ctx.nominalComputeBw));
    return p;
}

bool
BrownoutPolicy::shouldShed(const Request& r,
                           const AdmissionContext& ctx) const
{
    double p = pressure(ctx);
    if (p >= kRefuseAt && r.priority != ReqPriority::High)
        return true;
    if (p >= kShedLowAt && r.priority == ReqPriority::Low)
        return true;
    return fallback && fallback->shouldShed(r, ctx);
}

int64_t
BrownoutPolicy::outputCap(const Request& r,
                          const AdmissionContext& ctx) const
{
    if (r.priority != ReqPriority::High && pressure(ctx) >= kCapAt)
        return kOutputCapTokens;
    return fallback ? fallback->outputCap(r, ctx) : 0;
}

// ---- autoscaler --------------------------------------------------------

std::vector<AutoscaleStep>
computeAutoscaleTimeline(const AutoscaleConfig& cfg,
                         const std::vector<Request>& reqs,
                         const std::vector<ReplicaFaultTimeline>& faults,
                         double flopsPerToken, int64_t perReplicaBw)
{
    constexpr double kScaleUpUtil = 0.75;   // above: one replica activates
    constexpr double kScaleDownUtil = 0.30; // below: one parks
    constexpr dam::Cycle kIntervalCycles = 4'000'000; // one evaluation
    std::vector<AutoscaleStep> steps;
    if (!cfg.enabled || reqs.empty() || perReplicaBw <= 0 ||
        flopsPerToken <= 0)
        return steps;

    // Every replica starts active; one always stays.
    const auto replicas = int64_t(faults.size());
    int64_t active = replicas;

    dam::Cycle horizon = 0;
    for (const auto& r : reqs)
        horizon = std::max(horizon, r.arrival);

    // Walk the trace interval by interval: arrivals are sorted, so one
    // cursor suffices. The offered load is the analytic flops the
    // interval's arrivals will eventually demand — prompt and output
    // tokens both priced at the prefill cost, a deliberate lower bound
    // that keeps the scaler from thrashing on decode-heavy noise.
    size_t cursor = 0;
    for (dam::Cycle t = 0; t <= horizon; t += kIntervalCycles) {
        double offered = 0.0;
        while (cursor < reqs.size() &&
               reqs[cursor].arrival < t + kIntervalCycles) {
            offered += double(reqs[cursor].promptLen +
                              reqs[cursor].outputLen) *
                       flopsPerToken;
            ++cursor;
        }
        int64_t aliveActive = 0;
        for (int64_t r = 0; r < active; ++r)
            if (!faults[size_t(r)].downAt(t))
                ++aliveActive;
        const double capacity = double(aliveActive) *
                                double(perReplicaBw) *
                                double(kIntervalCycles);
        const double util =
            capacity > 0 ? offered / capacity
                         : (offered > 0 ? 1.0 : 0.0);
        int64_t next = active;
        if (util > kScaleUpUtil)
            next = std::min<int64_t>(active + 1, replicas);
        else if (util < kScaleDownUtil)
            next = std::max<int64_t>(active - 1, 1);
        if (next != active) {
            active = next;
            steps.push_back({t + kIntervalCycles, active});
        }
    }
    return steps;
}

int64_t
autoscaleActiveAt(const std::vector<AutoscaleStep>& steps, dam::Cycle c,
                  int64_t replicas)
{
    int64_t active = replicas;
    for (const auto& s : steps) {
        if (s.at > c)
            break;
        active = s.active;
    }
    return active;
}

// ---- health-scored placement ------------------------------------------

int64_t
pickResilientTarget(const std::vector<int64_t>& load,
                    const std::vector<ReplicaFaultTimeline>& faults,
                    const std::vector<BreakerTimeline>& breakers,
                    const std::vector<AutoscaleStep>& autoscale,
                    dam::Cycle at, int64_t affinityOwner,
                    const std::vector<double>& bwScales)
{
    constexpr double kAffinityLoadFactor = 1.5;  // the owner's allowance
    constexpr double kHalfOpenLoadPenalty = 2.0; // probation's load scale
    const int64_t n = int64_t(load.size());
    const int64_t active = autoscaleActiveAt(autoscale, at, n);
    STEP_ASSERT(faults.size() >= load.size(), "a fault timeline per replica");

    auto candidates = [&](bool requireActive,
                          bool requireBreaker) {
        std::vector<int64_t> c;
        for (int64_t r = 0; r < n; ++r) {
            if (faults[size_t(r)].downAt(at))
                continue;
            if (requireActive && r >= active)
                continue;
            if (requireBreaker && r < int64_t(breakers.size()) &&
                breakers[r].openAt(at))
                continue;
            c.push_back(r);
        }
        return c;
    };

    // Prefer healthy active replicas; relax parking, then the breaker,
    // before giving up — an open breaker beats a dead cluster.
    std::vector<int64_t> cand = candidates(true, true);
    if (cand.empty())
        cand = candidates(false, true);
    if (cand.empty())
        cand = candidates(false, false);
    if (cand.empty())
        return -1;

    int64_t minLoad = load[cand.front()];
    for (int64_t r : cand)
        minLoad = std::min(minLoad, load[r]);

    // Cache-affinity-aware placement: the owner's warm radix tree is
    // worth a moderately longer queue.
    if (affinityOwner >= 0 &&
        std::find(cand.begin(), cand.end(), affinityOwner) !=
            cand.end() &&
        double(load[affinityOwner]) <=
            kAffinityLoadFactor * double(minLoad))
        return affinityOwner;

    int64_t best = -1;
    double bestScore = 0.0;
    for (int64_t r : cand) {
        // Effective bandwidth factor: transient slowdown x static
        // capacity scale — a half-speed replica should absorb half
        // the queue, whichever way it got slow.
        double factor = faults[size_t(r)].bwFactorAt(at);
        if (r < int64_t(bwScales.size()) && bwScales[size_t(r)] > 0.0)
            factor *= bwScales[size_t(r)];
        double score = double(load[r]) / factor;
        if (r < int64_t(breakers.size()) &&
            breakers[r].stateAt(at) == BreakerState::HalfOpen)
            score *= kHalfOpenLoadPenalty;
        if (best < 0 || score < bestScore) {
            best = r;
            bestScore = score;
        }
    }
    return best;
}

} // namespace step::runtime
