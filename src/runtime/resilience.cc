#include "runtime/resilience.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "support/error.hh"

namespace step::runtime {

// ---- circuit breakers --------------------------------------------------

const char*
breakerStateName(BreakerState s)
{
    switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
    }
    return "?";
}

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

BreakerTimeline
computeBreakerTimeline(const ReplicaFaultTimeline& t,
                       const BreakerConfig& cfg)
{
    BreakerTimeline b;
    for (const auto& d : t.downs) {
        // A crash opens the breaker for the whole outage; recovery
        // starts the half-open probation. A permanent crash never
        // half-opens.
        b.open.push_back({d.failAt, d.recoverAt});
        if (d.recoverAt != 0)
            b.halfOpen.push_back(
                {d.recoverAt, d.recoverAt + cfg.cooldownCycles});
    }
    for (const auto& s : t.slowdowns) {
        // Only a *sustained* deep slowdown trips the breaker, and only
        // after the detection lag — the health scorer needs to observe
        // the degradation before it can act on it.
        if (s.factor > cfg.openBelowFactor)
            continue;
        if (s.end - s.start <= cfg.detectCycles)
            continue;
        b.open.push_back({s.start + cfg.detectCycles, s.end});
        b.halfOpen.push_back({s.end, s.end + cfg.cooldownCycles});
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

bool
parseBreakerSource(std::string_view s, BreakerSource* out)
{
    if (s == "plan") {
        *out = BreakerSource::Plan;
        return true;
    }
    if (s == "telemetry") {
        *out = BreakerSource::Telemetry;
        return true;
    }
    return false;
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
    const bool error =
        cfg_.openOnErrors > 0 && failed >= uint64_t(cfg_.openOnErrors);
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
        return;
    }
    if (healthy && ++healthy_ >= cfg_.closeAfterHealthy) {
        tl_.open.push_back({openAt_, close_at});
        tl_.halfOpen.push_back(
            {close_at, close_at + cfg_.cooldownCycles});
        open_ = false;
        healthy_ = 0;
    }
}

BreakerTimeline
HealthMonitor::finish()
{
    if (open_) {
        // Still open when the telemetry ends: permanent, like a
        // plan-derived breaker for an unrecovered crash.
        tl_.open.push_back({openAt_, 0});
        open_ = false;
    }
    return std::move(tl_);
}

BreakerTimeline
inferBreakerTimeline(const obs::MetricsRegistry& m,
                     const HealthMonitorConfig& cfg)
{
    STEP_ASSERT(m.config().windowCycles == cfg.windowCycles,
                "health monitor window ("
                    << cfg.windowCycles
                    << ") does not match the metrics registry's ("
                    << m.config().windowCycles << ")");
    HealthMonitor hm(cfg);
    const obs::MetricsRegistry::Instrument* fail =
        m.find("requests_failed");
    const obs::MetricsRegistry::Instrument* ttft =
        m.find("ttft_cycles");
    size_t slots = 0;
    if (fail)
        slots = std::max(slots, fail->series.windowSlots());
    if (ttft)
        slots = std::max(slots, ttft->series.windowSlots());
    for (size_t w = 0; w < slots; ++w) {
        const uint64_t failed =
            fail ? fail->series.window(w).count : 0;
        uint64_t first_tokens = 0;
        uint64_t p95 = 0;
        if (ttft) {
            if (const obs::LogHistogram* h =
                    ttft->series.windowHistogram(w);
                h && !h->empty()) {
                first_tokens = h->count();
                p95 = h->percentile(95.0);
            }
        }
        hm.observeWindow(failed, first_tokens, p95);
    }
    return hm.finish();
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
    const auto kv = static_cast<dam::Cycle>(carriedKvTokens(r));
    const dam::Cycle handoff =
        cfg.fixedHandoffCycles + kv * cfg.perTokenTransferCycles;
    const dam::Cycle rearrive = failed_at + std::max<dam::Cycle>(1, handoff);
    if (attempt > cfg.maxMigrations ||
        (r.deadlineAt != 0 && rearrive > r.deadlineAt))
        return std::nullopt;
    return rearrive;
}

// ---- overload brown-out ------------------------------------------------

double
BrownoutPolicy::pressure(const AdmissionContext& ctx,
                         const BrownoutConfig& cfg)
{
    double p = 0.0;
    if (cfg.queueFullDepth > 0)
        p = std::max(p, double(ctx.waitingRequests) /
                            double(cfg.queueFullDepth));
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
    double p = pressure(ctx, cfg);
    if (p >= cfg.refuseAt && r.priority != ReqPriority::High)
        return true;
    if (p >= cfg.shedLowAt && r.priority == ReqPriority::Low)
        return true;
    return fallback && fallback->shouldShed(r, ctx);
}

int64_t
BrownoutPolicy::outputCap(const Request& r,
                          const AdmissionContext& ctx) const
{
    if (r.priority != ReqPriority::High &&
        pressure(ctx, cfg) >= cfg.capAt)
        return cfg.outputCapTokens;
    return fallback ? fallback->outputCap(r, ctx) : 0;
}

// ---- autoscaler --------------------------------------------------------

std::vector<AutoscaleStep>
computeAutoscaleTimeline(const AutoscaleConfig& cfg,
                         const std::vector<Request>& reqs,
                         const FaultPlan& plan, int64_t replicas,
                         double flopsPerToken, int64_t perReplicaBw)
{
    std::vector<AutoscaleStep> steps;
    if (!cfg.enabled || cfg.evalIntervalCycles <= 0 || reqs.empty() ||
        perReplicaBw <= 0 || flopsPerToken <= 0)
        return steps;

    const int64_t maxR =
        cfg.maxReplicas > 0 ? std::min(cfg.maxReplicas, replicas)
                            : replicas;
    const int64_t minR =
        std::clamp<int64_t>(cfg.minReplicas, 1, maxR);

    int64_t active = std::clamp<int64_t>(replicas, minR, maxR);
    if (active != replicas)
        steps.push_back({0, active});

    dam::Cycle horizon = 0;
    for (const auto& r : reqs)
        horizon = std::max(horizon, r.arrival);

    // Walk the trace interval by interval: arrivals are sorted, so one
    // cursor suffices. The offered load is the analytic flops the
    // interval's arrivals will eventually demand — prompt and output
    // tokens both priced at the prefill cost, a deliberate lower bound
    // that keeps the scaler from thrashing on decode-heavy noise.
    size_t cursor = 0;
    for (dam::Cycle t = 0; t <= horizon; t += cfg.evalIntervalCycles) {
        double offered = 0.0;
        while (cursor < reqs.size() &&
               reqs[cursor].arrival < t + cfg.evalIntervalCycles) {
            offered += double(reqs[cursor].promptLen +
                              reqs[cursor].outputLen) *
                       flopsPerToken;
            ++cursor;
        }
        int64_t aliveActive = 0;
        for (int64_t r = 0; r < active; ++r)
            if (plan.aliveAt(r, t))
                ++aliveActive;
        const double capacity = double(aliveActive) *
                                double(perReplicaBw) *
                                double(cfg.evalIntervalCycles);
        const double util =
            capacity > 0 ? offered / capacity
                         : (offered > 0 ? 1.0 : 0.0);
        int64_t next = active;
        if (util > cfg.scaleUpUtil)
            next = std::min(active + 1, maxR);
        else if (util < cfg.scaleDownUtil)
            next = std::max(active - 1, minR);
        if (next != active) {
            active = next;
            steps.push_back({t + cfg.evalIntervalCycles, active});
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

namespace {

double
slowFactorAt(const FaultPlan& plan, int64_t r, dam::Cycle c)
{
    double f = 1.0;
    for (const auto& w : plan.slowdowns)
        if (w.replica == r && w.start <= c && c < w.end)
            f *= w.bwFactor;
    return f <= 0.0 ? 1.0 : f;
}

} // namespace

int64_t
pickResilientTarget(const std::vector<int64_t>& load,
                    const FaultPlan& plan,
                    const std::vector<BreakerTimeline>& breakers,
                    const std::vector<AutoscaleStep>& autoscale,
                    dam::Cycle at, int64_t affinityOwner,
                    double affinityLoadFactor,
                    double halfOpenLoadPenalty,
                    const std::vector<double>* bwScales)
{
    const int64_t n = int64_t(load.size());
    const int64_t active = autoscaleActiveAt(autoscale, at, n);

    auto candidates = [&](bool requireActive,
                          bool requireBreaker) {
        std::vector<int64_t> c;
        for (int64_t r = 0; r < n; ++r) {
            if (!plan.aliveAt(r, at))
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
            affinityLoadFactor * double(minLoad))
        return affinityOwner;

    int64_t best = -1;
    double bestScore = 0.0;
    for (int64_t r : cand) {
        // Effective bandwidth factor: transient slowdown x static
        // capacity scale — a half-speed replica should absorb half
        // the queue, whichever way it got slow.
        double factor = slowFactorAt(plan, r, at);
        if (bwScales && r < int64_t(bwScales->size()) &&
            (*bwScales)[size_t(r)] > 0.0)
            factor *= (*bwScales)[size_t(r)];
        double score = double(load[r]) / factor;
        if (r < int64_t(breakers.size()) &&
            breakers[r].stateAt(at) == BreakerState::HalfOpen)
            score *= halfOpenLoadPenalty;
        if (best < 0 || score < bestScore) {
            best = r;
            bestScore = score;
        }
    }
    return best;
}

// ---- cluster-level instants -------------------------------------------

const char*
clusterInstantName(ClusterInstant::Kind k)
{
    switch (k) {
    case ClusterInstant::BreakerOpen: return "breaker.open";
    case ClusterInstant::BreakerHalfOpen: return "breaker.half_open";
    case ClusterInstant::BreakerClosed: return "breaker.closed";
    case ClusterInstant::AutoscaleActive: return "autoscale.active";
    }
    return "?";
}

} // namespace step::runtime
