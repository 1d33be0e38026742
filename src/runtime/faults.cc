#include "runtime/faults.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/parse.hh"
#include "support/rng.hh"

namespace step::runtime {

// ---- ReplicaFaultTimeline ---------------------------------------------

bool
ReplicaFaultTimeline::downAt(dam::Cycle c) const
{
    for (const Down& d : downs)
        if (c >= d.failAt && (d.recoverAt == 0 || c < d.recoverAt))
            return true;
    return false;
}

double
ReplicaFaultTimeline::bwFactorAt(dam::Cycle c) const
{
    for (const Slow& s : slowdowns)
        if (c >= s.start && c < s.end)
            return s.factor;
    return 1.0;
}

dam::Cycle
ReplicaFaultTimeline::nextEventAfter(dam::Cycle c) const
{
    dam::Cycle next = kNoEvent;
    auto consider = [&](dam::Cycle t) {
        if (t > c && t < next)
            next = t;
    };
    for (const Down& d : downs) {
        consider(d.failAt);
        if (d.recoverAt != 0)
            consider(d.recoverAt);
    }
    for (const Slow& s : slowdowns) {
        consider(s.start);
        consider(s.end);
    }
    return next;
}

void
ReplicaFaultTimeline::normalize()
{
    std::sort(downs.begin(), downs.end(),
              [](const Down& a, const Down& b) {
                  return a.failAt < b.failAt;
              });
    for (size_t i = 0; i < downs.size(); ++i) {
        const Down& d = downs[i];
        if (d.recoverAt == 0) {
            if (i + 1 < downs.size())
                stepFatal("fault plan: permanent crash at cycle "
                          << d.failAt
                          << " is followed by a later event at cycle "
                          << downs[i + 1].failAt);
        } else {
            if (d.recoverAt <= d.failAt)
                stepFatal("fault plan: recovery at cycle " << d.recoverAt
                          << " does not follow its crash at cycle "
                          << d.failAt);
            if (i + 1 < downs.size() &&
                downs[i + 1].failAt < d.recoverAt)
                stepFatal("fault plan: crash windows overlap at cycle "
                          << downs[i + 1].failAt);
        }
    }
    std::sort(slowdowns.begin(), slowdowns.end(),
              [](const Slow& a, const Slow& b) {
                  return a.start < b.start;
              });
    for (size_t i = 0; i < slowdowns.size(); ++i) {
        const Slow& s = slowdowns[i];
        if (s.end <= s.start)
            stepFatal("fault plan: empty slowdown window at cycle "
                      << s.start);
        if (!(s.factor > 0.0) || s.factor > 1.0)
            stepFatal("fault plan: slowdown factor " << s.factor
                      << " outside (0, 1]");
        if (i + 1 < slowdowns.size() && slowdowns[i + 1].start < s.end)
            stepFatal("fault plan: slowdown windows overlap at cycle "
                      << slowdowns[i + 1].start);
    }
}

// ---- FaultPlan ---------------------------------------------------------

ReplicaFaultTimeline
FaultPlan::forReplica(int64_t r) const
{
    ReplicaFaultTimeline t;
    for (const FaultEvent& e : crashes)
        if (e.replica == r)
            t.downs.push_back({e.failAt, e.recoverAt});
    for (const SlowdownWindow& w : slowdowns)
        if (w.replica == r)
            t.slowdowns.push_back({w.start, w.end, w.bwFactor});
    t.normalize();
    return t;
}

// ---- generation --------------------------------------------------------

namespace {

/** Exponential draw with the given mean (mean > 0). */
dam::Cycle
expoCycles(Rng& rng, double mean)
{
    double u = rng.uniform();
    // uniform() is in [0, 1); 1-u is in (0, 1], so the log is finite.
    double d = -std::log(1.0 - u) * mean;
    return static_cast<dam::Cycle>(std::max(1.0, std::ceil(d)));
}

} // namespace

FaultPlan
generateFaultPlan(const FaultPlanConfig& cfg, int64_t replicas,
                  uint64_t seed)
{
    constexpr double kSlowdownMeanCycles = 2'000'000; // window length
    constexpr double kSlowdownFactor = 0.5; // bandwidth inside a window
    FaultPlan plan;
    if (cfg.horizonCycles == 0)
        return plan;
    // One Rng, replicas walked in index order: the plan is a pure
    // function of (cfg, replicas, seed), independent of anything the
    // simulation later does.
    Rng rng(seed);
    for (int64_t r = 0; r < replicas; ++r) {
        if (cfg.mtbfCycles > 0) {
            dam::Cycle t = 0;
            while (true) {
                t += expoCycles(rng, cfg.mtbfCycles);
                if (t >= cfg.horizonCycles)
                    break;
                dam::Cycle recover =
                    cfg.mttrCycles > 0
                        ? t + expoCycles(rng, cfg.mttrCycles)
                        : 0;
                plan.crashes.push_back({r, t, recover});
                if (recover == 0)
                    break; // permanent: nothing after it matters
                t = recover;
            }
        }
        if (cfg.slowdownMtbfCycles > 0) {
            dam::Cycle t = 0;
            while (true) {
                t += expoCycles(rng, cfg.slowdownMtbfCycles);
                if (t >= cfg.horizonCycles)
                    break;
                dam::Cycle end =
                    t + expoCycles(rng, kSlowdownMeanCycles);
                plan.slowdowns.push_back({r, t, end, kSlowdownFactor});
                t = end;
            }
        }
    }
    return plan;
}

// ---- parsing -----------------------------------------------------------

bool
parseFaultPlan(std::string_view spec, FaultPlan* out, std::string* err)
{
    auto fail = [&](const std::string& msg) {
        if (err)
            *err = msg;
        return false;
    };
    FaultPlan plan;
    for (size_t pos = 0; pos < spec.size();) {
        const size_t end = std::min(spec.find_first_of(",;", pos), spec.size());
        const std::string_view tok = spec.substr(pos, end - pos);
        pos = end + 1;
        if (tok.empty())
            continue;
        size_t at = tok.find('@');
        if (at == std::string_view::npos)
            return fail("fault event '" + std::string(tok) +
                        "' has no '@' (want REPLICA@FAIL[:RECOVER])");
        const std::string_view times = tok.substr(at + 1);
        const size_t colon = times.find(':');
        FaultEvent e;
        if (!parseUnsigned(tok.substr(0, at), &e.replica) ||
            !parseUnsigned(times.substr(0, colon), &e.failAt) ||
            (colon != std::string_view::npos &&
             !parseUnsigned(times.substr(colon + 1), &e.recoverAt)))
            return fail("fault event '" + std::string(tok) +
                        "' has a malformed number");
        if (e.recoverAt != 0 && e.recoverAt <= e.failAt)
            return fail("fault event '" + std::string(tok) +
                        "' recovers before it fails");
        plan.crashes.push_back(e);
    }
    *out = std::move(plan);
    return true;
}

// ---- policies ----------------------------------------------------------

std::optional<dam::Cycle>
ExponentialBackoffRetry::reschedule(const Request& r, int64_t attempt,
                                    dam::Cycle failed_at) const
{
    if (attempt > kMaxRetries)
        return std::nullopt;
    double delay = static_cast<double>(kBackoffBaseCycles) *
                   std::pow(kBackoffMult, static_cast<double>(attempt - 1));
    auto rearrive = failed_at + static_cast<dam::Cycle>(
                                    std::max(1.0, std::ceil(delay)));
    // Never retry after the deadline: the re-submitted request could
    // only be shed or miss, adding load exactly where the cluster is
    // weakest.
    if (r.deadlineAt != 0 && rearrive > r.deadlineAt)
        return std::nullopt;
    return rearrive;
}

bool
DeadlineAwareShedPolicy::shouldShed(const Request& r,
                                    const AdmissionContext& ctx) const
{
    if (r.deadlineAt == 0)
        return false;
    if (ctx.now >= r.deadlineAt)
        return true;
    if (ctx.prefillFlopsPerToken <= 0 || ctx.totalComputeBw <= 0)
        return false; // no cost model: cannot prove anything, keep it
    // Optimistic completion bound: the uncached prompt suffix prefills
    // starting now at the *whole* machine's bandwidth, then decode
    // proceeds at the configured per-token floor. Anything the real
    // engine does (sharing bandwidth, queueing) only finishes later.
    const auto suffix = static_cast<double>(
        r.promptLen - r.prefillSkipTokens());
    auto prefill = static_cast<dam::Cycle>(std::ceil(
        suffix * ctx.prefillFlopsPerToken /
        static_cast<double>(ctx.totalComputeBw)));
    dam::Cycle decode =
        safetyDecodeCyclesPerToken *
        static_cast<dam::Cycle>(r.outputLen > 1 ? r.outputLen - 1 : 0);
    return ctx.now + prefill + decode > r.deadlineAt;
}

// ---- stall diagnostics -------------------------------------------------

std::string
StallDiagnostic::format() const
{
    std::ostringstream os;
    os << "serving engine stalled: " << reason << " (cycle " << now
       << ", iteration " << iterations << ")\n"
       << "  running requests : " << runningRequests << "\n"
       << "  kv occupancy     : " << kvReservedBytes << " / "
       << kvBudgetBytes << " B reserved\n"
       << "  cache pins       : " << cachePinnedRequests
       << " pinned paths, " << cacheOccupancyTokens
       << " tokens resident\n"
       << "  blocked queue    : " << blocked.size() << " request(s)";
    for (const BlockedRequest& b : blocked) {
        os << "\n    id " << b.id << " arrival " << b.arrival
           << " prompt " << b.promptLen << " output " << b.outputLen
           << " needs " << b.needKvBytes << " B KV";
    }
    return os.str();
}

} // namespace step::runtime
