#include "runtime/cluster.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "support/error.hh"
#include "support/rng.hh"

namespace step::runtime {

namespace {

/**
 * Router-side model of one replica for join-least-work routing. A real
 * ContinuousBatcher (the replica's admission config) tracks the waiting
 * queue and KV reservations; an analytic serial-server drain model
 * estimates when assigned requests leave, so the router never needs
 * feedback from the replica simulations — routing stays a deterministic
 * single-threaded pre-pass over the trace.
 */
struct ShadowReplica
{
    explicit ShadowReplica(const BatcherConfig& bc) : batcher(bc) {}

    ContinuousBatcher batcher;
    /** Stable-address copies of routed requests (the engine later runs
     *  the originals; the shadow must not mutate their state). */
    std::deque<Request> owned;
    struct InFlight
    {
        Request* req;
        dam::Cycle finish; ///< modeled service completion
    };
    std::vector<InFlight> inflight;
    dam::Cycle busyUntil = 0; ///< serial-server horizon

    /** Retire modeled-finished requests and admit from the queue until
     *  a fixed point (a release can unblock further admissions whose
     *  finish estimates have also passed). */
    void
    drainUntil(dam::Cycle now)
    {
        bool progress = true;
        while (progress) {
            progress = false;
            batcher.admit();
            for (auto it = inflight.begin(); it != inflight.end();) {
                if (it->finish <= now &&
                    it->req->state == ReqState::Prefilling) {
                    batcher.release(it->req);
                    it = inflight.erase(it);
                    progress = true;
                } else {
                    ++it;
                }
            }
        }
    }

    /** Outstanding prompt tokens: un-admitted waiting work plus
     *  admitted-but-unfinished work. */
    int64_t
    queuedPromptTokens() const
    {
        int64_t tokens = batcher.waitingPromptTokens();
        for (const InFlight& f : inflight)
            if (f.req->state == ReqState::Prefilling)
                tokens += f.req->promptLen;
        return tokens;
    }
};

/** RouteKind::LeastQueued: each arrival joins the shadow replica with
 *  the least outstanding work at its arrival cycle. */
std::vector<int64_t>
routeLeastQueued(const std::vector<Request>& reqs, const ClusterConfig& cfg,
                 double prefillFpt)
{
    BatcherConfig bc = cfg.engine.batcher;
    if (bc.kvBytesPerToken == 0)
        bc.kvBytesPerToken = cfg.engine.model.kvBytesPerToken();
    const auto bw = static_cast<double>(cfg.engine.totalComputeBw);
    const auto R = static_cast<size_t>(cfg.replicas);
    std::vector<ShadowReplica> shadows;
    shadows.reserve(R);
    for (size_t r = 0; r < R; ++r)
        shadows.emplace_back(bc);

    std::vector<int64_t> out(reqs.size(), 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request& q = reqs[i];
        size_t pick = 0;
        int64_t best = std::numeric_limits<int64_t>::max();
        for (size_t r = 0; r < R; ++r) {
            shadows[r].drainUntil(q.arrival);
            int64_t tokens = shadows[r].queuedPromptTokens();
            if (tokens < best) { // ties break to the lowest index
                best = tokens;
                pick = r;
            }
        }
        ShadowReplica& s = shadows[pick];
        // Heterogeneous fleet: a scaled replica serves its queue at its
        // own rate, so fast replicas drain sooner and attract more
        // placements — the scale shifts load at routing time.
        const double rbw =
            bw * (cfg.bwScales.empty() ? 1.0 : cfg.bwScales[pick]);
        s.owned.push_back(q);
        Request* copy = &s.owned.back();
        copy->state = ReqState::Queued;
        copy->prefilledTokens = 0;
        copy->prefillFlopsDone = 0.0;
        copy->generated = 0;
        copy->firstTokenAt = 0;
        copy->finishedAt = 0;
        // The shadow batcher has no prefix cache; reserve worst case and
        // drop the (unconsulted) block hashes the copy dragged in —
        // multi-turn requests carry dozens of them.
        copy->cachedPrefixTokens = 0;
        copy->blockHashes = {};
        s.batcher.enqueue(copy);
        // Per-token service proxy: the analytic prefill cost stands in
        // for both phases — the router only needs relative load, not
        // absolute latency.
        auto service = static_cast<dam::Cycle>(
            std::ceil(static_cast<double>(q.promptLen + q.outputLen) *
                      prefillFpt / rbw));
        service = std::max<dam::Cycle>(1, service);
        s.busyUntil = std::max(q.arrival, s.busyUntil) + service;
        s.inflight.push_back({copy, s.busyUntil});
        out[i] = static_cast<int64_t>(pick);
    }
    return out;
}

/** The routing policy's replica per request, before any health remap. */
std::vector<int64_t>
assignRoutes(const std::vector<Request>& reqs, const ClusterConfig& cfg,
             double prefillFpt)
{
    const auto R = static_cast<size_t>(cfg.replicas);
    std::vector<int64_t> out(reqs.size(), 0);
    switch (cfg.routing) {
      case RouteKind::RoundRobin:
        for (size_t i = 0; i < reqs.size(); ++i)
            out[i] = static_cast<int64_t>(i % R);
        break;

      case RouteKind::HashAffinity:
        for (size_t i = 0; i < reqs.size(); ++i) {
            // Pure function of the request id: a request (session) always
            // lands on the same replica, whatever else is in the trace.
            Rng h(0xa24baed4963ee407ULL ^
                  static_cast<uint64_t>(reqs[i].id));
            out[i] = static_cast<int64_t>(h.uniformInt(R));
        }
        break;

      case RouteKind::PrefixAffinity: {
        // Sticky map: dominant-prefix hash -> replica. First sight of a
        // key picks the least-loaded replica by assigned worst-case
        // tokens (a router-side proxy — it deliberately overcharges
        // sticky replicas, since their cache hits make later turns
        // cheaper than the estimate, which biases new sessions away
        // from hot replicas). Pure pre-pass: deterministic, no feedback
        // from the replica simulations.
        std::unordered_map<uint64_t, size_t> owner;
        std::vector<int64_t> load(R, 0);
        for (size_t i = 0; i < reqs.size(); ++i) {
            const uint64_t key = reqs[i].affinityKey;
            size_t pick;
            auto it = key != 0 ? owner.find(key) : owner.end();
            if (it != owner.end()) {
                pick = it->second;
            } else {
                // First sight of a session — or a keyless legacy
                // request, for which every arrival takes this branch: a
                // work-balanced spread with no stickiness to preserve.
                pick = 0;
                for (size_t r = 1; r < R; ++r)
                    if (load[r] < load[pick])
                        pick = r;
                if (key != 0)
                    owner.emplace(key, pick);
            }
            load[pick] += reqs[i].promptLen + reqs[i].outputLen;
            out[i] = static_cast<int64_t>(pick);
        }
        break;
      }

      case RouteKind::LeastQueued:
        return routeLeastQueued(reqs, cfg, prefillFpt);
    }
    return out;
}

/**
 * Plain fault-tier placement: the least-loaded replica (assigned
 * worst-case tokens, ties to the lowest index) alive at @p at, or -1
 * when none is. The resilience tier places through pickResilientTarget
 * instead, and this tier cannot: that function divides load by the
 * slowdown factor, while the telemetry observation pass
 * (ServingCluster::resilientBreakers) runs this tier under slowdown
 * plans — switching would move the inferred breakers and with them
 * every telemetry-driven run's outcomes.
 */
int64_t
leastLoadedAlive(const std::vector<int64_t>& load, const FaultPlan& faults,
                 dam::Cycle at)
{
    int64_t best = -1;
    for (size_t c = 0; c < load.size(); ++c) {
        if (!faults.aliveAt(static_cast<int64_t>(c), at))
            continue;
        if (best < 0 || load[c] < load[static_cast<size_t>(best)])
            best = static_cast<int64_t>(c);
    }
    return best;
}

/** The one placement the routing remap and failover share: where a
 *  request moving at cycle @p at lands (-1 = nowhere), health-scored on
 *  the resilience tier and least-loaded-alive on the plain one. */
int64_t
place(const ClusterConfig& cfg, const std::vector<int64_t>& load,
      const std::vector<BreakerTimeline>& breakers,
      const std::vector<AutoscaleStep>& autoscale, dam::Cycle at,
      int64_t affinityOwner)
{
    if (!cfg.resilience.enabled)
        return leastLoadedAlive(load, cfg.faults, at);
    return pickResilientTarget(
        load, cfg.faults, breakers, autoscale, at, affinityOwner,
        cfg.resilience.remotePrefix.affinityLoadFactor,
        cfg.resilience.breaker.halfOpenLoadPenalty,
        cfg.bwScales.empty() ? nullptr : &cfg.bwScales);
}

/**
 * Health remap: a request whose replica is down at its arrival — or,
 * on the resilience tier, breaker-open or autoscale-parked for a fresh
 * placement — moves to place()'s pick, if any (a crash mid-flight is
 * still the engine's to discover). The resilience tier also keeps
 * sessions sticky to where their first turn landed, remaps included:
 * the warm cache is there, and cache affinity outranks parking. Off
 * that tier @p breakers and @p autoscale are empty.
 */
void
remapUnhealthy(const std::vector<Request>& reqs, const ClusterConfig& cfg,
               const std::vector<BreakerTimeline>& breakers,
               const std::vector<AutoscaleStep>& autoscale,
               std::vector<int64_t>& out)
{
    std::vector<int64_t> load(static_cast<size_t>(cfg.replicas), 0);
    std::unordered_map<uint64_t, size_t> sticky; // key -> owner
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto r = static_cast<size_t>(out[i]);
        const dam::Cycle at = reqs[i].arrival;
        const uint64_t key =
            cfg.resilience.enabled ? reqs[i].affinityKey : 0;
        const auto it = key != 0 ? sticky.find(key) : sticky.end();
        const bool owned = it != sticky.end();
        if (owned && it->second != r) {
            r = it->second;
            out[i] = static_cast<int64_t>(r);
        }
        const bool parked = static_cast<int64_t>(r) >=
                            autoscaleActiveAt(autoscale, at, cfg.replicas);
        const bool unhealthy =
            !cfg.faults.aliveAt(static_cast<int64_t>(r), at) ||
            (r < breakers.size() && breakers[r].openAt(at)) ||
            (parked && !owned);
        if (unhealthy) {
            const int64_t best = place(cfg, load, breakers, autoscale, at,
                                       /*affinityOwner=*/-1);
            if (best >= 0) {
                r = static_cast<size_t>(best);
                out[i] = best;
            }
        }
        if (key != 0)
            sticky[key] = r; // remaps move the session's home
        load[r] += reqs[i].promptLen + reqs[i].outputLen;
    }
}

/**
 * The per-replica cluster-instant lists the engines stamp onto their
 * traces: each breaker-state flip at its edge, named by the state after
 * the edge, and every autoscale step on replica 0's list (they are
 * cluster-scope, and one writer per sink means the coordinator cannot
 * stamp them). Both inputs are empty off the resilience tier.
 */
std::vector<std::vector<ClusterInstant>>
clusterInstants(const std::vector<BreakerTimeline>& breakers,
                const std::vector<AutoscaleStep>& autoscale, size_t R)
{
    std::vector<std::vector<ClusterInstant>> instants(R);
    for (size_t r = 0; r < breakers.size(); ++r) {
        std::vector<dam::Cycle> edges;
        for (const auto* windows :
             {&breakers[r].open, &breakers[r].halfOpen})
            for (const BreakerTimeline::Window& w : *windows) {
                edges.push_back(w.start);
                if (w.end != 0)
                    edges.push_back(w.end);
            }
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        for (dam::Cycle c : edges) {
            using CI = ClusterInstant;
            const BreakerState st = breakers[r].stateAt(c);
            const CI::Kind kind = st == BreakerState::Open ? CI::BreakerOpen
                                  : st == BreakerState::HalfOpen
                                      ? CI::BreakerHalfOpen
                                      : CI::BreakerClosed;
            instants[r].push_back({c, kind, static_cast<int64_t>(r)});
        }
    }
    for (const AutoscaleStep& s : autoscale)
        instants[0].push_back(
            {s.at, ClusterInstant::AutoscaleActive, s.active});
    for (std::vector<ClusterInstant>& list : instants)
        std::sort(list.begin(), list.end(),
                  [](const ClusterInstant& a, const ClusterInstant& b) {
                      return std::tie(a.at, a.kind) < std::tie(b.at, b.kind);
                  });
    return instants;
}

} // namespace

std::string
routeKindName(RouteKind k)
{
    switch (k) {
      case RouteKind::RoundRobin:
        return "round-robin";
      case RouteKind::LeastQueued:
        return "least-queued";
      case RouteKind::HashAffinity:
        return "hash-affinity";
      case RouteKind::PrefixAffinity:
        return "prefix-affinity";
    }
    return "?";
}

ServingCluster::ServingCluster(ClusterConfig cfg, const Policy& policy)
    : cfg_(std::move(cfg)), policy_(policy),
      prefillFpt_(static_cast<double>(prefillFlopsPerToken(
          cfg_.engine.model, cfg_.engine.numLayers > 0
                                 ? cfg_.engine.numLayers
                                 : cfg_.engine.model.numLayers)))
{
    STEP_ASSERT(cfg_.replicas >= 1, "cluster needs at least one replica");
    STEP_ASSERT(cfg_.threads >= 0, "negative worker-thread count");
    STEP_ASSERT(cfg_.bwScales.empty() ||
                    cfg_.bwScales.size() ==
                        static_cast<size_t>(cfg_.replicas),
                "bwScales must be empty or one entry per replica");
    for (double s : cfg_.bwScales)
        STEP_ASSERT(s > 0.0, "bwScales entries must be positive");
}

std::vector<BreakerTimeline>
ServingCluster::resilientBreakers(const std::vector<Request>& reqs) const
{
    const auto R = static_cast<size_t>(cfg_.replicas);
    std::vector<BreakerTimeline> out(R);
    if (cfg_.resilience.breakerSource == BreakerSource::Plan) {
        for (size_t r = 0; r < R; ++r)
            out[r] = computeBreakerTimeline(
                cfg_.faults.forReplica(static_cast<int64_t>(r)),
                cfg_.resilience.breaker);
        return out;
    }
    // Telemetry source: the observation pass (see the declaration) is
    // itself a deterministic cluster run — with the tier off, so it
    // cannot recurse — and its inferred timelines are pure data.
    ClusterConfig oc = cfg_;
    oc.resilience.enabled = false;
    oc.trace = obs::TraceOptions{};
    oc.metrics.enabled = true;
    oc.metrics.windowCycles = cfg_.resilience.health.windowCycles;
    std::vector<Request> copy(reqs);
    ServingCluster observer(std::move(oc), policy_);
    const ClusterResult watched = observer.run(copy);
    for (size_t r = 0; r < R; ++r)
        out[r] = inferBreakerTimeline(*watched.metrics[r],
                                      cfg_.resilience.health);
    return out;
}

std::vector<int64_t>
ServingCluster::routeTrace(const std::vector<Request>& reqs) const
{
    std::vector<BreakerTimeline> breakers;
    std::vector<AutoscaleStep> autoscale;
    return route(reqs, breakers, autoscale);
}

std::vector<int64_t>
ServingCluster::route(const std::vector<Request>& reqs,
                      std::vector<BreakerTimeline>& breakers,
                      std::vector<AutoscaleStep>& autoscale) const
{
    if (cfg_.resilience.enabled) {
        breakers = resilientBreakers(reqs);
        autoscale = computeAutoscaleTimeline(
            cfg_.resilience.autoscale, reqs, cfg_.faults, cfg_.replicas,
            prefillFpt_, cfg_.engine.totalComputeBw);
    }
    std::vector<int64_t> out = assignRoutes(reqs, cfg_, prefillFpt_);
    remapUnhealthy(reqs, cfg_, breakers, autoscale, out);
    return out;
}

/**
 * One run()'s failover state machine. The constructor is the pre-pass:
 * it decides the tier, routes the trace, and shards it into *pristine*
 * per-replica inputs. wave() simulates the listed replicas from fresh
 * working copies, so every (re-)run of a replica replays the identical
 * input. failover() turns the casualties no earlier wave decided into
 * new incarnations and names the replicas to re-simulate; it converges
 * because each (request, attempt) pair is decided exactly once and the
 * policy bounds attempts. finish() reconciles, reflects and merges.
 */
class ServingCluster::Run
{
  public:
    Run(const ServingCluster& cluster, std::vector<Request>& reqs)
        : cluster_(cluster), cfg_(cluster.cfg_), reqs_(reqs),
          R_(static_cast<size_t>(cfg_.replicas)),
          threads_(static_cast<size_t>(
              std::min(cfg_.threads > 0 ? cfg_.threads : cfg_.replicas,
                       cfg_.replicas))),
          handoff_(cfg_.resilience.migration), shard_(R_), meta_(R_),
          work_(R_), results_(R_),
          traces_(cfg_.trace.level != obs::TraceLevel::Off ? R_ : 0),
          mregs_(cfg_.metrics.enabled ? R_ : 0), load_(R_, 0)
    {
        // The tier is decided here, once: its timelines (via routing),
        // its rescheduling policy, its affinity owners and its drain.
        const std::vector<int64_t> assignment =
            cluster.route(reqs, breakers_, autoscale_);
        static const ExponentialBackoffRetry default_retry;
        retry_ = cfg_.retry ? cfg_.retry : &default_retry;
        const bool resilient = cfg_.resilience.enabled;
        if (resilient)
            retry_ = &handoff_;
        for (size_t i = 0; resilient && i < reqs.size(); ++i)
            if (reqs[i].affinityKey != 0) // last sight wins
                owners_[reqs[i].affinityKey] = assignment[i];

        // Seeds, fault timelines and instants are derived on the
        // coordinating thread before any worker exists — the one
        // ordering the global-seed contract requires (see rng.hh).
        std::vector<std::vector<ClusterInstant>> instants =
            clusterInstants(breakers_, autoscale_, R_);
        engines_.assign(R_, cfg_.engine);
        for (size_t r = 0; r < R_; ++r) {
            EngineConfig& ec = engines_[r];
            ec.seed = deriveSeed(static_cast<uint64_t>(r));
            ec.faults = cfg_.faults.forReplica(static_cast<int64_t>(r));
            if (!cfg_.bwScales.empty())
                ec.totalComputeBw = static_cast<int64_t>(std::llround(
                    static_cast<double>(cfg_.engine.totalComputeBw) *
                    cfg_.bwScales[r]));
            ec.clusterInstants = std::move(instants[r]);
            if (resilient) {
                // The drain fires on the edge that opens the breaker:
                // one detection signal for routing and migration.
                ec.drain.enabled = true;
                ec.drain.detectCycles = cfg_.resilience.breaker.detectCycles;
                ec.drain.openBelowFactor =
                    cfg_.resilience.breaker.openBelowFactor;
            }
        }
        for (size_t i = 0; i < reqs.size(); ++i) { // shards stay sorted
            auto r = static_cast<size_t>(assignment[i]);
            shard_[r].push_back(reqs[i]);
            meta_[r].push_back({i, reqs[i].attempt});
            load_[r] += reqs[i].promptLen + reqs[i].outputLen;
        }
    }

    /** Every replica: wave 0's list. */
    std::vector<size_t>
    all() const
    {
        std::vector<size_t> todo(R_);
        std::iota(todo.begin(), todo.end(), size_t{0});
        return todo;
    }

    /** Simulate the listed replicas on the worker pool. */
    void
    wave(const std::vector<size_t>& todo)
    {
        STEP_ASSERT(waves_ < 1024, "failover waves did not converge");
        ++waves_;
        // Fresh sinks and registries (exports describe final timelines),
        // created before the workers spawn: replica r's worker is their
        // only writer, and exporting in index order erases the threads.
        for (size_t r : todo) {
            work_[r] = shard_[r];
            if (!traces_.empty())
                traces_[r] = std::make_unique<obs::TraceSink>(cfg_.trace);
            if (!mregs_.empty())
                mregs_[r] =
                    std::make_unique<obs::MetricsRegistry>(cfg_.metrics);
        }
        // Replica todo[i] runs on worker i mod T (worker 0 is this
        // thread); the host thread never changes what a (shared-nothing)
        // replica computes.
        const size_t T = std::min(threads_, todo.size());
        std::vector<std::exception_ptr> errors(std::max<size_t>(1, T));
        auto worker = [&](size_t t) {
            try {
                for (size_t i = t; i < todo.size(); i += T)
                    runReplica(todo[i]);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(T);
        for (size_t t = 1; t < T; ++t)
            pool.emplace_back(worker, t);
        worker(0);
        for (std::thread& th : pool)
            th.join();
        for (std::exception_ptr& e : errors)
            if (e)
                std::rethrow_exception(e);
    }

    /**
     * Offer the undecided casualties to the rescheduling policy in
     * (fail-cycle, request, attempt) order, append the granted ones to
     * their targets' shards, and return the changed replicas.
     */
    std::vector<size_t>
    failover()
    {
        std::vector<char> dirty(R_, 0);
        for (const Casualty& f : casualties()) {
            decided_.insert({f.orig, f.attempt});
            const int64_t tgt = handOff(f);
            if (tgt >= 0)
                dirty[static_cast<size_t>(tgt)] = 1;
        }
        std::vector<size_t> todo;
        for (size_t r = 0; r < R_; ++r)
            if (dirty[r]) {
                resortShard(r);
                todo.push_back(r);
            }
        return todo;
    }

    ClusterResult
    finish()
    {
        // Every original request reports its *final* incarnation
        // (highest attempt), with the original arrival restored so the
        // caller's trace stays sorted.
        std::vector<Final> fin(reqs_.size());
        for (size_t r = 0; r < R_; ++r)
            for (size_t k = 0; k < work_[r].size(); ++k) {
                const Incarnation& m = meta_[r][k];
                if (m.attempt > fin[m.orig].attempt)
                    fin[m.orig] = {m.attempt, r, k};
            }
        reconcile(fin);
        for (size_t i = 0; i < reqs_.size(); ++i) {
            const dam::Cycle arrival = reqs_[i].arrival;
            reqs_[i] = work_[fin[i].replica][fin[i].slot];
            reqs_[i].arrival = arrival;
        }

        // Merge in replica-index order: the aggregate depends only on
        // the per-replica results, never on worker scheduling.
        ClusterResult out;
        out.replicas = std::move(results_);
        out.traces = std::move(traces_);
        out.metrics = std::move(mregs_);
        out.breakers = std::move(breakers_);
        out.retriesIssued = retriesIssued_;
        out.migrationsIssued = migrationsIssued_;
        out.autoscale = std::move(autoscale_);
        std::vector<ServingSummary> parts;
        parts.reserve(R_);
        for (const ReplicaResult& rr : out.replicas) {
            parts.push_back(rr.result.summary);
            out.timeline.merge(rr.result.timeline);
            out.totalIterations += rr.result.iterations;
        }
        out.aggregate = mergeSummaries(parts);
        // Heterogeneous fleets provision sum(scale_r * bw) FLOPs/cycle;
        // the unscaled expression is kept verbatim so scale-less runs
        // stay bit-identical (no float round-trip).
        int64_t provisioned = cfg_.engine.totalComputeBw * cfg_.replicas;
        if (!cfg_.bwScales.empty()) {
            double cap = 0.0;
            for (size_t r = 0; r < R_; ++r)
                cap += static_cast<double>(cfg_.engine.totalComputeBw) *
                       cfg_.bwScales[r];
            provisioned = static_cast<int64_t>(std::llround(cap));
        }
        out.aggregate.computeUtilization =
            out.timeline.computeUtilization(provisioned);
        // The aggregate's windowed-SLO view comes from the replica-
        // index-order merge of the registries (mergeSummaries leaves
        // the window fields zero).
        if (!out.metrics.empty()) {
            auto merged =
                std::make_unique<obs::MetricsRegistry>(cfg_.metrics);
            for (const auto& m : out.metrics)
                merged->mergeFrom(*m);
            applySloWindows(out.aggregate, *merged, cfg_.engine.slo);
            out.mergedMetrics = std::move(merged);
        }
        return out;
    }

  private:
    /** A shard slot: the caller's request and which incarnation of it
     *  (0 = original submission). */
    struct Incarnation
    {
        size_t orig;
        int64_t attempt;
    };
    /** A failed or drained incarnation awaiting its failover decision. */
    struct Casualty
    {
        dam::Cycle at;
        size_t orig;
        int64_t attempt;
        size_t replica, slot;
    };
    /** Where a request's final (highest-attempt) incarnation ran. */
    struct Final
    {
        int64_t attempt = -1;
        size_t replica = 0, slot = 0;
    };

    void
    runReplica(size_t r)
    {
        ServingEngine engine(engines_[r], cluster_.policy_);
        if (!traces_.empty())
            engine.attachTrace(traces_[r].get());
        if (!mregs_.empty())
            engine.attachMetrics(mregs_[r].get());
        ReplicaResult& out = results_[r];
        out.replica = static_cast<int64_t>(r);
        out.seed = engines_[r].seed;
        out.assignedRequests = static_cast<int64_t>(shard_[r].size());
        out.result = engine.run(work_[r]);
    }

    std::vector<Casualty>
    casualties() const
    {
        std::vector<Casualty> out;
        for (size_t r = 0; r < R_; ++r)
            for (size_t k = 0; k < work_[r].size(); ++k) {
                const Request& q = work_[r][k];
                const Incarnation& m = meta_[r][k];
                if ((q.state == ReqState::Failed ||
                     q.state == ReqState::Migrated) &&
                    !decided_.count({m.orig, m.attempt}))
                    out.push_back({q.finishedAt, m.orig, m.attempt, r, k});
            }
        std::sort(out.begin(), out.end(),
                  [](const Casualty& a, const Casualty& b) {
                      return std::tie(a.at, a.orig, a.attempt) <
                             std::tie(b.at, b.orig, b.attempt);
                  });
        return out;
    }

    /** Reschedule, place and append @p f's next incarnation; returns
     *  its target replica, or -1 when the failure stands. */
    int64_t
    handOff(const Casualty& f)
    {
        const Request& src = work_[f.replica][f.slot];
        const std::optional<dam::Cycle> re =
            retry_->reschedule(src, f.attempt + 1, f.at);
        if (!re)
            return -1; // policy says permanent (attempts / deadline)
        if (*re < f.at)
            stepFatal("retry policy re-arrival at cycle "
                      << *re << " precedes the failure of request "
                      << src.id << " (attempt " << f.attempt + 1
                      << ") at cycle " << f.at);
        const Request& orig = reqs_[f.orig]; // pristine: never mutated
        const auto it = owners_.find(orig.affinityKey);
        const int64_t owner = it != owners_.end() ? it->second : -1;
        // With no replica able to take it at the re-arrival cycle the
        // request could only be refused again: the failure stands.
        const int64_t best =
            place(cfg_, load_, breakers_, autoscale_, *re, owner);
        if (best < 0)
            return -1;
        const auto tgt = static_cast<size_t>(best);
        Request inc = orig;
        inc.arrival = *re;
        inc.attempt = f.attempt + 1;
        inc.remoteKvTokens = carriedKvTokens(src);
        fetchRemotePrefix(inc, owner, tgt);
        shard_[tgt].push_back(inc);
        meta_[tgt].push_back({f.orig, inc.attempt});
        load_[tgt] += inc.promptLen + inc.outputLen;
        ++(src.state == ReqState::Migrated ? migrationsIssued_
                                           : retriesIssued_);
        return best;
    }

    /**
     * Cross-replica prefix fetch: placed off its affinity owner, the
     * incarnation may pull its warm prefix from the owner's cache if an
     * earlier turn finished there before the handoff lands and after the
     * owner's last crash. Block-granular; it pays a lookup RTT plus
     * per-token transfer for what the handoff did not already carry.
     * The reference is the owner's currently-simulated timeline.
     */
    void
    fetchRemotePrefix(Request& inc, int64_t owner, size_t tgt) const
    {
        const RemotePrefixConfig& rp = cfg_.resilience.remotePrefix;
        if (!rp.enabled || owner < 0 || static_cast<size_t>(owner) == tgt)
            return;
        const auto ow = static_cast<size_t>(owner);
        const dam::Cycle at = inc.arrival;
        dam::Cycle wiped = ReplicaFaultTimeline::kNoEvent; // last crash
        for (const auto& d : engines_[ow].faults.downs)
            if (d.failAt <= at && (wiped == ReplicaFaultTimeline::kNoEvent ||
                                   d.failAt > wiped))
                wiped = d.failAt;
        int64_t credit = 0;
        for (const Request& q : work_[ow]) {
            if (q.sessionId != inc.sessionId || q.turn >= inc.turn ||
                q.state != ReqState::Finished || q.finishedAt > at ||
                (wiped != ReplicaFaultTimeline::kNoEvent &&
                 q.finishedAt <= wiped))
                continue;
            const auto blocks = static_cast<int64_t>(q.blockHashes.size());
            credit = std::max(credit, std::min(blocks * kPrefixBlockTokens,
                                               inc.promptLen - 1));
        }
        const int64_t kv = inc.remoteKvTokens;
        if (credit <= kv)
            return;
        const dam::Cycle fetched =
            at + rp.lookupCycles +
            static_cast<dam::Cycle>(credit - kv) * rp.perTokenFetchCycles;
        if (inc.deadlineAt == 0 || fetched <= inc.deadlineAt) {
            inc.arrival = fetched;
            inc.remoteKvTokens = credit;
        }
    }

    /** Re-sort shard @p r by arrival, in lockstep with its meta; the
     *  full key keeps the order independent of the append sequence. */
    void
    resortShard(size_t r)
    {
        std::vector<Request>& shard = shard_[r];
        std::vector<Incarnation>& meta = meta_[r];
        std::vector<size_t> idx(shard.size());
        std::iota(idx.begin(), idx.end(), size_t{0});
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return std::tie(shard[a].arrival, shard[a].id, meta[a].attempt) <
                   std::tie(shard[b].arrival, shard[b].id, meta[b].attempt);
        });
        std::vector<Request> s2;
        std::vector<Incarnation> m2;
        s2.reserve(idx.size());
        m2.reserve(idx.size());
        for (size_t k : idx) {
            s2.push_back(std::move(shard[k]));
            m2.push_back(meta[k]);
        }
        shard = std::move(s2);
        meta = std::move(m2);
    }

    /**
     * Recompute every replica's summary from its *final* timeline (a
     * later wave's arrivals can flip a superseded incarnation's fate, so
     * the per-wave issue log is no accounting source), reinterpreting
     * superseded slots:
     *   - Failed/Migrated with a successor: transparent handoff
     *     (retried resp. migrated, outside availability);
     *   - Finished/Shed with a successor: phantom duplicate — the source
     *     would have stopped serving the moment the handoff was issued,
     *     so the slot is dropped and the successor carries the outcome.
     * A *final* incarnation still Migrated was denied a target (attempt
     * cap, deadline, nothing healthy): a loss, converted to Failed so
     * availability closes over finished/failed/shed. Without failover
     * every incarnation is final and the recompute changes nothing.
     */
    void
    reconcile(const std::vector<Final>& fin)
    {
        for (size_t r = 0; r < R_; ++r) {
            int64_t retried = 0;
            std::vector<Request> view;
            view.reserve(work_[r].size());
            for (size_t k = 0; k < work_[r].size(); ++k) {
                Request& q = work_[r][k];
                const Incarnation& m = meta_[r][k];
                if (m.attempt < fin[m.orig].attempt) {
                    if (q.state == ReqState::Failed)
                        ++retried; // counted as failover, not failure
                    else if (q.state == ReqState::Migrated)
                        view.push_back(q);
                    continue;
                }
                if (q.state == ReqState::Migrated)
                    q.state = ReqState::Failed;
                view.push_back(q);
            }
            ServingSummary& s = results_[r].result.summary;
            resummarize(s, view, cfg_.engine.slo);
            s.retriedRequests = retried;
        }
    }

    const ServingCluster& cluster_;
    const ClusterConfig& cfg_;
    std::vector<Request>& reqs_;
    const size_t R_;
    const size_t threads_;

    std::vector<BreakerTimeline> breakers_;
    std::vector<AutoscaleStep> autoscale_;
    MigrationHandoff handoff_;
    const RetryPolicy* retry_ = nullptr;
    /** Affinity key -> replica with the warm cache; empty off-tier. */
    std::unordered_map<uint64_t, int64_t> owners_;
    /** Per replica: seed, fault timeline, bandwidth, instants, drain. */
    std::vector<EngineConfig> engines_;

    std::vector<std::vector<Request>> shard_;
    std::vector<std::vector<Incarnation>> meta_;
    std::vector<std::vector<Request>> work_;
    std::vector<ReplicaResult> results_;
    std::vector<std::unique_ptr<obs::TraceSink>> traces_;
    std::vector<std::unique_ptr<obs::MetricsRegistry>> mregs_;

    std::set<std::pair<size_t, int64_t>> decided_;
    std::vector<int64_t> load_;
    int64_t retriesIssued_ = 0;
    int64_t migrationsIssued_ = 0;
    int waves_ = 0;
};

ClusterResult
ServingCluster::run(std::vector<Request>& reqs)
{
    STEP_ASSERT(std::is_sorted(reqs.begin(), reqs.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival < b.arrival;
                               }),
                "request trace must be sorted by arrival");
    Run r(*this, reqs);
    for (std::vector<size_t> todo = r.all(); !todo.empty();
         todo = r.failover())
        r.wave(todo);
    return r.finish();
}

} // namespace step::runtime
