#include "runtime/cluster.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
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

double
ServingCluster::bwScaleAt(size_t r) const
{
    return cfg_.bwScales.empty() ? 1.0 : cfg_.bwScales[r];
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
    // Telemetry source: observation pass. Run the *plain fault tier* on
    // a copy of the trace — resilience machinery off (so the pass
    // cannot recurse), tracing off, metrics forced on at the health
    // monitor's window width — and infer each replica's timeline from
    // its windowed failure counts and TTFT p95. The pass is itself a
    // deterministic cluster run, so the inferred timelines are pure
    // reproducible data, exactly like the plan-derived ones.
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
    if (!cfg_.resilience.enabled)
        return routeTraceImpl(reqs, {}, {});
    return routeTraceImpl(reqs, resilientBreakers(reqs),
                          autoscaleTimeline(reqs));
}

std::vector<AutoscaleStep>
ServingCluster::autoscaleTimeline(const std::vector<Request>& reqs) const
{
    return computeAutoscaleTimeline(cfg_.resilience.autoscale, reqs,
                                    cfg_.faults, cfg_.replicas, prefillFpt_,
                                    cfg_.engine.totalComputeBw);
}

std::vector<int64_t>
ServingCluster::routeTraceImpl(
    const std::vector<Request>& reqs,
    const std::vector<BreakerTimeline>& breakers,
    const std::vector<AutoscaleStep>& autoscale) const
{
    const auto R = static_cast<size_t>(cfg_.replicas);
    std::vector<int64_t> out(reqs.size(), 0);

    switch (cfg_.routing) {
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

      case RouteKind::LeastQueued: {
        BatcherConfig bc = cfg_.engine.batcher;
        if (bc.kvBytesPerToken == 0)
            bc.kvBytesPerToken = cfg_.engine.model.kvBytesPerToken();
        const double bw =
            static_cast<double>(cfg_.engine.totalComputeBw);

        std::vector<ShadowReplica> shadows;
        shadows.reserve(R);
        for (size_t r = 0; r < R; ++r)
            shadows.emplace_back(bc);

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
            // Heterogeneous fleet: a scaled replica serves its queue at
            // its own rate, so fast replicas drain sooner and attract
            // more placements — the scale shifts load at routing time.
            const double rbw = bw * bwScaleAt(pick);
            s.owned.push_back(q);
            Request* copy = &s.owned.back();
            copy->state = ReqState::Queued;
            copy->prefilledTokens = 0;
            copy->prefillFlopsDone = 0.0;
            copy->generated = 0;
            copy->firstTokenAt = 0;
            copy->finishedAt = 0;
            // The shadow batcher has no prefix cache; reserve worst case
            // and drop the (unconsulted) block hashes the copy dragged
            // in — multi-turn requests carry dozens of them.
            copy->cachedPrefixTokens = 0;
            copy->blockHashes = {};
            s.batcher.enqueue(copy);
            // Per-token service proxy: the analytic prefill cost stands
            // in for both phases — the router only needs relative load,
            // not absolute latency.
            auto service = static_cast<dam::Cycle>(std::ceil(
                static_cast<double>(q.promptLen + q.outputLen) *
                prefillFpt_ / rbw));
            service = std::max<dam::Cycle>(1, service);
            s.busyUntil = std::max(q.arrival, s.busyUntil) + service;
            s.inflight.push_back({copy, s.busyUntil});
            out[i] = static_cast<int64_t>(pick);
        }
        break;
      }
    }

    // Health-scored remap (resilience tier): beyond liveness, the
    // router consults the precomputed breaker timelines and the
    // autoscaler's step timeline. A request whose chosen replica is
    // down or breaker-open at arrival moves to the health-scored best
    // candidate; autoscale-parked replicas stop receiving *fresh*
    // placements, but sticky sessions they already own stay (cache
    // affinity outranks parking). All inputs are pure pre-computed
    // data, so the remap stays a deterministic pre-pass.
    if (cfg_.resilience.enabled) {
        std::vector<int64_t> load(R, 0);
        std::unordered_map<uint64_t, size_t> sticky; // key -> owner
        for (size_t i = 0; i < reqs.size(); ++i) {
            auto r = static_cast<size_t>(out[i]);
            const dam::Cycle at = reqs[i].arrival;
            const uint64_t key = reqs[i].affinityKey;
            // A session lives where its first turn actually landed —
            // if that was itself remapped, later turns follow it (the
            // warm cache is there, not at the routing pre-pass's pick).
            const auto it = key != 0 ? sticky.find(key) : sticky.end();
            const bool owned = it != sticky.end();
            if (owned && it->second != r) {
                r = it->second;
                out[i] = static_cast<int64_t>(r);
            }
            const bool parked =
                static_cast<int64_t>(r) >=
                autoscaleActiveAt(autoscale, at, cfg_.replicas);
            const bool unhealthy =
                !cfg_.faults.aliveAt(static_cast<int64_t>(r), at) ||
                breakers[r].openAt(at) || (parked && !owned);
            if (unhealthy) {
                const int64_t best = pickResilientTarget(
                    load, cfg_.faults, breakers, autoscale, at,
                    /*affinityOwner=*/-1,
                    cfg_.resilience.remotePrefix.affinityLoadFactor,
                    cfg_.resilience.breaker.halfOpenLoadPenalty,
                    cfg_.bwScales.empty() ? nullptr : &cfg_.bwScales);
                if (best >= 0) {
                    r = static_cast<size_t>(best);
                    out[i] = best;
                }
            }
            if (key != 0)
                sticky[key] = r; // remaps move the session's home
            load[r] += reqs[i].promptLen + reqs[i].outputLen;
        }
        return out;
    }

    // Fault-aware remap: a health-checked router never sends a request
    // into a replica it knows is down at the arrival cycle. Such
    // requests move to the least-loaded alive replica; if *no* replica
    // is alive the assignment stands and the dead replica refuses the
    // request on arrival (a crash mid-flight is still the engine's to
    // discover — the router only sees health at admission time).
    if (!cfg_.faults.empty()) {
        std::vector<int64_t> load(R, 0);
        for (size_t i = 0; i < reqs.size(); ++i) {
            auto r = static_cast<size_t>(out[i]);
            if (!cfg_.faults.aliveAt(static_cast<int64_t>(r),
                                     reqs[i].arrival)) {
                const int64_t best =
                    leastLoadedAlive(load, cfg_.faults, reqs[i].arrival);
                if (best >= 0) {
                    r = static_cast<size_t>(best);
                    out[i] = best;
                }
            }
            load[r] += reqs[i].promptLen + reqs[i].outputLen;
        }
    }
    return out;
}

ClusterResult
ServingCluster::run(std::vector<Request>& reqs)
{
    STEP_ASSERT(std::is_sorted(reqs.begin(), reqs.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival < b.arrival;
                               }),
                "request trace must be sorted by arrival");

    const auto R = static_cast<size_t>(cfg_.replicas);
    // Breaker and autoscale timelines come first: routing consults
    // them, and under BreakerSource::Telemetry deriving the breakers
    // runs a whole observation pass — both are computed once here and
    // shared with failover placement.
    const bool resilient = cfg_.resilience.enabled;
    std::vector<BreakerTimeline> breakers;
    std::vector<AutoscaleStep> autoscale;
    if (resilient) {
        breakers = resilientBreakers(reqs);
        autoscale = autoscaleTimeline(reqs);
    }
    const std::vector<int64_t> assignment =
        routeTraceImpl(reqs, breakers, autoscale);
    const bool have_faults = !cfg_.faults.empty();

    // Per-replica fault timelines and seeds, derived on the coordinating
    // thread before any worker exists — the one ordering the global-seed
    // contract requires (see rng.hh).
    std::vector<ReplicaFaultTimeline> plans(R);
    if (have_faults)
        for (size_t r = 0; r < R; ++r)
            plans[r] = cfg_.faults.forReplica(static_cast<int64_t>(r));
    std::vector<uint64_t> seeds(R);
    for (size_t r = 0; r < R; ++r)
        seeds[r] = deriveSeed(static_cast<uint64_t>(r));

    // Resilience pre-pass: the per-replica cluster-instant lists the
    // engines will stamp onto their traces (breaker flips, autoscale
    // steps) — pure data derived before any worker exists, like the
    // fault plans and seeds above.
    std::vector<std::vector<ClusterInstant>> instants(R);
    std::unordered_map<uint64_t, int64_t> affinity_owner;
    if (resilient) {
        for (size_t r = 0; r < R; ++r) {
            // Each breaker-state flip becomes one instant at its edge;
            // the state *after* the edge names the instant.
            std::vector<dam::Cycle> edges;
            for (const auto* windows :
                 {&breakers[r].open, &breakers[r].halfOpen})
                for (const BreakerTimeline::Window& w : *windows) {
                    edges.push_back(w.start);
                    if (w.end != 0)
                        edges.push_back(w.end);
                }
            std::sort(edges.begin(), edges.end());
            edges.erase(std::unique(edges.begin(), edges.end()),
                        edges.end());
            for (dam::Cycle c : edges) {
                ClusterInstant ci;
                ci.at = c;
                ci.value = static_cast<int64_t>(r);
                switch (breakers[r].stateAt(c)) {
                  case BreakerState::Open:
                    ci.kind = ClusterInstant::BreakerOpen;
                    break;
                  case BreakerState::HalfOpen:
                    ci.kind = ClusterInstant::BreakerHalfOpen;
                    break;
                  case BreakerState::Closed:
                    ci.kind = ClusterInstant::BreakerClosed;
                    break;
                }
                instants[r].push_back(ci);
            }
        }
        // Autoscale steps are cluster-scope; replica 0's trace carries
        // them (one writer per sink — the coordinator cannot).
        for (const AutoscaleStep& s : autoscale)
            instants[0].push_back(
                {s.at, ClusterInstant::AutoscaleActive, s.active});
        for (size_t r = 0; r < R; ++r)
            std::sort(instants[r].begin(), instants[r].end(),
                      [](const ClusterInstant& a,
                         const ClusterInstant& b) {
                          if (a.at != b.at)
                              return a.at < b.at;
                          return a.kind < b.kind;
                      });
        // Last sight wins: where the session's cache is warm *now*
        // (the health-scored remap may have moved the session's home).
        for (size_t i = 0; i < reqs.size(); ++i)
            if (reqs[i].affinityKey != 0)
                affinity_owner[reqs[i].affinityKey] = assignment[i];
    }

    // Shard the trace into *pristine* per-replica inputs. Each shard
    // keeps trace order, so it starts sorted by arrival; meta[] maps
    // shard slots back to the caller's vector and records which retry
    // incarnation the slot is. Failover waves append incarnations here
    // and re-simulate from a fresh working copy, so every (re-)run of a
    // replica replays the identical deterministic input.
    struct Incarnation
    {
        size_t orig;     ///< index into the caller's trace
        int64_t attempt; ///< 0 = original submission
    };
    std::vector<std::vector<Request>> shard(R);
    std::vector<std::vector<Incarnation>> meta(R);
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto r = static_cast<size_t>(assignment[i]);
        shard[r].push_back(reqs[i]);
        meta[r].push_back({i, reqs[i].attempt});
    }

    int64_t threads = cfg_.threads > 0 ? cfg_.threads : cfg_.replicas;
    threads = std::min(threads, cfg_.replicas);

    std::vector<ReplicaResult> results(R);
    std::vector<std::vector<Request>> work(R);

    // One sink per replica; a re-simulated replica gets a fresh sink so
    // the exported trace describes its final timeline only. Sinks are
    // (re)created before a wave's workers spawn: replica r's worker is
    // its sink's only writer, so recording needs no locks, and exporting
    // in index order erases the thread count from the output bytes.
    std::vector<std::unique_ptr<obs::TraceSink>> traces;
    if (cfg_.trace.level != obs::TraceLevel::Off)
        traces.resize(R);

    // One metrics registry per replica, same single-writer discipline
    // as the trace sinks; re-simulated replicas get a fresh registry so
    // the exported metrics describe the final timeline only.
    std::vector<std::unique_ptr<obs::MetricsRegistry>> mregs;
    if (cfg_.metrics.enabled)
        mregs.resize(R);

    auto run_replica = [&](size_t r) {
        EngineConfig ec = cfg_.engine;
        ec.seed = seeds[r];
        ec.faults = plans[r];
        if (!cfg_.bwScales.empty())
            ec.totalComputeBw = static_cast<int64_t>(std::llround(
                static_cast<double>(cfg_.engine.totalComputeBw) *
                cfg_.bwScales[r]));
        if (resilient) {
            // The drain fires on the same edge that opens the breaker:
            // detection is one signal, shared by routing and migration.
            ec.drain.enabled = true;
            ec.drain.detectCycles = cfg_.resilience.breaker.detectCycles;
            ec.drain.openBelowFactor =
                cfg_.resilience.breaker.openBelowFactor;
            ec.clusterInstants = instants[r];
        }
        ServingEngine engine(ec, policy_);
        if (!traces.empty())
            engine.attachTrace(traces[r].get());
        if (!mregs.empty())
            engine.attachMetrics(mregs[r].get());
        ReplicaResult& out = results[r];
        out.replica = static_cast<int64_t>(r);
        out.seed = seeds[r];
        out.assignedRequests = static_cast<int64_t>(shard[r].size());
        out.result = engine.run(work[r]);
    };
    // Simulate the listed replicas on the worker pool. Replica todo[i]
    // runs on worker i mod T; which thread hosts a replica never changes
    // what the replica computes (shared-nothing), only where.
    auto run_wave = [&](const std::vector<size_t>& todo) {
        for (size_t r : todo) {
            work[r] = shard[r];
            if (!traces.empty())
                traces[r] = std::make_unique<obs::TraceSink>(cfg_.trace);
            if (!mregs.empty())
                mregs[r] =
                    std::make_unique<obs::MetricsRegistry>(cfg_.metrics);
        }
        const size_t T = static_cast<size_t>(std::min<int64_t>(
            threads, static_cast<int64_t>(todo.size())));
        std::vector<std::exception_ptr> errors(std::max<size_t>(1, T));
        auto worker = [&](size_t t) {
            try {
                for (size_t i = t; i < todo.size(); i += T)
                    run_replica(todo[i]);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        };
        if (T <= 1) {
            worker(0);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(T);
            for (size_t t = 0; t < T; ++t)
                pool.emplace_back(worker, t);
            for (std::thread& th : pool)
                th.join();
        }
        for (std::exception_ptr& e : errors)
            if (e)
                std::rethrow_exception(e);
    };

    // ---- failover waves ----------------------------------------------
    // Wave 0 simulates every replica. Each later wave collects the crash
    // casualties no earlier wave decided, offers them to the retry
    // policy in (fail-cycle, request, attempt) order, appends granted
    // retries to the least-loaded replica alive at the re-arrival, and
    // re-simulates only the changed replicas. Converges because each
    // (request, attempt) pair is decided exactly once and the policy
    // bounds attempts.
    static const ExponentialBackoffRetry default_retry;
    const RetryPolicy* retry = cfg_.retry ? cfg_.retry : &default_retry;
    std::set<std::pair<size_t, int64_t>> decided;
    std::vector<int64_t> load(R, 0);
    for (size_t i = 0; i < reqs.size(); ++i)
        load[static_cast<size_t>(assignment[i])] +=
            reqs[i].promptLen + reqs[i].outputLen;
    int64_t retries_issued = 0;
    int64_t migrations_issued = 0;
    // Last crash of replica r at or before cycle c (kNoEvent = none):
    // the owner's cache holds nothing inserted before it.
    auto last_crash_before = [&](size_t r, dam::Cycle c) -> dam::Cycle {
        dam::Cycle last = ReplicaFaultTimeline::kNoEvent;
        for (const auto& d : plans[r].downs)
            if (d.failAt <= c &&
                (last == ReplicaFaultTimeline::kNoEvent ||
                 d.failAt > last))
                last = d.failAt;
        return last;
    };

    std::vector<size_t> todo(R);
    std::iota(todo.begin(), todo.end(), size_t{0});
    for (int wave = 0; !todo.empty(); ++wave) {
        STEP_ASSERT(wave < 1024, "failover waves did not converge");
        run_wave(todo);
        todo.clear();
        if (!have_faults)
            break;

        struct FailRec
        {
            dam::Cycle at;
            size_t orig;
            int64_t attempt;
            size_t replica, slot;
            bool migrated; ///< left via slowdown drain, KV intact
        };
        std::vector<FailRec> fails;
        for (size_t r = 0; r < R; ++r)
            for (size_t k = 0; k < work[r].size(); ++k) {
                const Request& q = work[r][k];
                // Migrated only appears with the resilience drain on,
                // so the fault-only path scans exactly as before.
                if (q.state != ReqState::Failed &&
                    q.state != ReqState::Migrated)
                    continue;
                const Incarnation& m = meta[r][k];
                if (decided.count({m.orig, m.attempt}))
                    continue;
                fails.push_back({q.finishedAt, m.orig, m.attempt, r, k,
                                 q.state == ReqState::Migrated});
            }
        std::sort(fails.begin(), fails.end(),
                  [](const FailRec& a, const FailRec& b) {
                      if (a.at != b.at)
                          return a.at < b.at;
                      if (a.orig != b.orig)
                          return a.orig < b.orig;
                      return a.attempt < b.attempt;
                  });

        std::vector<char> dirty(R, 0);
        for (const FailRec& f : fails) {
            const std::pair<size_t, int64_t> key{f.orig, f.attempt};
            decided.insert(key);
            const Request& src = work[f.replica][f.slot];
            std::optional<dam::Cycle> re;
            int64_t kv = 0; // KV tokens the handoff carries
            if (!resilient) {
                re = retry->reschedule(src, f.attempt + 1, f.at);
            } else if (f.attempt + 1 <=
                       cfg_.resilience.migration.maxMigrations) {
                // Migration cost model: fixed handshake, plus the KV
                // shard for a soft drain (a hard-down source lost its
                // KV — crash casualties re-prefill from scratch).
                const MigrationConfig& mc = cfg_.resilience.migration;
                kv = f.migrated ? src.prefilledTokens : 0;
                const dam::Cycle rearrive =
                    f.at + std::max<dam::Cycle>(
                               1, mc.fixedHandoffCycles +
                                      static_cast<dam::Cycle>(kv) *
                                          mc.perTokenTransferCycles);
                // Same contract as RetryPolicy: never hand off work
                // that can only miss its deadline.
                if (src.deadlineAt == 0 || rearrive <= src.deadlineAt)
                    re = rearrive;
            }
            if (!re)
                continue; // policy says permanent (attempts / deadline)
            int64_t owner = -1;
            if (resilient && reqs[f.orig].affinityKey != 0) {
                const auto it =
                    affinity_owner.find(reqs[f.orig].affinityKey);
                if (it != affinity_owner.end())
                    owner = it->second;
            }
            int64_t best = -1;
            if (resilient) {
                best = pickResilientTarget(
                    load, cfg_.faults, breakers, autoscale, *re, owner,
                    cfg_.resilience.remotePrefix.affinityLoadFactor,
                    cfg_.resilience.breaker.halfOpenLoadPenalty,
                    cfg_.bwScales.empty() ? nullptr : &cfg_.bwScales);
            } else {
                // With no replica alive at the re-arrival cycle the
                // retry could only be refused again: the failure stands.
                best = leastLoadedAlive(load, cfg_.faults, *re);
            }
            if (best < 0)
                continue;
            const auto tgt = static_cast<size_t>(best);
            Request inc = reqs[f.orig]; // pristine: waves never mutate
            inc.arrival = *re;
            inc.attempt = f.attempt + 1;
            if (resilient) {
                // Cross-replica prefix fetch: placed off its affinity
                // owner, the incarnation may still pull its warm prefix
                // from the owner's cache — if an earlier turn of the
                // session finished there before the handoff lands and
                // after the owner's last crash (the cache died with
                // it). Block-granular; the fetch pays a lookup RTT plus
                // per-token transfer for what the migration did not
                // already carry. The owner's currently-simulated
                // timeline is the reference — deterministic, since
                // waves run sequentially on this thread.
                const RemotePrefixConfig& rp =
                    cfg_.resilience.remotePrefix;
                if (rp.enabled && owner >= 0 &&
                    static_cast<size_t>(owner) != tgt) {
                    const auto ow = static_cast<size_t>(owner);
                    const dam::Cycle wiped = last_crash_before(ow, *re);
                    int64_t credit = 0;
                    for (const Request& q : work[ow]) {
                        if (q.sessionId != inc.sessionId ||
                            q.turn >= inc.turn ||
                            q.state != ReqState::Finished)
                            continue;
                        if (q.finishedAt > *re)
                            continue;
                        if (wiped != ReplicaFaultTimeline::kNoEvent &&
                            q.finishedAt <= wiped)
                            continue;
                        const int64_t blocks = static_cast<int64_t>(
                            q.blockHashes.size());
                        credit = std::max(
                            credit,
                            std::min(blocks * kPrefixBlockTokens,
                                     inc.promptLen - 1));
                    }
                    if (credit > kv) {
                        const dam::Cycle fetched =
                            *re + rp.lookupCycles +
                            static_cast<dam::Cycle>(credit - kv) *
                                rp.perTokenFetchCycles;
                        if (inc.deadlineAt == 0 ||
                            fetched <= inc.deadlineAt) {
                            inc.arrival = fetched;
                            kv = credit;
                        }
                    }
                }
                inc.remoteKvTokens = kv;
            }
            shard[tgt].push_back(inc);
            meta[tgt].push_back({f.orig, inc.attempt});
            load[tgt] += inc.promptLen + inc.outputLen;
            if (f.migrated)
                ++migrations_issued;
            else
                ++retries_issued;
            dirty[tgt] = 1;
        }

        // Re-sort the changed shards by arrival (lockstep with meta;
        // full key keeps the order independent of the append sequence).
        for (size_t r = 0; r < R; ++r) {
            if (!dirty[r])
                continue;
            std::vector<size_t> idx(shard[r].size());
            std::iota(idx.begin(), idx.end(), size_t{0});
            std::sort(idx.begin(), idx.end(),
                      [&](size_t a, size_t b) {
                          const Request& qa = shard[r][a];
                          const Request& qb = shard[r][b];
                          if (qa.arrival != qb.arrival)
                              return qa.arrival < qb.arrival;
                          if (qa.id != qb.id)
                              return qa.id < qb.id;
                          return meta[r][a].attempt < meta[r][b].attempt;
                      });
            std::vector<Request> s2;
            std::vector<Incarnation> m2;
            s2.reserve(idx.size());
            m2.reserve(idx.size());
            for (size_t k : idx) {
                s2.push_back(shard[r][k]);
                m2.push_back(meta[r][k]);
            }
            shard[r] = std::move(s2);
            meta[r] = std::move(m2);
            todo.push_back(r);
        }
    }

    // ---- reflect outcomes back to the caller -------------------------
    // Every original request reports its *final* incarnation (highest
    // attempt), with the original arrival restored so the caller's trace
    // stays sorted; superseded incarnations must all have failed (the
    // retry bookkeeping invariant).
    struct Final
    {
        int64_t attempt = -1;
        size_t replica = 0, slot = 0;
    };
    std::vector<Final> fin(reqs.size());
    for (size_t r = 0; r < R; ++r)
        for (size_t k = 0; k < work[r].size(); ++k) {
            const Incarnation& m = meta[r][k];
            if (m.attempt > fin[m.orig].attempt)
                fin[m.orig] = {m.attempt, r, k};
        }
    if (resilient || have_faults) {
        // An incarnation's fate can legitimately flip between waves: a
        // later wave's extra arrivals shift the bandwidth split, and a
        // request that was mid-prefill at a drain edge (-> Migrated)
        // may by then have finished, failed, or been shed. The same
        // holds on the plain failover path — a retry landing on a
        // replica changes its timeline, and the superseded incarnation
        // re-simulated under that timeline can come out Finished. The
        // per-wave issue log is therefore not a reliable accounting
        // source; instead, every replica's summary is recomputed below
        // from its *final* timeline, with superseded slots
        // reinterpreted:
        //   - Failed/Migrated with a successor: transparent handoff
        //     (retried resp. migrated, outside availability);
        //   - Finished/Shed with a successor: phantom duplicate — the
        //     source would have stopped serving the moment the handoff
        //     was issued, so the slot is dropped and the successor
        //     carries the client-visible outcome.
        // A *final* incarnation still in Migrated was denied a target
        // (attempt cap, deadline, nothing healthy): a loss, converted
        // to Failed so availability closes over finished/failed/shed.
        for (size_t r = 0; r < R; ++r) {
            int64_t retried = 0;
            std::vector<Request> view;
            view.reserve(work[r].size());
            for (size_t k = 0; k < work[r].size(); ++k) {
                Request q = work[r][k];
                const Incarnation& m = meta[r][k];
                if (m.attempt < fin[m.orig].attempt) {
                    if (q.state == ReqState::Failed)
                        ++retried; // counted as failover, not failure
                    else if (q.state == ReqState::Migrated)
                        view.push_back(q);
                    continue;
                }
                if (q.state == ReqState::Migrated) {
                    q.state = ReqState::Failed;
                    work[r][k].state = ReqState::Failed;
                }
                view.push_back(q);
            }
            ServingSummary& old = results[r].result.summary;
            ServingSummary ns =
                summarize(view, old.makespan, cfg_.engine.slo);
            ns.retriedRequests = retried;
            // Engine-attached fields survive the recompute untouched.
            ns.computeUtilization = old.computeUtilization;
            ns.prefixLookups = old.prefixLookups;
            ns.prefixHits = old.prefixHits;
            ns.prefixTokensSaved = old.prefixTokensSaved;
            ns.prefixPeakOccupancyTokens =
                old.prefixPeakOccupancyTokens;
            ns.prefixPeakOccupancyMaxReplica =
                old.prefixPeakOccupancyMaxReplica;
            ns.counters = old.counters;
            // Windowed-SLO telemetry describes the replica's actual
            // final timeline, which the recompute does not change.
            ns.sloWindows = old.sloWindows;
            ns.sloWindowsAttained = old.sloWindowsAttained;
            ns.sloWorstWindowP95Ttft = old.sloWorstWindowP95Ttft;
            ns.sloWorstWindowP95Tpot = old.sloWorstWindowP95Tpot;
            refreshPrefixDerivedStats(ns);
            old = std::move(ns);
        }
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
        const dam::Cycle arrival = reqs[i].arrival;
        reqs[i] = work[fin[i].replica][fin[i].slot];
        reqs[i].arrival = arrival;
    }

    // Merge in replica-index order: the aggregate depends only on the
    // per-replica results, never on worker scheduling.
    ClusterResult out;
    out.replicas = std::move(results);
    out.traces = std::move(traces);
    out.metrics = std::move(mregs);
    out.breakers = std::move(breakers);
    out.retriesIssued = retries_issued;
    out.migrationsIssued = migrations_issued;
    out.autoscale = std::move(autoscale);
    std::vector<ServingSummary> parts;
    parts.reserve(R);
    for (const ReplicaResult& rr : out.replicas) {
        parts.push_back(rr.result.summary);
        out.timeline.merge(rr.result.timeline);
        out.totalIterations += rr.result.iterations;
    }
    out.aggregate = mergeSummaries(parts);
    // Heterogeneous fleets provision sum(scale_r * bw) FLOPs/cycle; the
    // unscaled expression is kept verbatim so scale-less runs stay
    // bit-identical (no float round-trip).
    int64_t provisioned = cfg_.engine.totalComputeBw * cfg_.replicas;
    if (!cfg_.bwScales.empty()) {
        double cap = 0.0;
        for (size_t r = 0; r < R; ++r)
            cap += static_cast<double>(cfg_.engine.totalComputeBw) *
                   cfg_.bwScales[r];
        provisioned = static_cast<int64_t>(std::llround(cap));
    }
    out.aggregate.computeUtilization =
        out.timeline.computeUtilization(provisioned);
    // The aggregate's windowed-SLO view comes from the replica-index-
    // order merge of the registries (mergeSummaries recomputes latency
    // percentiles from raw samples but leaves window fields zero).
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

} // namespace step::runtime
