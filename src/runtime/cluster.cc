#include "runtime/cluster.hh"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "support/error.hh"
#include "support/rng.hh"

namespace step::runtime {

namespace {

constexpr dam::Cycle kEnd = ReplicaFaultTimeline::kNoEvent;

/**
 * Router-side model of one replica for join-least-work routing. A real
 * ContinuousBatcher (the replica's admission config) tracks the waiting
 * queue and KV reservations; an analytic serial-server drain model
 * estimates when assigned requests leave, so the policy's picks are a
 * function of the trace alone and can all be made before the replicas
 * run. Health (faults, breakers, parking) is the remap's to apply.
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
    const auto bw = static_cast<double>(cfg.engine.totalComputeBw);
    const auto R = static_cast<size_t>(cfg.replicas);
    std::vector<ShadowReplica> shadows;
    shadows.reserve(R);
    for (size_t r = 0; r < R; ++r)
        shadows.emplace_back(cfg.engine.batcher);

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
        // The shadow batcher has no prefix cache; reserve worst case.
        copy->cachedPrefixTokens = 0;
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
 * The health remap, one arrival at a time in trace order: a request
 * whose replica is down at its arrival — or, on the resilience tier,
 * breaker-open or autoscale-parked for a fresh placement — moves to
 * pickResilientTarget's pick, if any (a crash mid-flight is still the
 * engine's to discover). The resilience tier also keeps sessions sticky
 * to where their first turn landed, remaps included: the warm cache is
 * there, and cache affinity outranks parking. A probing breaker
 * (HealthMonitor::probing) instead takes the first arrival free to go
 * to its replica — not sticky elsewhere — while that replica is up and
 * active; the caller re-arms @p probes once per window. Off the tier
 * there are no breakers, steps or probes.
 */
class Router
{
  public:
    Router(const ClusterConfig& cfg,
           const std::vector<ReplicaFaultTimeline>& faults)
        : cfg_(cfg), faults_(faults), load_(faults.size(), 0)
    {}

    /** Route @p q, which the routing policy sent to @p pick. */
    int64_t
    route(const Request& q, int64_t pick,
          const std::vector<BreakerTimeline>& breakers,
          const std::vector<AutoscaleStep>& autoscale,
          std::vector<bool>& probes)
    {
        auto r = static_cast<size_t>(pick);
        const dam::Cycle at = q.arrival;
        const uint64_t key = cfg_.resilience.enabled ? q.affinityKey : 0;
        const auto it = key != 0 ? sticky_.find(key) : sticky_.end();
        const bool owned = it != sticky_.end();
        if (owned)
            r = static_cast<size_t>(it->second);
        const int64_t active =
            autoscaleActiveAt(autoscale, at, cfg_.replicas);
        int64_t probe = -1;
        for (int64_t c = 0; c < active && probe < 0; ++c) {
            const auto p = static_cast<size_t>(c);
            if (p < probes.size() && probes[p] && (!owned || p == r) &&
                !faults_[p].downAt(at))
                probe = c;
        }
        if (probe >= 0) {
            r = static_cast<size_t>(probe);
            probes[r] = false; // this window's probe
        } else if (faults_[r].downAt(at) ||
                   (r < breakers.size() && breakers[r].openAt(at)) ||
                   (static_cast<int64_t>(r) >= active && !owned)) {
            const int64_t best =
                pickResilientTarget(load_, faults_, breakers, autoscale, at,
                                    /*affinityOwner=*/-1, cfg_.bwScales);
            if (best >= 0)
                r = static_cast<size_t>(best);
        }
        if (key != 0)
            sticky_[key] = static_cast<int64_t>(r); // remaps move the home
        load_[r] += q.promptLen + q.outputLen;
        return static_cast<int64_t>(r);
    }

    /** The replica holding @p key's warm cache: where its session was
     *  last routed (-1: none; always off the resilience tier). */
    int64_t
    owner(uint64_t key) const
    {
        const auto it = sticky_.find(key);
        return it != sticky_.end() ? it->second : -1;
    }

  private:
    const ClusterConfig& cfg_;
    const std::vector<ReplicaFaultTimeline>& faults_;
    std::vector<int64_t> load_; ///< routed worst-case tokens
    std::unordered_map<uint64_t, int64_t> sticky_; ///< key -> home
};

/** The trace-only autoscale step timeline (empty off the tier). */
std::vector<AutoscaleStep>
autoscaleSteps(const ClusterConfig& cfg,
               const std::vector<ReplicaFaultTimeline>& faults,
               const std::vector<Request>& reqs, double prefillFpt)
{
    if (!cfg.resilience.enabled)
        return {};
    return computeAutoscaleTimeline(cfg.resilience.autoscale, reqs, faults,
                                    prefillFpt, cfg.engine.totalComputeBw);
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

void
stampClusterTrack(obs::TraceSink& sink, const ClusterResult& r,
                  int64_t replica)
{
    struct Stamp
    {
        dam::Cycle at;
        const char* name;
        int64_t value;
    };
    std::vector<Stamp> stamps;
    const auto rep = static_cast<size_t>(replica);
    if (rep < r.breakers.size()) {
        const BreakerTimeline& b = r.breakers[rep];
        std::vector<dam::Cycle> edges;
        for (const auto* windows : {&b.open, &b.halfOpen})
            for (const BreakerTimeline::Window& w : *windows) {
                edges.push_back(w.start);
                if (w.end != 0)
                    edges.push_back(w.end);
            }
        std::ranges::sort(edges);
        BreakerState last = BreakerState::Closed;
        for (dam::Cycle c : edges) {
            const BreakerState st = b.stateAt(c);
            if (st != last)
                stamps.push_back({c,
                                  st == BreakerState::Open ? "breaker.open"
                                  : st == BreakerState::HalfOpen
                                      ? "breaker.half_open"
                                      : "breaker.closed",
                                  replica});
            last = st;
        }
    }
    if (replica == 0)
        for (const AutoscaleStep& s : r.autoscale)
            stamps.push_back({s.at, "autoscale.active", s.active});
    std::ranges::stable_sort(stamps, {}, &Stamp::at);
    for (const Stamp& s : stamps)
        sink.clusterInstant(s.name, s.at, s.value);
}

ServingCluster::ServingCluster(ClusterConfig cfg, const Policy& policy)
    : cfg_(std::move(cfg)), policy_(policy),
      prefillFpt_(static_cast<double>(prefillFlopsPerToken(
          cfg_.engine.model, cfg_.engine.model.numLayers)))
{
    STEP_ASSERT(cfg_.replicas >= 1, "cluster needs at least one replica");
    STEP_ASSERT(cfg_.threads >= 0, "negative worker-thread count");
    STEP_ASSERT(cfg_.bwScales.empty() ||
                    cfg_.bwScales.size() ==
                        static_cast<size_t>(cfg_.replicas),
                "bwScales must be empty or one entry per replica");
    for (double s : cfg_.bwScales)
        STEP_ASSERT(s > 0.0, "bwScales entries must be positive");
    for (int64_t r = 0; r < cfg_.replicas; ++r)
        faults_.push_back(cfg_.faults.forReplica(r));
}

std::vector<int64_t>
ServingCluster::routeTrace(const std::vector<Request>& reqs) const
{
    std::vector<int64_t> out = assignRoutes(reqs, cfg_, prefillFpt_);
    const std::vector<AutoscaleStep> autoscale =
        autoscaleSteps(cfg_, faults_, reqs, prefillFpt_);
    Router router(cfg_, faults_);
    std::vector<bool> no_probes;
    for (size_t i = 0; i < reqs.size(); ++i)
        out[i] = router.route(reqs[i], out[i], {}, autoscale, no_probes);
    return out;
}

namespace {

/**
 * A cluster run's worker threads. Worker 0 is the coordinating thread;
 * workers 1..T-1 live for the whole run, so each worker's iteration
 * workspace (graph, arena, scheduler) stays on one thread. run(job) has
 * every worker call job(t) once and returns when all have, rethrowing
 * the first failure by worker index.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(size_t workers)
        : ws_(workers), errors_(workers),
          sync_(static_cast<ptrdiff_t>(workers))
    {
        for (auto& w : ws_)
            w = std::make_unique<IterationWorkspace>();
        try {
            for (size_t t = 1; t < workers; ++t)
                threads_.emplace_back([this, t] {
                    for (;;) {
                        sync_.arrive_and_wait(); // a job, or the stop
                        if (stop_)
                            return;
                        work(t);
                        sync_.arrive_and_wait();
                    }
                });
        } catch (...) {
            // Workers that never started never arrive: drop their
            // places, then stop the started ones.
            for (size_t t = threads_.size() + 1; t < workers; ++t)
                sync_.arrive_and_drop();
            stop();
            throw;
        }
    }

    ~WorkerPool() { stop(); }

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    size_t size() const { return ws_.size(); }
    IterationWorkspace& workspace(size_t t) { return *ws_[t]; }

    void
    run(std::function<void(size_t)> job)
    {
        job_ = std::move(job);
        sync_.arrive_and_wait();
        work(0);
        sync_.arrive_and_wait();
        for (std::exception_ptr& e : errors_)
            if (e)
                std::rethrow_exception(std::exchange(e, nullptr));
    }

  private:
    void
    stop()
    {
        stop_ = true;
        sync_.arrive_and_wait();
        for (std::thread& th : threads_)
            th.join();
    }

    void
    work(size_t t)
    {
        try {
            job_(t);
        } catch (...) {
            errors_[t] = std::current_exception();
        }
    }

    std::vector<std::unique_ptr<IterationWorkspace>> ws_;
    std::vector<std::exception_ptr> errors_;
    std::function<void(size_t)> job_;
    std::barrier<> sync_;
    bool stop_ = false; ///< published by the barrier it precedes
    std::vector<std::thread> threads_;
};

} // namespace

/**
 * One run()'s epoch loop (see ServingCluster::run). The constructor
 * decides the tier, makes the routing policy's picks (a function of
 * the trace alone), starts one live run per replica, routes the
 * arrivals up to the first point where a breaker can change, and
 * collects the fault barriers. epoch(E) advances every replica to E on
 * the worker pool; barrier(E) is the coordinator's turn; finish()
 * reconciles, reflects and merges.
 */
class ServingCluster::Run
{
  public:
    Run(const ServingCluster& cluster, std::vector<Request>& reqs)
        : cfg_(cluster.cfg_), faults_(cluster.faults_), reqs_(reqs),
          R_(static_cast<size_t>(cfg_.replicas)),
          window_(cfg_.resilience.enabled &&
                          cfg_.resilience.breakerSource ==
                              BreakerSource::Telemetry
                      ? cfg_.resilience.health.windowCycles
                      : 0),
          router_(cfg_, faults_),
          origs_(R_),
          results_(R_),
          traces_(cfg_.trace.level != obs::TraceLevel::Off ? R_ : 0),
          mregs_(cfg_.metrics.enabled ? R_ : 0), load_(R_, 0)
    {
        static const ExponentialBackoffRetry default_retry;
        static const MigrationHandoff handoff;
        retry_ = cfg_.retry ? cfg_.retry : &default_retry;
        const bool resilient = cfg_.resilience.enabled;
        if (resilient) {
            retry_ = &handoff;
            autoscale_ =
                autoscaleSteps(cfg_, faults_, reqs, cluster.prefillFpt_);
            breakers_.resize(R_);
        }
        if (window_ > 0) { // telemetry breakers start closed
            monitors_.reserve(R_);
            for (size_t r = 0; r < R_; ++r)
                monitors_.emplace_back(cfg_.resilience.health);
            probes_.assign(R_, false);
        } else {
            for (size_t r = 0; r < breakers_.size(); ++r)
                breakers_[r] = computeBreakerTimeline(faults_[r]);
        }
        route_ = assignRoutes(reqs, cfg_, cluster.prefillFpt_);
        pool_.emplace(static_cast<size_t>(
            std::min(cfg_.threads > 0 ? cfg_.threads : cfg_.replicas,
                     cfg_.replicas)));

        // Seeds are derived on the coordinating thread before any
        // worker runs — the one ordering the global-seed contract
        // requires (see rng.hh).
        configs_.assign(R_, cfg_.engine);
        for (size_t r = 0; r < R_; ++r) {
            EngineConfig& ec = configs_[r];
            ec.seed = deriveSeed(static_cast<uint64_t>(r));
            ec.faults = faults_[r];
            if (!cfg_.bwScales.empty())
                ec.totalComputeBw = static_cast<int64_t>(std::llround(
                    static_cast<double>(cfg_.engine.totalComputeBw) *
                    cfg_.bwScales[r]));
            // The drain fires on the edge that opens the breaker: one
            // detection signal for routing and migration.
            if (resilient)
                for (const auto& w : slowdownTrips(ec.faults))
                    ec.drainAt.push_back(w.start);
            edges_.push_back(failureEdges(ec));
            std::ranges::sort(edges_.back());
            const std::vector<dam::Cycle> own = faultBarriers(ec);
            barriers_.insert(barriers_.end(), own.begin(), own.end());
        }
        // A fault-free plan has no fault barrier.
        std::ranges::sort(barriers_);
        barriers_.erase(std::unique(barriers_.begin(), barriers_.end()),
                        barriers_.end());

        // One sink and registry per replica, created before any worker
        // runs; replica r's run is their only writer, and exporting in
        // index order erases the threads.
        for (auto& t : traces_)
            t = std::make_unique<obs::TraceSink>(cfg_.trace);
        for (auto& m : mregs_)
            m = std::make_unique<obs::MetricsRegistry>(cfg_.metrics);
        runs_.reserve(R_);
        for (size_t r = 0; r < R_; ++r) {
            auto& e = engines_.emplace_back(
                std::make_unique<ServingEngine>(configs_[r], cluster.policy_));
            if (!traces_.empty())
                e->attachTrace(traces_[r].get());
            if (!mregs_.empty())
                e->attachMetrics(mregs_[r].get());
            if (!monitors_.empty())
                e->attachHealth(&monitors_[r]);
            runs_.emplace_back(*e, std::vector<Request>{});
        }
        // Without telemetry breakers all that routing reads is known
        // now: the whole trace is routed.
        routeUntil(window_ > 0 ? window_ : kEnd);
    }

    /** The next barrier (kEnd: none): a fault edge, or a window edge
     *  while an arrival is left to route or a run to serve. */
    dam::Cycle
    nextBarrier() const
    {
        dam::Cycle next =
            nextFault_ < barriers_.size() ? barriers_[nextFault_] : kEnd;
        if (window_ > 0 &&
            (routed_ < reqs_.size() ||
             !std::ranges::all_of(runs_, &ServingEngine::Run::ended)))
            next = std::min(next, nextWindow_);
        return next;
    }

    /** Advance every replica to @p until (kEnd: to its end) on the
     *  worker pool. Workers take the replicas in index order as they
     *  come free; which worker steps a (shared-nothing) replica never
     *  changes what it computes. */
    void
    epoch(dam::Cycle until)
    {
        ++epochs_;
        std::vector<int64_t> iters(R_, 0);
        std::atomic<size_t> next{0};
        pool_->run([&](size_t t) {
            for (size_t r; (r = next.fetch_add(1)) < R_;)
                iters[r] = runs_[r].advance(until, pool_->workspace(t));
        });
        for (int64_t n : iters)
            simulated_ += n;
    }

    /**
     * The coordinator's turn at barrier @p at: a window edge closes its
     * window; then the replicas with a crash or drain there deliver it,
     * and every new casualty is offered to the rescheduling policy in
     * (fail-cycle, request, attempt) order.
     */
    void
    barrier(dam::Cycle at)
    {
        if (nextFault_ < barriers_.size() && barriers_[nextFault_] == at)
            ++nextFault_;
        if (window_ > 0 && at == nextWindow_) {
            closeWindow(at);
            nextWindow_ += window_;
        }
        // Placement weighs what was routed to arrive by now, never load
        // assigned later in simulated time.
        for (; loaded_ < routed_ && reqs_[loaded_].arrival <= at; ++loaded_)
            load_[static_cast<size_t>(route_[loaded_])] +=
                reqs_[loaded_].promptLen + reqs_[loaded_].outputLen;
        std::vector<Casualty> due;
        for (size_t r = 0; r < R_; ++r) {
            if (std::ranges::binary_search(edges_[r], at))
                runs_[r].deliverUntil(at);
            for (size_t k : runs_[r].takeCasualties())
                due.push_back({runs_[r].request(k).finishedAt, origs_[r][k],
                               runs_[r].request(k).attempt, r, k});
        }
        std::ranges::sort(due, {}, [](const Casualty& f) {
            return std::tie(f.at, f.orig, f.attempt);
        });
        for (const Casualty& f : due)
            handOff(f);
    }

    ClusterResult
    finish()
    {
        // The workers' graphs go first: the metrics merge below would
        // otherwise stack on them at the run's peak footprint.
        pool_.reset();
        std::vector<std::vector<Request>> served(R_);
        for (size_t r = 0; r < R_; ++r) {
            ReplicaResult& out = results_[r];
            out.result = runs_[r].finish(served[r]);
            out.replica = static_cast<int64_t>(r);
            out.engine = std::move(configs_[r]);
        }
        // Every original request reports its *final* incarnation
        // (highest attempt), with the original arrival restored so the
        // caller's trace stays sorted.
        std::vector<Final> fin(reqs_.size());
        for (size_t r = 0; r < R_; ++r)
            for (size_t k = 0; k < served[r].size(); ++k) {
                const size_t i = origs_[r][k];
                if (served[r][k].attempt > fin[i].attempt)
                    fin[i] = {served[r][k].attempt, r, k};
            }
        reconcile(fin, served);
        for (size_t i = 0; i < reqs_.size(); ++i) {
            const dam::Cycle arrival = reqs_[i].arrival;
            reqs_[i] = served[fin[i].replica][fin[i].slot];
            reqs_[i].arrival = arrival;
            if (reqs_[i].state == ReqState::Migrated)
                reqs_[i].state = ReqState::Failed; // denied a target
        }
        for (size_t r = 0; r < R_; ++r)
            results_[r].requests = std::move(served[r]);

        // Merge in replica-index order: the aggregate depends only on
        // the per-replica results, never on worker scheduling.
        ClusterResult out;
        out.replicas = std::move(results_);
        out.traces = std::move(traces_);
        out.metrics = std::move(mregs_);
        out.breakers = std::move(breakers_);
        out.retriesIssued = retriesIssued_;
        out.migrationsIssued = migrationsIssued_;
        out.epochs = epochs_;
        out.replicaIterationsSimulated = simulated_;
        out.autoscale = std::move(autoscale_);
        // Cluster decisions are stamped once, from what routing and
        // failover consulted, now that no replica records any more.
        for (size_t r = 0; r < out.traces.size(); ++r)
            stampClusterTrack(*out.traces[r], out, static_cast<int64_t>(r));
        std::vector<ServingSummary> parts;
        parts.reserve(R_);
        int64_t useful = 0;
        for (const ReplicaResult& rr : out.replicas) {
            parts.push_back(rr.result.summary);
            for (const IterationSample& it : rr.result.samples)
                useful += it.usefulFlops;
            out.totalIterations += rr.result.iterations;
        }
        out.aggregate = mergeSummaries(parts);
        scoreSloPerCaller(out.aggregate, reqs_);
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
        // The merged makespan is the latest replica's, which is where
        // the last sample of any replica ends.
        out.aggregate.computeUtilization = computeUtilization(
            useful, out.aggregate.makespan, provisioned);
        // The aggregate's windowed-SLO view comes from the replica-
        // index-order merge of the registries (mergeSummaries leaves
        // the window fields zero).
        if (!out.metrics.empty()) {
            auto merged =
                std::make_unique<obs::MetricsRegistry>(cfg_.metrics);
            for (const auto& m : out.metrics)
                merged->mergeFrom(*m);
            applySloWindows(out.aggregate, *merged);
            out.mergedMetrics = std::move(merged);
        }
        return out;
    }

  private:
    /** Attempts after which a policy still granting incarnations of one
     *  request is misconfigured (it must bound attempts). */
    static constexpr int64_t kMaxAttempts = 1024;

    /**
     * Window edge @p at: the monitors decide on the window that just
     * ended, probing breakers re-arm, and the next window is routed:
     * inferred timelines change only on window edges.
     */
    void
    closeWindow(dam::Cycle at)
    {
        for (size_t r = 0; r < R_; ++r) {
            monitors_[r].closeUntil(at);
            breakers_[r] = monitors_[r].timeline();
            probes_[r] = monitors_[r].probing();
        }
        routeUntil(at + window_);
    }

    /** Route the arrivals before @p end, in trace order, each onto its
     *  replica's live run. */
    void
    routeUntil(dam::Cycle end)
    {
        for (; routed_ < reqs_.size() && reqs_[routed_].arrival < end;
             ++routed_) {
            const Request& q = reqs_[routed_];
            route_[routed_] = router_.route(q, route_[routed_], breakers_,
                                            autoscale_, probes_);
            const auto r = static_cast<size_t>(route_[routed_]);
            origs_[r].push_back(routed_);
            runs_[r].append(q);
        }
    }

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

    /** Reschedule and place @p f's next incarnation and append it to its
     *  target's run; the failure stands when the policy gives up or no
     *  replica can take it. */
    void
    handOff(const Casualty& f)
    {
        const Request& src = runs_[f.replica].request(f.slot);
        const std::optional<dam::Cycle> re =
            retry_->reschedule(src, f.attempt + 1, f.at);
        if (!re)
            return; // policy says permanent (attempts / deadline)
        if (*re < f.at)
            stepFatal("retry policy re-arrival at cycle "
                      << *re << " precedes the failure of request "
                      << src.id << " (attempt " << f.attempt + 1
                      << ") at cycle " << f.at);
        if (f.attempt + 1 >= kMaxAttempts)
            stepFatal("failover did not converge: the retry policy granted "
                      "request "
                      << src.id << " attempt " << f.attempt + 1
                      << " after attempt " << f.attempt
                      << " failed on replica " << f.replica << " at cycle "
                      << f.at << " (it must bound attempts)");
        const Request& orig = reqs_[f.orig]; // pristine: never mutated
        const int64_t owner = router_.owner(orig.affinityKey);
        // With no replica able to take it at the re-arrival cycle the
        // request could only be refused again: the failure stands.
        const int64_t best = pickResilientTarget(
            load_, faults_, breakers_, autoscale_, *re, owner, cfg_.bwScales);
        if (best < 0)
            return;
        const auto tgt = static_cast<size_t>(best);
        Request inc = orig;
        inc.arrival = *re;
        inc.attempt = f.attempt + 1;
        inc.remoteKvTokens = carriedKvTokens(src);
        fetchRemotePrefix(inc, owner, tgt);
        ++(src.state == ReqState::Migrated ? migrationsIssued_
                                           : retriesIssued_);
        load_[tgt] += inc.promptLen + inc.outputLen;
        origs_[tgt].push_back(f.orig);
        runs_[tgt].append(std::move(inc));
    }

    /**
     * Cross-replica prefix fetch: placed off its affinity owner, the
     * incarnation may pull its warm prefix from the owner's cache if an
     * earlier turn finished there before the handoff lands and after the
     * owner's last crash. Block-granular; it pays a lookup RTT plus
     * per-token transfer for what the handoff did not already carry.
     * The reference is what the owner has simulated so far.
     */
    void
    fetchRemotePrefix(Request& inc, int64_t owner, size_t tgt) const
    {
        constexpr dam::Cycle kLookupCycles = 20'000; // once per fetch
        constexpr dam::Cycle kPerTokenFetchCycles = 150;
        if (!cfg_.resilience.remotePrefix.enabled || owner < 0 ||
            static_cast<size_t>(owner) == tgt)
            return;
        const auto ow = static_cast<size_t>(owner);
        const dam::Cycle at = inc.arrival;
        dam::Cycle wiped = ReplicaFaultTimeline::kNoEvent; // last crash
        for (const auto& d : faults_[ow].downs)
            if (d.failAt <= at && (wiped == ReplicaFaultTimeline::kNoEvent ||
                                   d.failAt > wiped))
                wiped = d.failAt;
        int64_t credit = 0;
        const ServingEngine::Run& run = runs_[ow];
        for (size_t k = 0; k < run.size(); ++k) {
            const Request& q = run.request(k);
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
            at + kLookupCycles +
            static_cast<dam::Cycle>(credit - kv) * kPerTokenFetchCycles;
        if (inc.deadlineAt == 0 || fetched <= inc.deadlineAt) {
            inc.arrival = fetched;
            inc.remoteKvTokens = credit;
        }
    }

    /**
     * Recompute each replica's summary where failover reinterprets an
     * incarnation: a superseded one that failed counts as retried (a
     * transparent handoff, outside availability), a superseded migrated
     * one as migrated; a *final* one still Migrated was denied a target
     * (attempt cap, deadline, nothing healthy) — a loss, counted (and
     * reported to the caller) as Failed so availability closes over
     * finished/failed/shed. The served requests themselves stay as the
     * engines left them. Each casualty is decided once, so a superseded
     * incarnation always ended failed or migrated. A replica failover
     * never touched keeps the summary its engine made.
     */
    void
    reconcile(const std::vector<Final>& fin,
              const std::vector<std::vector<Request>>& served)
    {
        for (size_t r = 0; r < R_; ++r) {
            int64_t retried = 0;
            bool changed = false;
            std::vector<Request> view;
            view.reserve(served[r].size());
            for (size_t k = 0; k < served[r].size(); ++k) {
                const Request& q = served[r][k];
                const bool superseded =
                    q.attempt < fin[origs_[r][k]].attempt;
                STEP_ASSERT(!superseded || q.state == ReqState::Failed ||
                                q.state == ReqState::Migrated,
                            "request " << q.id << " attempt " << q.attempt
                                       << " was superseded but did not "
                                          "fail or migrate");
                if (superseded && q.state == ReqState::Failed) {
                    ++retried; // counted as failover, not failure
                    changed = true;
                    continue;
                }
                view.push_back(q);
                if (!superseded && q.state == ReqState::Migrated) {
                    view.back().state = ReqState::Failed;
                    changed = true;
                }
            }
            if (!changed)
                continue;
            ServingSummary& s = results_[r].result.summary;
            resummarize(s, view);
            s.retriedRequests = retried;
        }
    }

    const ClusterConfig& cfg_;
    /** Per replica: its fault timeline (ServingCluster::faults_). */
    const std::vector<ReplicaFaultTimeline>& faults_;
    std::vector<Request>& reqs_;
    const size_t R_;
    /** Health-window width with telemetry breakers, else 0. */
    const dam::Cycle window_;

    /** Per request: the routing policy's pick, then, once routed, its
     *  replica. */
    std::vector<int64_t> route_;
    /** What routing and failover consult: plan-derived, or what the
     *  monitors have decided so far (empty off the tier). */
    std::vector<BreakerTimeline> breakers_;
    std::vector<AutoscaleStep> autoscale_;
    /** Per replica, telemetry breakers only: its monitor, and whether
     *  it takes a probe in the current window. */
    std::vector<HealthMonitor> monitors_;
    std::vector<bool> probes_;
    const RetryPolicy* retry_ = nullptr;
    Router router_;
    /** Per replica: seed, fault timeline, bandwidth, drain cycles. */
    std::vector<EngineConfig> configs_;
    /** Per replica: its crash and drain cycles, sorted. */
    std::vector<std::vector<dam::Cycle>> edges_;
    /** Every replica's crash, recovery and drain cycle, sorted, unique. */
    std::vector<dam::Cycle> barriers_;
    size_t nextFault_ = 0; ///< into barriers_
    dam::Cycle nextWindow_ = window_;

    /** Per replica: its engine, and the live run on it. */
    std::vector<std::unique_ptr<ServingEngine>> engines_;
    std::vector<ServingEngine::Run> runs_;
    /** Per replica, per slot: the caller's request it serves. */
    std::vector<std::vector<size_t>> origs_;
    /** Steps runs_; declared after them so its threads go first. */
    std::optional<WorkerPool> pool_;
    std::vector<ReplicaResult> results_;
    std::vector<std::unique_ptr<obs::TraceSink>> traces_;
    std::vector<std::unique_ptr<obs::MetricsRegistry>> mregs_;

    std::vector<int64_t> load_;
    size_t routed_ = 0; ///< requests routed onto a run
    size_t loaded_ = 0; ///< requests whose arrival load_ holds
    int64_t retriesIssued_ = 0;
    int64_t migrationsIssued_ = 0;
    int64_t epochs_ = 0;
    int64_t simulated_ = 0; ///< replica iterations executed
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
    for (dam::Cycle at; (at = r.nextBarrier()) != kEnd;) {
        r.epoch(at);
        r.barrier(at);
    }
    r.epoch(kEnd);
    return r.finish();
}

} // namespace step::runtime
