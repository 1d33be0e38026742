#include "runtime/engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>

#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"

namespace step::runtime {

namespace {

/** Hard bound against a non-progressing configuration. */
constexpr int64_t kMaxIterations = 1'000'000;
constexpr dam::Cycle kNone = ReplicaFaultTimeline::kNoEvent;

// ---- telemetry ---------------------------------------------------------

/**
 * Every quantity the engine exports. Declaration order is the counter
 * registration order (engine, fault tier, resilience tier), which the
 * trace's counter samples and the summary's counter list follow; the
 * metrics-only quantities come last.
 */
enum Quantity : uint8_t {
    QueueDepth, RunningRequests, DecodeBatch, KvReservedBytes,
    PrefixCacheTokens, Iterations, PrefillTokens, GeneratedTokens,
    ContextSwitches,
    RequestsFailed, RequestsRetried, RequestsShed, DeadlineMisses,
    ReplicaFaults,
    RequestsMigrated, RequestsCapped,
    TtftCycles, TpotCycles, RequestsFinished, SloGoodTokens, IterCycles,
    kNumQuantities
};

enum class CounterKind : uint8_t { None, Gauge, Monotonic };
enum class MetricKind : uint8_t { None, Series, Histogram };

struct QuantitySpec
{
    const char* name;
    CounterKind counter; ///< in the trace sink's CounterRegistry
    MetricKind metric;   ///< in the MetricsRegistry
};

/** One row per Quantity, in enum order. */
constexpr QuantitySpec kQuantities[kNumQuantities] = {
    {"queue_depth", CounterKind::Gauge, MetricKind::Series},
    {"running_requests", CounterKind::Gauge, MetricKind::Series},
    {"decode_batch", CounterKind::Gauge, MetricKind::Series},
    {"kv_reserved_bytes", CounterKind::Gauge, MetricKind::Series},
    {"prefix_cache_tokens", CounterKind::Gauge, MetricKind::None},
    {"iterations", CounterKind::Monotonic, MetricKind::None},
    {"prefill_tokens", CounterKind::Monotonic, MetricKind::Series},
    {"generated_tokens", CounterKind::Monotonic, MetricKind::Series},
    {"context_switches", CounterKind::Monotonic, MetricKind::None},
    {"requests_failed", CounterKind::Monotonic, MetricKind::Series},
    {"requests_retried", CounterKind::Monotonic, MetricKind::None},
    {"requests_shed", CounterKind::Monotonic, MetricKind::Series},
    {"deadline_misses", CounterKind::Monotonic, MetricKind::Series},
    {"replica_faults", CounterKind::Monotonic, MetricKind::None},
    {"requests_migrated", CounterKind::Monotonic, MetricKind::Series},
    {"requests_capped", CounterKind::Monotonic, MetricKind::None},
    {"ttft_cycles", CounterKind::None, MetricKind::Histogram},
    {"tpot_cycles", CounterKind::None, MetricKind::Histogram},
    {"requests_finished", CounterKind::None, MetricKind::Series},
    {"slo_good_tokens", CounterKind::None, MetricKind::Series},
    {"iter_cycles", CounterKind::None, MetricKind::Series},
};

/** Metrics registration order, which is the artifact's export order. */
constexpr Quantity kMetricsOrder[] = {
    TtftCycles, TpotCycles, RequestsFinished, RequestsFailed,
    RequestsShed, RequestsMigrated, DeadlineMisses, SloGoodTokens,
    QueueDepth, RunningRequests, DecodeBatch, KvReservedBytes,
    GeneratedTokens, PrefillTokens, IterCycles,
};

static_assert(
    [] {
        size_t metered = 0;
        for (const QuantitySpec& q : kQuantities)
            metered += q.metric != MetricKind::None;
        return metered == std::size(kMetricsOrder);
    }(),
    "kMetricsOrder must list every metered quantity once");

/**
 * The engine's one telemetry path. Resolves handles into whichever
 * exporters are attached — the trace sink with its counter registry,
 * the metrics registry — and turns each engine event into lifecycle
 * hooks, counter updates and metric samples as kQuantities declares;
 * failures and first tokens also go to an attached health monitor.
 * With nothing attached each event is one predicted branch and
 * computes nothing.
 */
class Recorder
{
  public:
    Recorder(obs::TraceSink* trace, obs::MetricsRegistry* metrics,
             HealthMonitor* health)
        : trace_(trace), metrics_(metrics), health_(health)
    {
        if (trace_) {
            obs::CounterRegistry& c = trace_->counters();
            for (size_t q = 0; q < kNumQuantities; ++q) {
                if (kQuantities[q].counter == CounterKind::Gauge)
                    counter_[q] = c.gauge(kQuantities[q].name);
                else if (kQuantities[q].counter == CounterKind::Monotonic)
                    counter_[q] = c.monotonic(kQuantities[q].name);
            }
        }
        if (metrics_)
            for (Quantity q : kMetricsOrder)
                metric_[q] =
                    kQuantities[q].metric == MetricKind::Histogram
                        ? metrics_->histogram(kQuantities[q].name)
                        : metrics_->series(kQuantities[q].name);
    }

    void
    arrived(const Request& r)
    {
        if (!trace_) [[likely]]
            return;
        trace_->reqArrived(r.id, r.sessionId, r.turn, r.promptLen,
                           r.outputLen, r.arrival, r.attempt);
        if (r.attempt > 0)
            record(RequestsRetried, r.arrival, 1);
    }

    /** An admission round at @p at admitted and output-capped these
     *  requests (its shed ones go through terminal()). */
    void
    admission(const ContinuousBatcher::AdmitResult& adm, dam::Cycle at)
    {
        if (!trace_) [[likely]]
            return;
        for (const Request* r : adm.admitted)
            trace_->reqAdmitted(r->id, r->attempt, r->cachedPrefixTokens,
                                at);
        for (const Request* r : adm.capped) {
            trace_->reqCapped(r->id, at, r->outputLen);
            record(RequestsCapped, at, 1);
        }
    }

    void
    firstToken(const Request& r)
    {
        if (!trace_ && !metrics_ && !health_) [[likely]]
            return;
        const dam::Cycle ttft = r.firstTokenAt - r.arrival;
        if (trace_)
            trace_->reqFirstToken(r.id, r.attempt, r.firstTokenAt);
        if (health_)
            health_->firstToken(r.firstTokenAt, ttft);
        record(TtftCycles, r.firstTokenAt, static_cast<int64_t>(ttft));
    }

    /**
     * @p r reached its terminal state at r.finishedAt. A migration hands
     * off @p kv_tokens of computed KV: the counter counts the handoff,
     * the series records the tokens.
     */
    void
    terminal(const Request& r, int64_t kv_tokens)
    {
        if (!trace_ && !metrics_ && !health_) [[likely]]
            return;
        const dam::Cycle at = r.finishedAt;
        switch (r.state) {
          case ReqState::Finished:
            if (trace_)
                trace_->reqFinished(r.id, r.attempt, at);
            if (r.deadlineAt != 0 && at > r.deadlineAt)
                record(DeadlineMisses, at, 1);
            if (metrics_) {
                record(RequestsFinished, at, 1);
                if (r.outputLen > 1)
                    record(TpotCycles, at, std::llround(tpot(r)));
                if (meetsSlo(r))
                    record(SloGoodTokens, at, r.generated);
            }
            break;
          case ReqState::Failed:
            if (trace_)
                trace_->reqFailed(r.id, r.attempt, at);
            if (health_)
                health_->failed(at);
            record(RequestsFailed, at, 1);
            break;
          case ReqState::Shed:
            if (trace_)
                trace_->reqShed(r.id, r.attempt, at);
            record(RequestsShed, at, 1);
            break;
          case ReqState::Migrated:
            if (trace_)
                trace_->reqMigrated(r.id, r.attempt, at, kv_tokens);
            record(RequestsMigrated, at, kv_tokens, /*counted=*/1);
            break;
          default:
            STEP_ASSERT(false, "request " << r.id << " is not terminal");
        }
    }

    void
    crashed(dam::Cycle at, const ReplicaFaultTimeline::Down& w)
    {
        if (!trace_) [[likely]]
            return;
        trace_->faultDown(at, w.failAt, w.recoverAt);
        record(ReplicaFaults, at, 1);
    }

    void
    recovered(dam::Cycle at)
    {
        if (trace_) [[unlikely]]
            trace_->faultUp(at);
    }

    /** Anchor the next graph run's graph-local event stamps at @p at. */
    void
    graphRunAt(dam::Cycle at)
    {
        if (trace_) [[unlikely]]
            trace_->setTimeBase(at);
    }

    /**
     * Iteration @p s ended: record the per-iteration quantities at its
     * end cycle and sample the trace counters. @p first_tokens prefills
     * completed inside it; its decode graph resumed @p switches contexts.
     */
    void
    iteration(const IterationSample& s, int64_t first_tokens,
              uint64_t switches, const ContinuousBatcher& b,
              const PrefixCache* cache)
    {
        if (!trace_ && !metrics_) [[likely]]
            return;
        const dam::Cycle at = s.start + s.length;
        record(QueueDepth, at, b.waitingCount());
        record(RunningRequests, at,
               static_cast<int64_t>(b.running().size()));
        record(DecodeBatch, at, s.decodeBatch);
        record(KvReservedBytes, at, b.kvBytesReserved());
        if (cache)
            record(PrefixCacheTokens, at, cache->occupancyTokens());
        record(Iterations, at, 1);
        record(PrefillTokens, at, s.prefillTokens);
        // Every decode emits one token; prefill completions emit their
        // first token inside this iteration too.
        record(GeneratedTokens, at, s.decodeBatch + first_tokens);
        record(ContextSwitches, at, static_cast<int64_t>(switches));
        record(IterCycles, at, static_cast<int64_t>(s.length));
        if (trace_)
            trace_->sampleCounters(at);
    }

    /** Final counter values and windowed-SLO fields into @p s. */
    void
    summarize(ServingSummary& s) const
    {
        if (trace_)
            s.counters = trace_->counters().snapshot();
        if (metrics_)
            applySloWindows(s, *metrics_);
    }

  private:
    /**
     * @p v into @p q's counter (set or added, by kind) and its metrics
     * instrument, whichever exist and are attached. @p counted, when
     * given, is what the counter takes instead.
     */
    void
    record(Quantity q, dam::Cycle at, int64_t v,
           std::optional<int64_t> counted = std::nullopt)
    {
        const QuantitySpec& s = kQuantities[q];
        if (trace_ && s.counter == CounterKind::Gauge)
            trace_->counters().set(counter_[q], counted.value_or(v));
        else if (trace_ && s.counter == CounterKind::Monotonic)
            trace_->counters().add(counter_[q], counted.value_or(v));
        if (metrics_ && s.metric != MetricKind::None)
            metrics_->record(metric_[q], at, static_cast<uint64_t>(v));
    }

    obs::TraceSink* trace_;
    obs::MetricsRegistry* metrics_;
    HealthMonitor* health_;
    std::array<obs::CounterRegistry::Handle, kNumQuantities> counter_{};
    std::array<obs::MetricsRegistry::Handle, kNumQuantities> metric_{};
};

/** Fold a crash-lost cache's stats into @p acc: its lookups, hits and
 *  savings happened even though its content died with the replica. */
void
foldLostCache(PrefixCacheStats& acc, const PrefixCacheStats& lost)
{
    acc.lookups += lost.lookups;
    acc.hits += lost.hits;
    acc.tokensSaved += lost.tokensSaved;
    acc.peakOccupancyTokens =
        std::max(acc.peakOccupancyTokens, lost.peakOccupancyTokens);
}

} // namespace

std::vector<dam::Cycle>
failureEdges(const EngineConfig& cfg)
{
    std::vector<dam::Cycle> out = cfg.drainAt;
    for (const auto& d : cfg.faults.downs)
        out.push_back(d.failAt);
    return out;
}

std::vector<dam::Cycle>
faultBarriers(const EngineConfig& cfg)
{
    std::vector<dam::Cycle> out = failureEdges(cfg);
    for (const auto& d : cfg.faults.downs)
        if (d.recoverAt != 0)
            out.push_back(d.recoverAt);
    std::ranges::sort(out);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

EngineConfig::EngineConfig() : model(servingSimConfig()) {}

DecoderParams
decoderParams(const EngineConfig& cfg)
{
    DecoderParams p;
    p.cfg = cfg.model;
    p.attnStrategy = EngineConfig::attnStrategy;
    p.attnRegions = EngineConfig::attnRegions;
    p.kvTileRows = EngineConfig::kvTileRows;
    p.moeRegions = EngineConfig::moeRegions;
    p.moeTile = EngineConfig::moeTile;
    p.denseTile = EngineConfig::denseTile;
    p.weightTileCols = EngineConfig::weightTileCols;
    p.seed = cfg.seed;
    return p;
}

ServingEngine::ServingEngine(EngineConfig cfg, const Policy& policy)
    : cfg_(std::move(cfg)), policy_(policy)
{
    STEP_ASSERT(cfg_.totalComputeBw >= 2,
                "bandwidth pool too small to split");
    STEP_ASSERT(cfg_.model.numLayers > 0, "layer count must be positive");
    STEP_ASSERT(std::ranges::is_sorted(cfg_.drainAt),
                "drain cycles must be sorted");

    // Iteration-graph parameters shared across iterations; the per-
    // iteration pieces are the batch's KV lengths, the expert trace, and
    // the policy-assigned matmul bandwidth.
    baseParams_ = decoderParams(cfg_);
    // Matmul pipelines the decode share is spread over: the two dense
    // projections, the attention regions, and the MoE regions.
    decodeUnits_ = 2 + EngineConfig::attnRegions + EngineConfig::moeRegions;
    prefillFlopsPerToken_ = static_cast<double>(
        prefillFlopsPerToken(cfg_.model, cfg_.model.numLayers));
}

int64_t
prefillFlopsPerToken(const ModelConfig& m, int64_t num_layers)
{
    int64_t d = m.numKvHeads * m.headDim;
    int64_t qkv_cols = m.numQHeads * m.headDim + 2 * d;
    int64_t per_layer = 2 * m.hidden * qkv_cols          // QKV proj
                        + 2 * d * m.hidden               // output proj
                        + m.topK * 3 * 2 * m.hidden *
                              m.moeIntermediate;         // SwiGLU expert
    return per_layer * num_layers;
}

/**
 * One replica run's state machine: the constructor sets up the cold
 * replica, step() advances it by one loop turn, and finish() checks the
 * teardown invariants and builds the result. What is reused across runs
 * — the scheduler and the recycled graph — is the borrowed workspace;
 * the per-engine constants stay on the ServingEngine.
 */
class ServingEngine::Run::Impl
{
  public:
    Impl(const ServingEngine& eng, std::vector<Request>&& input)
        : eng_(eng), cfg_(eng.cfg_),
          reqs_(std::make_move_iterator(input.begin()),
                std::make_move_iterator(input.end())),
          batcher_(cfg_.batcher), iterRng_(cfg_.seed),
          tel_(eng.trace_, eng.metrics_, eng.health_),
          dp_(eng.baseParams_),
          // Scheduler events only matter at trace level >= Op, so the
          // per-resume branch in dam::Scheduler::drain stays cold below.
          opSink_(eng.trace_ && eng.trace_->level() >= obs::TraceLevel::Op
                      ? eng.trace_
                      : nullptr)
    {
        STEP_ASSERT(std::ranges::is_sorted(reqs_, {}, &Request::arrival),
                    "request trace must be sorted by arrival");
        order_.reserve(reqs_.size());
        for (Request& r : reqs_)
            order_.push_back(&r);
        // A cold cache per run keeps replays of one engine identical.
        if (cfg_.prefixCache.capacityTokens > 0)
            restartCache();
    }

    int64_t
    advance(dam::Cycle until, IterationWorkspace& ws)
    {
        const int64_t before = res_.iterations;
        ws.sched.setTraceSink(opSink_);
        until_ = until;
        while (now_ < until && step(ws)) {
        }
        return res_.iterations - before;
    }

    void
    deliverUntil(dam::Cycle at)
    {
        if (ended())
            return;
        STEP_ASSERT(now_ >= at, "barrier at cycle " << at
                                    << " delivered to a run at cycle "
                                    << now_);
        deliverDue(at);
        cut_ = at < now_;
    }

    dam::Cycle horizon() const { return horizon_; }

    bool ended() const { return ended_ >= reqs_.size() && !cut_; }

    void
    append(Request r)
    {
        // A delivered crash refused every arrival before its recovery:
        // one appended inside that outage is refused as it comes.
        const bool refused =
            r.arrival < horizon_ && cfg_.faults.downAt(r.arrival);
        STEP_ASSERT(r.arrival >= horizon_ || refused,
                    "request " << r.id << " (attempt " << r.attempt
                               << ") appended at cycle " << r.arrival
                               << ", before the run's horizon "
                               << horizon_);
        reqs_.push_back(std::move(r));
        Request* p = &reqs_.back();
        if (refused) {
            arrive(*p);
            return;
        }
        // Everything delivered arrived before the horizon, so the
        // request sorts into the undelivered tail.
        const auto tail =
            order_.begin() + static_cast<ptrdiff_t>(nextArrival_);
        order_.insert(std::upper_bound(tail, order_.end(), p->arrival,
                                       [](dam::Cycle a, const Request* q) {
                                           return a < q->arrival;
                                       }),
                      p);
    }

    std::vector<size_t>
    takeCasualties()
    {
        std::vector<size_t> out;
        if (casualties_.empty())
            return out;
        const std::less<const Request*> before;
        std::ranges::sort(casualties_, before);
        for (size_t k = 0; k < reqs_.size(); ++k)
            if (std::ranges::binary_search(casualties_, &reqs_[k], before))
                out.push_back(k);
        casualties_.clear();
        return out;
    }

    size_t size() const { return reqs_.size(); }
    const Request& request(size_t slot) const { return reqs_[slot]; }

    EngineResult
    finish(std::vector<Request>& reqs)
    {
        expectReleased("run");
        reqs.assign(std::make_move_iterator(reqs_.begin()),
                    std::make_move_iterator(reqs_.end()));
        ServingSummary& s = res_.summary;
        dam::Cycle span = 0;
        int64_t useful = 0;
        for (const IterationSample& it : res_.samples) {
            span = std::max(span, it.start + it.length);
            useful += it.usefulFlops;
        }
        s.makespan = span;
        s.computeUtilization =
            computeUtilization(useful, span, cfg_.totalComputeBw);
        if (cache_) {
            PrefixCacheStats st = cache_->stats();
            foldLostCache(st, lostCacheStats_);
            s.prefixLookups = st.lookups;
            s.prefixHits = st.hits;
            s.prefixTokensSaved = st.tokensSaved;
            s.prefixPeakOccupancyTokens = st.peakOccupancyTokens;
            // A single engine is its own busiest replica.
            s.prefixPeakOccupancyMaxReplica = st.peakOccupancyTokens;
        }
        resummarize(s, reqs);
        tel_.summarize(s);
        return std::move(res_);
    }

  private:
    /** One loop turn: deliver the due events, admit, and run one decode
     *  or prefill-only iteration. False once every request ended. */
    bool
    step(IterationWorkspace& ws)
    {
        if (ended())
            return false;
        if (res_.iterations >= kMaxIterations)
            throw stall("iteration bound exceeded without progress");
        deliverDue();
        cut_ = false;
        if (ended_ >= reqs_.size())
            return false;
        // A crash moved the clock to the barrier or past it: admission
        // waits for the next advance, which knows the next barrier.
        if (now_ >= until_)
            return true;
        // Slowdown windows scale the bandwidth pool this iteration
        // splits (>= 2 so the policy can always split something).
        const double f = cfg_.faults.bwFactorAt(now_);
        const auto bw = static_cast<double>(cfg_.totalComputeBw);
        const int64_t eff_bw =
            f < 1.0 ? std::max<int64_t>(2, std::llround(bw * f))
                    : cfg_.totalComputeBw;
        if (admit(eff_bw))
            iterate(eff_bw, ws);
        return true;
    }

    /**
     * Scripted event kinds in tie order: the drain first, so the
     * trace stamps the cause before its effects, then arrivals, then
     * crashes.
     */
    enum class Event : uint8_t { Drain, Arrival, Crash };

    struct Due
    {
        dam::Cycle at = kNone; ///< the earliest event; kNone if none left
        Event kind = Event::Drain;
        dam::Cycle arrivalAt = kNone; ///< the next arrival on its own
    };

    /** The one reader of the event cursors' heads. */
    Due
    nextDue() const
    {
        const std::array<dam::Cycle, 3> heads = {
            nextDrain_ < cfg_.drainAt.size() ? cfg_.drainAt[nextDrain_]
                                             : kNone,
            nextArrival_ < order_.size() ? order_[nextArrival_]->arrival
                                         : kNone,
            nextDown_ < cfg_.faults.downs.size()
                ? cfg_.faults.downs[nextDown_].failAt
                : kNone,
        };
        // The first minimum: ties go to the earlier kind.
        const auto first = std::min_element(heads.begin(), heads.end());
        return {*first, static_cast<Event>(first - heads.begin()),
                heads[static_cast<size_t>(Event::Arrival)]};
    }

    /** Replay the events due by now_ (by @p until, when earlier)
     *  earliest-first: an arrival before a crash is enqueued (and dies
     *  with the replica), one after the recovery enqueues into the
     *  restarted replica. A crash moves now_ to its recovery. */
    void
    deliverDue(dam::Cycle until = kNone)
    {
        for (Due d = nextDue(); d.at <= std::min(until, now_); d = nextDue()) {
            switch (d.kind) {
              case Event::Drain:
                ++nextDrain_;
                evict(ReqState::Migrated, d.at);
                break;
              case Event::Arrival:
                arrive(*order_[nextArrival_++]);
                break;
              case Event::Crash:
                crash(cfg_.faults.downs[nextDown_++]);
                break;
            }
        }
        horizon_ = std::max(horizon_, std::min(until, now_) + 1);
    }

    void
    arrive(Request& r)
    {
        tel_.arrived(r);
        if (cfg_.faults.downAt(r.arrival)) // connection refused
            terminal(&r, ReqState::Failed, r.arrival);
        else
            batcher_.enqueue(&r);
    }

    void
    crash(const ReplicaFaultTimeline::Down& w)
    {
        tel_.crashed(now_, w);
        evict(ReqState::Failed, now_);
        expectReleased("crash teardown");
        if (cache_) {
            // Its KV blocks died with the replica: fold its stats away
            // and restart cold, so re-routed requests re-prefill.
            foldLostCache(lostCacheStats_, cache_->stats());
            restartCache();
        }
        // Every arrival until the replica is back (forever, for a
        // permanent crash) is refused: refuse them all now, so that the
        // crash's casualties are known when it is delivered.
        const dam::Cycle back = w.recoverAt == 0 ? kNone : w.recoverAt;
        while (nextArrival_ < order_.size() &&
               order_[nextArrival_]->arrival < back)
            arrive(*order_[nextArrival_++]);
        horizon_ = std::max(horizon_, back);
        if (w.recoverAt != 0) {
            // An iteration spanning the whole outage delivers down and
            // up at one boundary; the up is still emitted so the trace's
            // down/up alternation holds.
            now_ = std::max(now_, w.recoverAt);
            tel_.recovered(now_);
        }
    }

    /**
     * Every terminal transition goes through here. An admitted request
     * returns its KV and prefix pin; a finish first caches its full
     * prompt+output stream (the session's next turn prefixes it).
     * Queued, refused and shed requests never held anything.
     */
    void
    terminal(Request* r, ReqState state, dam::Cycle at,
             int64_t kv_tokens = 0)
    {
        if (r->state == ReqState::Prefilling ||
            r->state == ReqState::Decoding) {
            if (cache_ && state == ReqState::Finished)
                cache_->insert(r->blockHashes,
                               static_cast<int64_t>(r->blockHashes.size()));
            if (cache_)
                cache_->release(*r);
            batcher_.release(r);
        }
        r->state = state;
        r->finishedAt = at;
        ++ended_;
        if (state == ReqState::Failed || state == ReqState::Migrated)
            casualties_.push_back(r);
        tel_.terminal(*r, kv_tokens);
    }

    /**
     * Crash (Failed) or slowdown drain (Migrated): running requests end
     * here, queued ones leave too. A drain moves only queued and
     * prefilling requests, handing off their prefill progress as KV;
     * decoding ones finish here at the degraded bandwidth (shipping a
     * half-generated stream costs more than it saves).
     */
    void
    evict(ReqState state, dam::Cycle at)
    {
        const bool drain = state == ReqState::Migrated;
        for (Request* r : std::vector<Request*>(batcher_.running()))
            if (!drain || r->state == ReqState::Prefilling)
                terminal(r, state, at, drain ? r->prefilledTokens : 0);
        for (Request* r : batcher_.drainWaiting()) {
            r->cachedPrefixTokens = 0; // no pin was ever taken
            terminal(r, state, at);
        }
    }

    /** Every KV reservation and prefix pin taken so far — for failed and
     *  shed requests too — has come back. */
    void
    expectReleased(const char* what) const
    {
        STEP_ASSERT(batcher_.kvBytesReserved() == 0,
                    what << " leaked " << batcher_.kvBytesReserved()
                         << " B of KV reservations");
        STEP_ASSERT(!cache_ || cache_->pinnedRequests() == 0,
                    what << " leaked " << cache_->pinnedRequests()
                         << " prefix-cache pins");
    }

    void
    restartCache()
    {
        cache_ = std::make_unique<PrefixCache>(cfg_.prefixCache);
        batcher_.attachPrefixCache(cache_.get());
    }

    /** One admission round at now_. False when nothing runs after it:
     *  then it re-admits after a shed, else waits for an arrival. */
    bool
    admit(int64_t eff_bw)
    {
        AdmissionContext actx;
        actx.now = now_;
        actx.prefillFlopsPerToken = eng_.prefillFlopsPerToken_;
        actx.totalComputeBw = eff_bw;
        actx.nominalComputeBw = cfg_.totalComputeBw;
        const ContinuousBatcher::AdmitResult adm =
            batcher_.admit(cfg_.admission, actx);
        for (Request* r : adm.shed)
            terminal(r, ReqState::Shed, now_);
        tel_.admission(adm, now_);
        if (!batcher_.running().empty())
            return true;
        // Empty machine with a queue: unless this round shed something,
        // the head can never fit the KV budget and no policy sheds it.
        if (batcher_.waitingCount() > 0 && adm.shed.empty())
            throw stall("head-of-line request can never be admitted");
        if (batcher_.waitingCount() == 0 && ended_ < reqs_.size()) {
            const Due next = nextDue();
            if (next.arrivalAt == kNone)
                throw stall("idle with unfinished requests");
            // Idle until the next scripted event (delivered on its own
            // cycle even by a run appended to after it ended), or the
            // barrier, where its cluster may append an earlier arrival.
            now_ = std::min(next.at, until_);
            horizon_ = std::max(horizon_, now_);
        }
        return false;
    }

    /** One batching iteration over the running requests from now_. */
    void
    iterate(int64_t eff_bw, IterationWorkspace& ws)
    {
        LoadSnapshot load;
        load.waitingRequests = batcher_.waitingCount();
        load.waitingPromptTokens = batcher_.waitingPromptTokens();
        decodes_.clear();
        prefills_.clear();
        for (Request* r : batcher_.running()) {
            if (r->state == ReqState::Decoding) {
                decodes_.push_back(r);
            } else {
                prefills_.push_back(r);
                load.pendingPrefillTokens +=
                    r->promptLen - r->prefilledTokens;
            }
        }
        load.activeDecodes = static_cast<int64_t>(decodes_.size());
        const BwSplit split = eng_.policy_.split(load, eff_bw);

        IterationSample s;
        s.start = now_;
        s.prefillBw = split.prefillBw;
        s.decodeBw = split.decodeBw;
        s.decodeBatch = static_cast<int64_t>(decodes_.size());
        uint64_t switches = 0;
        if (!decodes_.empty()) {
            // One decode step for the whole batch: a decoder-layer pass
            // over the current composition, simulated on the substrate.
            IterationSpec spec;
            for (Request* r : decodes_)
                spec.kvLens.push_back(r->contextLen());
            spec.trace = generateExpertTrace(iterRng_, s.decodeBatch,
                                             cfg_.model.numExperts,
                                             cfg_.model.topK);
            dp_.batch = s.decodeBatch;
            dp_.computeBwPerMatmul =
                std::max<int64_t>(16, split.decodeBw / eng_.decodeUnits_);
            dp_.cfg.moeMatmulBw = dp_.computeBwPerMatmul;
            // Graph runs stamp events in graph-local cycles: anchor them
            // on the serving clock (iterations outlast their simulated
            // span, so successive bases stay monotone).
            tel_.graphRunAt(now_);
            static constexpr verify::VerifyOptions kVerifyAll{};
            const SimResult sim = runDecoderIteration(
                dp_, spec, &ws.sched, &ws.graph, &ws.rearm,
                cfg_.verifyGraphs ? &kVerifyAll : nullptr);
            s.length =
                sim.cycles * static_cast<dam::Cycle>(cfg_.model.numLayers);
            s.usefulFlops = sim.totalFlops * cfg_.model.numLayers;
            switches = sim.contextSwitches;
        } else {
            s.length = prefillOnlyCycles(split.prefillBw);
            // Its wake read the event heads: an arrival before its end
            // would have cut it short.
            horizon_ = std::max(horizon_, now_ + s.length);
        }
        const int64_t first_tokens = advancePrefill(s);
        for (Request* r : decodes_) {
            r->generated += 1;
            if (r->generated >= r->outputLen)
                terminal(r, ReqState::Finished, now_ + s.length);
        }
        res_.samples.push_back(s);
        ++res_.iterations;
        now_ += s.length;
        tel_.iteration(s, first_tokens, switches, batcher_, cache_.get());
    }

    /**
     * A prefill-only iteration runs until the head prompt completes, but
     * wakes exactly on the next scripted event, fault-timeline edge or
     * the barrier the run is advanced to, so each lands on the cycle it
     * was scripted at.
     */
    dam::Cycle
    prefillOnlyCycles(int64_t prefill_bw) const
    {
        STEP_ASSERT(prefill_bw > 0,
                    "policy starves prefill with no decode work");
        const auto until_done = static_cast<dam::Cycle>(
            std::ceil(prefillLeft(*prefills_.front()) /
                      static_cast<double>(prefill_bw)));
        // Delivery left every scripted event strictly after now_.
        const dam::Cycle wake = std::min(
            {nextDue().at, cfg_.faults.nextEventAfter(now_), until_});
        STEP_ASSERT(wake > now_, "event at " << wake << " undelivered");
        return std::min(std::max<dam::Cycle>(1, until_done), wake - now_);
    }

    /**
     * Prefill progress, FIFO and analytic: the prompts share @p s's
     * prefill budget in order; adds the tokens and flops used to @p s.
     * Returns how many prompts completed, each emitting its first token
     * where inside the iteration it did.
     */
    int64_t
    advancePrefill(IterationSample& s)
    {
        double budget =
            static_cast<double>(s.prefillBw) * static_cast<double>(s.length);
        double consumed = 0.0;
        int64_t first_tokens = 0;
        for (Request* r : prefills_) {
            if (budget <= 0.0)
                break;
            const double need = prefillLeft(*r);
            const double use = std::min(need, budget);
            budget -= use;
            consumed += use;
            r->prefillFlopsDone += use;
            const int64_t tok_before = r->prefilledTokens;
            r->prefilledTokens = std::min(
                r->promptLen,
                r->prefillSkipTokens() +
                    static_cast<int64_t>(r->prefillFlopsDone /
                                         eng_.prefillFlopsPerToken_));
            s.prefillTokens += r->prefilledTokens - tok_before;
            if (use < need)
                continue;
            const auto offset = static_cast<dam::Cycle>(
                std::ceil(consumed / static_cast<double>(s.prefillBw)));
            r->firstTokenAt = now_ + std::min(offset, s.length);
            r->generated = 1;
            ++first_tokens;
            r->state = ReqState::Decoding;
            tel_.firstToken(*r);
            // The completed prompt prefix becomes cacheable for the
            // session's (or any prefix-sharing) next request.
            if (cache_)
                cache_->insert(r->blockHashes, r->promptBlocks);
            if (r->generated >= r->outputLen)
                terminal(r, ReqState::Finished, r->firstTokenAt);
        }
        s.usefulFlops += static_cast<int64_t>(consumed);
        return first_tokens;
    }

    /** Prefill flops @p r still needs: only the suffix that is neither
     *  cached nor migrated in (>= 1 token, see prefillSkipTokens). */
    double
    prefillLeft(const Request& r) const
    {
        return static_cast<double>(r.promptLen - r.prefillSkipTokens()) *
                   eng_.prefillFlopsPerToken_ -
               r.prefillFlopsDone;
    }

    /** Structured stall report: what was blocked and what held the
     *  channels (KV reservations, cache pins). */
    StallError
    stall(std::string reason) const
    {
        StallDiagnostic d;
        d.reason = std::move(reason);
        d.now = now_;
        d.iterations = res_.iterations;
        d.runningRequests = static_cast<int64_t>(batcher_.running().size());
        d.kvReservedBytes = batcher_.kvBytesReserved();
        d.kvBudgetBytes = batcher_.kvBudgetBytes();
        if (cache_) {
            d.cachePinnedRequests = cache_->pinnedRequests();
            d.cacheOccupancyTokens = cache_->occupancyTokens();
        }
        for (const Request* r : batcher_.waiting())
            d.blocked.push_back({r->id, r->promptLen, r->outputLen,
                                 r->kvReservationTokens() *
                                     cfg_.batcher.kvBytesPerToken,
                                 r->arrival});
        return StallError(std::move(d));
    }

    const ServingEngine& eng_;
    const EngineConfig& cfg_;
    /** Requests by slot; a deque, so appends keep every address. */
    std::deque<Request> reqs_;
    /** The requests in delivery order: by arrival, appends after equal
     *  arrivals (an append refused on arrival is not in it). */
    std::vector<Request*> order_;
    ContinuousBatcher batcher_;
    std::unique_ptr<PrefixCache> cache_;
    Rng iterRng_;
    Recorder tel_;
    DecoderParams dp_; ///< per-iteration fields patched each decode
    EngineResult res_;
    PrefixCacheStats lostCacheStats_; ///< of caches lost to crashes
    obs::TraceSink* opSink_; ///< the scheduler's, at level >= Op
    // Event cursors: next arrival (into order_), crash, drain.
    size_t nextArrival_ = 0;
    size_t nextDown_ = 0;
    size_t nextDrain_ = 0;
    size_t ended_ = 0; ///< requests in a terminal state
    dam::Cycle now_ = 0;
    /** The barrier advance() steps toward: a prefill-only wake or an
     *  idle jump stops there. */
    dam::Cycle until_ = kNone;
    /** The run so far read the event schedule up to here: an arrival
     *  added at or after it cannot have changed anything yet. */
    dam::Cycle horizon_ = 0;
    /** A barrier delivery stopped short of now_: the next step delivers
     *  the rest, as the one delivery of a cold run would, even once
     *  every request has ended. */
    bool cut_ = false;
    /** Failed or migrated since takeCasualties() last ran. */
    std::vector<const Request*> casualties_;
    std::vector<Request*> decodes_; ///< this iteration's, by phase
    std::vector<Request*> prefills_;
};

ServingEngine::Run::Run(const ServingEngine& engine, std::vector<Request> input)
    : impl_(std::make_unique<Impl>(engine, std::move(input)))
{
}

ServingEngine::Run::~Run() = default;
ServingEngine::Run::Run(Run&&) noexcept = default;
ServingEngine::Run& ServingEngine::Run::operator=(Run&&) noexcept = default;

int64_t
ServingEngine::Run::advance(dam::Cycle until, IterationWorkspace& ws)
{
    return impl_->advance(until, ws);
}

void
ServingEngine::Run::deliverUntil(dam::Cycle at)
{
    impl_->deliverUntil(at);
}

dam::Cycle
ServingEngine::Run::horizon() const
{
    return impl_->horizon();
}

void
ServingEngine::Run::append(Request r)
{
    impl_->append(std::move(r));
}

bool
ServingEngine::Run::ended() const
{
    return impl_->ended();
}

std::vector<size_t>
ServingEngine::Run::takeCasualties()
{
    return impl_->takeCasualties();
}

size_t
ServingEngine::Run::size() const
{
    return impl_->size();
}

const Request&
ServingEngine::Run::request(size_t slot) const
{
    return impl_->request(slot);
}

EngineResult
ServingEngine::Run::finish(std::vector<Request>& reqs)
{
    return impl_->finish(reqs);
}

EngineResult
ServingEngine::run(std::vector<Request>& reqs)
{
    if (!ws_)
        ws_ = std::make_unique<IterationWorkspace>();
    Run r(*this, std::move(reqs));
    r.advance(kNone, *ws_);
    return r.finish(reqs);
}

} // namespace step::runtime
