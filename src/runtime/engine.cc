#include "runtime/engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <optional>

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
 * hooks, counter updates and metric samples as kQuantities declares.
 * With nothing attached each event is one predicted branch and
 * computes nothing.
 */
class Recorder
{
  public:
    Recorder(obs::TraceSink* trace, obs::MetricsRegistry* metrics,
             const SloConfig& slo)
        : trace_(trace), metrics_(metrics), slo_(slo),
          on_(trace != nullptr || metrics != nullptr)
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
        if (!on_) [[likely]]
            return;
        if (trace_)
            trace_->reqFirstToken(r.id, r.attempt, r.firstTokenAt);
        record(TtftCycles, r.firstTokenAt,
               static_cast<int64_t>(r.firstTokenAt - r.arrival));
    }

    /**
     * @p r reached its terminal state at r.finishedAt. A migration hands
     * off @p kv_tokens of computed KV: the counter counts the handoff,
     * the series records the tokens.
     */
    void
    terminal(const Request& r, int64_t kv_tokens)
    {
        if (!on_) [[likely]]
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
                if (slo_.meets(r))
                    record(SloGoodTokens, at, r.generated);
            }
            break;
          case ReqState::Failed:
            if (trace_)
                trace_->reqFailed(r.id, r.attempt, at);
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

    void
    clusterInstant(const ClusterInstant& ci)
    {
        if (trace_) [[unlikely]]
            trace_->instant(clusterInstantName(ci.kind), ci.at, -1,
                            ci.value);
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
        if (!on_) [[likely]]
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
            applySloWindows(s, *metrics_, slo_);
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
    const SloConfig& slo_;
    const bool on_;
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

EngineConfig::EngineConfig() : model(servingSimConfig()) {}

ServingEngine::ServingEngine(EngineConfig cfg, const Policy& policy)
    : cfg_(std::move(cfg)), policy_(policy)
{
    if (cfg_.numLayers == 0)
        cfg_.numLayers = cfg_.model.numLayers;
    if (cfg_.batcher.kvBytesPerToken == 0)
        cfg_.batcher.kvBytesPerToken = cfg_.model.kvBytesPerToken();
    STEP_ASSERT(cfg_.totalComputeBw >= 2,
                "bandwidth pool too small to split");
    STEP_ASSERT(cfg_.numLayers > 0, "layer count must be positive");
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

EngineResult
ServingEngine::run(std::vector<Request>& reqs)
{
    STEP_ASSERT(std::is_sorted(reqs.begin(), reqs.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival < b.arrival;
                               }),
                "request trace must be sorted by arrival");

    ContinuousBatcher batcher(cfg_.batcher);
    // Fresh cold cache per run: replays of one engine stay bit-identical.
    std::unique_ptr<PrefixCache> cache;
    if (cfg_.prefixCache.capacityTokens > 0) {
        cache = std::make_unique<PrefixCache>(cfg_.prefixCache);
        batcher.attachPrefixCache(cache.get());
    }
    EngineResult res;
    Rng iter_rng(cfg_.seed);
    const double fpt =
        static_cast<double>(prefillFlopsPerToken(cfg_.model, cfg_.numLayers));

    // Tracing: scheduler events only matter at level >= Op, so the
    // per-resume branch in dam::Scheduler::drain stays cold below it.
    sched_.setTraceSink(trace_ && trace_->level() >= obs::TraceLevel::Op
                            ? trace_
                            : nullptr);
    Recorder tel(trace_, metrics_, cfg_.slo);

    // ---- fault tier ---------------------------------------------------
    const ReplicaFaultTimeline& faults = cfg_.faults;
    const bool have_faults = !faults.empty();
    // Stats of caches dropped by crashes, folded into the summary tail.
    PrefixCacheStats lostCacheStats;

    // ---- resilience tier ---------------------------------------------
    // Slowdown-drain edges: the cycle each qualifying slowdown window
    // has been observed long enough to trigger live migration.
    // Precomputed from the (already normalized, start-sorted) timeline —
    // data, like the fault plan itself.
    std::vector<dam::Cycle> drain_edges;
    if (cfg_.drain.enabled)
        for (const auto& s : faults.slowdowns)
            if (s.factor <= cfg_.drain.openBelowFactor &&
                s.end - s.start > cfg_.drain.detectCycles)
                drain_edges.push_back(s.start + cfg_.drain.detectCycles);
    size_t drain_idx = 0;
    size_t instant_idx = 0; ///< next cfg_.clusterInstants to emit

    // Every terminal transition goes through here. A finish returns its
    // own holdings: it caches the full prompt+output stream (the
    // session's next turn prefixes it), drops its pin and frees its KV.
    // Crashes and drains release wholesale first (evict), and shed
    // requests never held anything.
    int64_t ended = 0;
    auto terminal = [&](Request* r, ReqState state, dam::Cycle at,
                        int64_t kv_tokens = 0) {
        r->state = state;
        r->finishedAt = at;
        if (state == ReqState::Finished) {
            if (cache) {
                cache->insert(r->blockHashes,
                              static_cast<int64_t>(r->blockHashes.size()));
                cache->release(*r);
            }
            batcher.release(r);
        }
        ++ended;
        tel.terminal(*r, kv_tokens);
    };
    // Crash (Failed) or slowdown drain (Migrated): running requests
    // return their KV and pins, queued ones leave too. A drain moves only
    // queued and prefilling requests, handing off their prefill progress
    // as KV; decoding ones finish here at the degraded bandwidth
    // (shipping a half-generated stream costs more than it saves).
    auto evict = [&](ReqState state, dam::Cycle at) {
        const bool drain = state == ReqState::Migrated;
        const std::vector<Request*> running(batcher.running());
        for (Request* r : running) {
            if (drain && r->state != ReqState::Prefilling)
                continue;
            if (cache)
                cache->release(*r);
            batcher.release(r);
            terminal(r, state, at, drain ? r->prefilledTokens : 0);
        }
        for (Request* r : batcher.drainWaiting()) {
            r->cachedPrefixTokens = 0; // no pin was ever taken
            terminal(r, state, at);
        }
    };

    // Iteration-graph parameters shared across iterations; the per-
    // iteration pieces are the batch's KV lengths, the expert trace, and
    // the policy-assigned matmul bandwidth.
    DecoderParams dp;
    dp.cfg = cfg_.model;
    dp.attnStrategy = cfg_.attnStrategy;
    dp.attnRegions = cfg_.attnRegions;
    dp.kvTileRows = cfg_.kvTileRows;
    dp.moeRegions = cfg_.moeRegions;
    dp.moeTile = cfg_.moeTile;
    dp.denseTile = cfg_.denseTile;
    dp.weightTileCols = cfg_.weightTileCols;
    dp.seed = cfg_.seed;
    // Matmul pipelines the decode share is spread over: the two dense
    // projections, the attention regions, and the MoE regions.
    const int64_t decode_units =
        2 + cfg_.attnRegions +
        (cfg_.moeRegions > 0 ? cfg_.moeRegions : cfg_.model.numExperts);
    // Prefill flops @p r still needs. Only the uncached suffix costs any:
    // the cached prefix's KV is already resident, and migrated-in KV
    // skips compute the same way (>= 1 suffix token always remains, see
    // Request::prefillSkipTokens).
    auto prefill_left = [&](const Request& r) {
        return static_cast<double>(r.promptLen - r.prefillSkipTokens()) *
                   fpt -
               r.prefillFlopsDone;
    };

    dam::Cycle now = 0;
    size_t next_arrival = 0;
    size_t down_idx = 0; ///< next unprocessed crash window
    const auto total = static_cast<int64_t>(reqs.size());

    // Structured stall reporting: dump what was blocked and what held
    // the channels (KV reservations, cache pins), then unwind.
    auto buildStall = [&](std::string reason) {
        StallDiagnostic d;
        d.reason = std::move(reason);
        d.now = now;
        d.iterations = res.iterations;
        d.runningRequests = static_cast<int64_t>(batcher.running().size());
        d.kvReservedBytes = batcher.kvBytesReserved();
        d.kvBudgetBytes = batcher.kvBudgetBytes();
        if (cache) {
            d.cachePinnedRequests = cache->pinnedRequests();
            d.cacheOccupancyTokens = cache->occupancyTokens();
        }
        for (const Request* r : batcher.waiting())
            d.blocked.push_back({r->id, r->promptLen, r->outputLen,
                                 r->kvReservationTokens() *
                                     cfg_.batcher.kvBytesPerToken,
                                 r->arrival});
        return StallError(std::move(d));
    };

    while (ended < total) {
        if (res.iterations >= kMaxIterations)
            throw buildStall("iteration bound exceeded without progress");

        // ---- deliver due events in cycle order -----------------------
        // Arrivals, crashes and resilience events (cluster instants,
        // drain triggers) can lie anywhere inside the iteration that
        // just ended, so they are replayed earliest-first: an arrival
        // before a crash is enqueued (and then dies with the replica),
        // one after the recovery enqueues into the restarted replica.
        // Ties go to resilience events, so the trace stamps the cause
        // (breaker flip, drain trigger) before its effects, then to
        // arrivals.
        while (true) {
            const dam::Cycle inst_at =
                instant_idx < cfg_.clusterInstants.size()
                    ? cfg_.clusterInstants[instant_idx].at
                    : kNone;
            const dam::Cycle drain_at =
                drain_idx < drain_edges.size() ? drain_edges[drain_idx]
                                               : kNone;
            const dam::Cycle arr_at = next_arrival < reqs.size()
                                          ? reqs[next_arrival].arrival
                                          : kNone;
            const dam::Cycle crash_at = down_idx < faults.downs.size()
                                            ? faults.downs[down_idx].failAt
                                            : kNone;
            const dam::Cycle next =
                std::min({inst_at, drain_at, arr_at, crash_at});
            if (next > now)
                break;
            if (inst_at == next) {
                tel.clusterInstant(cfg_.clusterInstants[instant_idx++]);
            } else if (drain_at == next) {
                ++drain_idx;
                evict(ReqState::Migrated, next);
            } else if (arr_at == next) {
                Request& r = reqs[next_arrival++];
                tel.arrived(r);
                if (have_faults && faults.downAt(r.arrival)) {
                    // Connection refused: the replica was down when the
                    // request arrived.
                    terminal(&r, ReqState::Failed, r.arrival);
                } else {
                    batcher.enqueue(&r);
                }
            } else {
                const ReplicaFaultTimeline::Down w =
                    faults.downs[down_idx++];
                tel.crashed(now, w);
                evict(ReqState::Failed, now);
                STEP_ASSERT(batcher.kvBytesReserved() == 0,
                            "crash teardown leaked "
                                << batcher.kvBytesReserved()
                                << " B of KV reservations");
                if (cache) {
                    STEP_ASSERT(cache->pinnedRequests() == 0,
                                "crash teardown leaked "
                                    << cache->pinnedRequests()
                                    << " prefix-cache pins");
                    // The cache's KV blocks died with the replica:
                    // fold its stats away and restart cold, so
                    // re-routed requests re-prefill from scratch.
                    foldLostCache(lostCacheStats, cache->stats());
                    cache = std::make_unique<PrefixCache>(
                        cfg_.prefixCache);
                    batcher.attachPrefixCache(cache.get());
                }
                if (w.recoverAt == 0) {
                    // Dead forever: every remaining arrival is refused
                    // the moment it shows up.
                    while (next_arrival < reqs.size()) {
                        Request& r = reqs[next_arrival++];
                        tel.arrived(r);
                        terminal(&r, ReqState::Failed, r.arrival);
                    }
                } else {
                    // If the iteration that just ended spans the whole
                    // outage, down and up are delivered at the same
                    // boundary; the up is still emitted so the trace's
                    // down/up alternation invariant holds.
                    now = std::max(now, w.recoverAt);
                    tel.recovered(now);
                }
            }
        }
        if (ended >= total)
            break;

        // Slowdown windows scale the bandwidth pool this iteration
        // splits (>= 2 so the policy can always split something).
        int64_t eff_bw = cfg_.totalComputeBw;
        if (have_faults) {
            const double f = faults.bwFactorAt(now);
            if (f < 1.0)
                eff_bw = std::max<int64_t>(
                    2, static_cast<int64_t>(std::llround(
                           static_cast<double>(cfg_.totalComputeBw) * f)));
        }

        AdmissionContext actx;
        actx.now = now;
        actx.prefillFlopsPerToken = fpt;
        actx.totalComputeBw = eff_bw;
        actx.nominalComputeBw = cfg_.totalComputeBw;
        // Idle-TTL sweep before admission: entries that expire this
        // round cannot be hit by this round's lookups (TTL 0 = off and
        // the calls are never reached).
        if (cache && cfg_.prefixCache.idleTtlCycles > 0) {
            cache->setClock(now);
            cache->evictIdle();
        }
        const ContinuousBatcher::AdmitResult adm =
            batcher.admit(cfg_.admission, actx);
        for (Request* r : adm.shed)
            terminal(r, ReqState::Shed, now);
        tel.admission(adm, now);

        if (batcher.running().empty()) {
            if (batcher.waitingCount() > 0) {
                if (!adm.shed.empty())
                    continue; // shedding made progress; re-admit
                // Empty machine, nothing admitted: the head can never
                // fit the KV budget and no policy sheds it.
                throw buildStall(
                    "head-of-line request can never be admitted");
            }
            if (ended >= total)
                break;
            if (next_arrival >= reqs.size())
                throw buildStall("idle with unfinished requests");
            now = reqs[next_arrival].arrival;
            continue;
        }

        // ---- policy decision for this iteration ----------------------
        LoadSnapshot load;
        load.waitingRequests = batcher.waitingCount();
        load.waitingPromptTokens = batcher.waitingPromptTokens();
        std::vector<Request*> decodes;
        std::vector<Request*> prefills;
        for (Request* r : batcher.running()) {
            if (r->state == ReqState::Decoding) {
                decodes.push_back(r);
            } else {
                prefills.push_back(r);
                load.pendingPrefillTokens +=
                    r->promptLen - r->prefilledTokens;
            }
        }
        load.activeDecodes = static_cast<int64_t>(decodes.size());
        BwSplit split = policy_.split(load, eff_bw);

        // ---- iteration length ---------------------------------------
        dam::Cycle iter_cycles = 0;
        int64_t decode_flops = 0;
        uint64_t switches = 0;
        if (!decodes.empty()) {
            // One decode step for the whole batch: a decoder-layer pass
            // over the current composition, simulated on the substrate.
            IterationSpec spec;
            for (Request* r : decodes)
                spec.kvLens.push_back(r->contextLen());
            spec.trace = generateExpertTrace(
                iter_rng, static_cast<int64_t>(decodes.size()),
                cfg_.model.numExperts, cfg_.model.topK);
            dp.batch = static_cast<int64_t>(decodes.size());
            dp.computeBwPerMatmul = std::max<int64_t>(
                16, split.decodeBw / decode_units);
            dp.cfg.moeMatmulBw = dp.computeBwPerMatmul;
            if (cfg_.recycleGraphs && !iterGraph_)
                iterGraph_ = std::make_unique<Graph>(SimConfig{},
                                                     &arena_);
            // Graph runs stamp events in graph-local cycles; anchor them
            // on the serving timeline. iter_cycles >= the simulated
            // span, so successive bases stay monotone.
            tel.graphRunAt(now);
            static constexpr verify::VerifyOptions kVerifyAll{};
            SimResult sim = runDecoderIteration(
                dp, spec, &sched_,
                cfg_.recycleGraphs ? iterGraph_.get() : nullptr,
                cfg_.recycleGraphs ? &rearmHandles_ : nullptr,
                cfg_.verifyGraphs ? &kVerifyAll : nullptr);
            iter_cycles = sim.cycles * static_cast<dam::Cycle>(
                cfg_.numLayers);
            decode_flops = sim.totalFlops * cfg_.numLayers;
            switches = sim.contextSwitches;
        } else {
            // Prefill-only iteration: run until the head request's
            // prompt completes, but wake up for the next arrival.
            STEP_ASSERT(split.prefillBw > 0,
                        "policy starves prefill with no decode work");
            iter_cycles = static_cast<dam::Cycle>(
                std::ceil(prefill_left(*prefills.front()) /
                          static_cast<double>(split.prefillBw)));
            iter_cycles = std::max<dam::Cycle>(1, iter_cycles);
            // Wake for the next arrival, and exactly on fault-timeline
            // and resilience edges (drain triggers, cluster instants) so
            // crashes, bandwidth changes and drains land on the cycle
            // they were scripted at.
            auto wake_by = [&](dam::Cycle edge) {
                if (edge > now)
                    iter_cycles = std::max<dam::Cycle>(
                        1, std::min(iter_cycles, edge - now));
            };
            if (next_arrival < reqs.size())
                wake_by(reqs[next_arrival].arrival);
            if (have_faults)
                wake_by(faults.nextEventAfter(now));
            if (drain_idx < drain_edges.size())
                wake_by(drain_edges[drain_idx]);
            if (instant_idx < cfg_.clusterInstants.size())
                wake_by(cfg_.clusterInstants[instant_idx].at);
        }

        // ---- prefill progress (FIFO, analytic) ----------------------
        double budget = static_cast<double>(split.prefillBw) *
                        static_cast<double>(iter_cycles);
        double consumed = 0.0;
        int64_t prefilled_tokens = 0;
        int64_t first_tokens = 0;
        for (Request* r : prefills) {
            if (budget <= 0.0)
                break;
            const double need = prefill_left(*r);
            double use = std::min(need, budget);
            budget -= use;
            consumed += use;
            r->prefillFlopsDone += use;
            int64_t tok_before = r->prefilledTokens;
            r->prefilledTokens = std::min(
                r->promptLen,
                r->prefillSkipTokens() +
                    static_cast<int64_t>(r->prefillFlopsDone / fpt));
            prefilled_tokens += r->prefilledTokens - tok_before;
            if (use >= need) {
                // Prompt done: the first output token is emitted at the
                // point inside the iteration where its prefill finished.
                auto offset = static_cast<dam::Cycle>(std::ceil(
                    consumed / static_cast<double>(split.prefillBw)));
                r->firstTokenAt =
                    now + std::min(offset, iter_cycles);
                r->generated = 1;
                ++first_tokens;
                r->state = ReqState::Decoding;
                tel.firstToken(*r);
                // The completed prompt prefix becomes cacheable for the
                // session's (or any prefix-sharing) next request.
                if (cache)
                    cache->insert(r->blockHashes, r->promptBlocks);
                if (r->generated >= r->outputLen)
                    terminal(r, ReqState::Finished, r->firstTokenAt);
            }
        }

        // ---- decode progress ----------------------------------------
        for (Request* r : decodes) {
            r->generated += 1;
            if (r->generated >= r->outputLen)
                terminal(r, ReqState::Finished, now + iter_cycles);
        }

        // ---- accounting ---------------------------------------------
        IterationSample sample;
        sample.start = now;
        sample.length = iter_cycles;
        sample.prefillBw = split.prefillBw;
        sample.decodeBw = split.decodeBw;
        sample.usefulFlops =
            decode_flops + static_cast<int64_t>(consumed);
        sample.decodeBatch = static_cast<int64_t>(decodes.size());
        sample.prefillTokens = prefilled_tokens;
        res.timeline.record(sample);
        ++res.iterations;

        now += iter_cycles;

        tel.iteration(sample, first_tokens, switches, batcher, cache.get());
    }

    // Abort-path accounting invariant: every KV reservation and prefix
    // pin taken during the run — including ones for requests that
    // failed or were shed — must have been returned.
    STEP_ASSERT(batcher.kvBytesReserved() == 0,
                "run ended with " << batcher.kvBytesReserved()
                                  << " B of KV still reserved");
    if (cache)
        STEP_ASSERT(cache->pinnedRequests() == 0,
                    "run ended with " << cache->pinnedRequests()
                                      << " prefix-cache pins held");

    res.summary = summarize(reqs, res.timeline.span(), cfg_.slo);
    res.summary.computeUtilization =
        res.timeline.computeUtilization(cfg_.totalComputeBw);
    if (cache) {
        PrefixCacheStats st = cache->stats();
        foldLostCache(st, lostCacheStats);
        res.summary.prefixLookups = st.lookups;
        res.summary.prefixHits = st.hits;
        res.summary.prefixTokensSaved = st.tokensSaved;
        res.summary.prefixPeakOccupancyTokens = st.peakOccupancyTokens;
        // A single engine is its own busiest replica.
        res.summary.prefixPeakOccupancyMaxReplica =
            st.peakOccupancyTokens;
        // summarize ran before the cache counters were attached.
        refreshPrefixDerivedStats(res.summary);
    }
    tel.summarize(res.summary);
    return res;
}

} // namespace step::runtime
