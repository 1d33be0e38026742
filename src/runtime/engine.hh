/**
 * @file
 * Continuous-batching serving engine on the DAM substrate. Per batching
 * iteration the engine (1) admits arrivals through the KV-budgeted
 * batcher — with the prefix cache enabled, admission charges KV and
 * prefill only for the prompt suffix the cache does not already hold —
 * (2) asks the active dynamic-parallelism policy to split the compute
 * bandwidth between prefill and decode, (3) instantiates one
 * decoder-layer STeP graph for the *current* decode-batch composition
 * (per-request KV lengths + a fresh expert-routing trace) and runs it
 * through a reused dam::Scheduler, and (4) advances per-request state,
 * recording TTFT/TPOT events and inserting completed prefixes back into
 * the cache. Prefill progress is modeled analytically at the
 * policy-allocated bandwidth (prefill is dense and static — the
 * dynamism the simulated graphs must capture lives in decode).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/batcher.hh"
#include "runtime/faults.hh"
#include "runtime/metrics.hh"
#include "runtime/policy.hh"
#include "runtime/prefixcache.hh"
#include "runtime/request.hh"
#include "runtime/resilience.hh"
#include "workloads/decoder.hh"

namespace step::obs {
class TraceSink;
class MetricsRegistry;
}

namespace step::runtime {

struct EngineConfig
{
    /** Its numLayers scale the per-layer iteration cycles. */
    ModelConfig model;
    /** Compute-bandwidth pool the policy splits (FLOPs/cycle). */
    int64_t totalComputeBw = 8192;

    // ---- iteration-graph layout (see DecoderParams), fixed -----------
    static constexpr ParStrategy attnStrategy = ParStrategy::Dynamic;
    static constexpr int64_t attnRegions = 4;
    static constexpr int64_t kvTileRows = 32;
    static constexpr int64_t moeRegions = 4;
    static constexpr int64_t moeTile = 16;
    static constexpr int64_t denseTile = 16;
    static constexpr int64_t weightTileCols = 64;

    BatcherConfig batcher; ///< KV budget and bytes per token (> 0)
    /**
     * KV prefix cache (capacityTokens 0 = disabled, the default — the
     * engine is then bit-identical to a cache-less build). When
     * enabled, admission charges prefill flops and KV reservation only
     * for the uncached suffix, completed prefixes are inserted back,
     * and ServingSummary reports hit-rate / tokens-saved / occupancy.
     * Each run() starts with a cold cache so replays stay seeded.
     */
    PrefixCacheConfig prefixCache;
    uint64_t seed = 42;

    /**
     * This replica's fault timeline (empty = fault-free, the default —
     * the engine is then bit-identical to a fault-less build). A crash
     * fails every in-flight and queued request, releases their KV
     * reservations and prefix-cache pins, and drops the cache (its KV
     * content died with the replica); arrivals during downtime are
     * refused on arrival. Slowdown windows scale totalComputeBw by
     * their factor. Faults take effect at iteration boundaries (the
     * engine's event granularity); analytic prefill iterations are
     * clamped to the next timeline edge so bandwidth changes land on
     * exact cycles.
     */
    ReplicaFaultTimeline faults;
    /**
     * Admission/shedding policy consulted per waiting request at every
     * admission round (not owned; may be null = never shed). See
     * AdmissionPolicy; with one attached, requests that could never fit
     * the KV budget are shed instead of stalling the engine.
     */
    const AdmissionPolicy* admission = nullptr;

    /**
     * Live-migration drain cycles, sorted (empty = none, the default).
     * At each, queued and prefilling requests leave in state Migrated
     * (with finishedAt and their prefill progress as the KV tokens to
     * hand off) for the cluster to reschedule; decoding requests stay
     * and finish locally. Executed like the crashes in `faults`: a
     * resilient cluster fills it from its slowdownTrips' starts.
     */
    std::vector<dam::Cycle> drainAt;

    /**
     * Statically verify every freshly built iteration graph — the first
     * build, and a rebuild after a structural-key change; batch changes
     * rearm a graph whose symbolic shapes the first verification
     * already covers — before running it (src/verify; error findings
     * are fatal). Read-only, so enabling it
     * is byte-identical to disabling it on a well-formed graph; on by
     * default in debug builds, opt-in (--verify on the sims) elsewhere.
     */
#ifndef NDEBUG
    bool verifyGraphs = true;
#else
    bool verifyGraphs = false;
#endif

    EngineConfig();
};

/**
 * The iteration-graph parameters an engine built from @p cfg runs: its
 * structural knobs, with the per-iteration fields (batch, matmul
 * bandwidth) at their defaults. Benches that drive the decoder graph
 * directly take it from here, so they measure the graph the engine
 * actually runs.
 */
DecoderParams decoderParams(const EngineConfig& cfg);

/** One batching iteration: its bandwidth split, batch and useful work. */
struct IterationSample
{
    dam::Cycle start = 0;
    dam::Cycle length = 0;
    int64_t prefillBw = 0;      ///< FLOPs/cycle given to prefill
    int64_t decodeBw = 0;       ///< FLOPs/cycle given to decode
    int64_t usefulFlops = 0;    ///< prefill + decode FLOPs this iteration
    int64_t decodeBatch = 0;    ///< decode requests in the batch
    int64_t prefillTokens = 0;  ///< prompt tokens prefilled this iteration

    bool operator==(const IterationSample&) const = default;
};

struct EngineResult
{
    ServingSummary summary;
    /** Every iteration the run executed, in record order. */
    std::vector<IterationSample> samples;
    int64_t iterations = 0;
};

/**
 * The cycles at which @p cfg's replica can first fail or drain a
 * request — each crash and each drain — so that every casualty of this
 * replica fails at or after one of them.
 */
std::vector<dam::Cycle> failureEdges(const EngineConfig& cfg);

/** @p cfg's fault edges as a cluster's barriers: its failureEdges and
 *  each recovery, sorted and unique. */
std::vector<dam::Cycle> faultBarriers(const EngineConfig& cfg);

/**
 * Analytic prefill cost of one prompt token across @p num_layers layers
 * (QKV + output projections and the top-K expert FFN; prompt attention
 * is projection-dominated and left out of the model). Shared by the
 * engine's prefill accounting and the cluster router's service-time
 * estimates.
 */
int64_t prefillFlopsPerToken(const ModelConfig& m, int64_t num_layers);

/**
 * What stepping a run needs besides the run's own state: the scheduler
 * and the recycled iteration graph with its arena and rearm handles. A
 * run borrows one per step, so one workspace serves any number of runs
 * in turn; a cluster keeps one per worker thread and lends it to
 * whichever replica that worker steps. Sharing never shows in the
 * output: the decoder's structural key holds no per-replica field, so a
 * graph one replica built rearms for another, and a rearm is
 * bit-identical to a cold build.
 */
struct IterationWorkspace
{
    dam::Scheduler sched;
    Graph graph; ///< owns its arena
    /** While the structural key is stable — batch and replica changes
     *  included — iterations patch `graph` in place. */
    DecoderRearmHandles rearm;
};

class ServingEngine
{
  public:
    ServingEngine(EngineConfig cfg, const Policy& policy);

    /**
     * Serve @p reqs (mutated in place: states, TTFT/finish stamps) until
     * every request reaches a terminal state — Finished, Failed/Shed
     * under the fault tier, or Migrated when a slowdown drain hands the
     * request off for the cluster to reschedule. Deterministic for fixed
     * (config, policy, trace). Throws StallError (with a scheduler-state
     * diagnostic) when no admission progress is possible, e.g. a
     * head-of-line request that can never fit the KV budget with no
     * admission policy attached to shed it. The same as a Run over
     * @p reqs advanced to its end.
     */
    EngineResult run(std::vector<Request>& reqs);

    class Run;

    /**
     * Attach (or detach, with nullptr) a trace sink. Runs then report
     * request lifecycle instants, register every engine counter —
     * engine, fault and resilience tiers alike, whether or not the run
     * uses them — sample them each iteration and snapshot them into
     * ServingSummary::counters, and at level >= Op forward the
     * iteration graphs' scheduler events with the engine clock as time
     * base. The sink must outlive the engine's runs.
     */
    void attachTrace(obs::TraceSink* sink) { trace_ = sink; }

    /**
     * Attach (or detach, with nullptr) a metrics registry. Runs then
     * register the engine's instrument set (TTFT/TPOT histograms,
     * per-iteration gauges, lifecycle event series — see README),
     * record into it at iteration boundaries and lifecycle events, and
     * fill the summary's windowed-SLO fields. Quantities both exporters
     * carry are recorded by one call, so final counters and series
     * agree. Neither exporter influences control flow: attaching one
     * changes no other output byte, and with none attached each hook
     * costs one predicted branch (the hot path stays allocation-free).
     */
    void attachMetrics(obs::MetricsRegistry* m) { metrics_ = m; }

    /** Attach (or detach) a health monitor, which runs then report
     *  each failed request and first token to; like the exporters, it
     *  never changes what they do. It must outlive the runs. */
    void attachHealth(HealthMonitor* h) { health_ = h; }

  private:
    EngineConfig cfg_;
    const Policy& policy_;
    DecoderParams baseParams_; ///< cfg_'s iteration-graph params
    int64_t decodeUnits_ = 0;  ///< matmul pipelines sharing decode bw
    double prefillFlopsPerToken_ = 0; ///< of cfg_'s model and layers
    obs::TraceSink* trace_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
    HealthMonitor* health_ = nullptr;
    /** run()'s, made on first use (a cluster's replicas borrow their
     *  workers' instead). */
    std::unique_ptr<IterationWorkspace> ws_;
};

/**
 * One replica's run, stepped from outside. A cluster keeps one per
 * replica for the whole cluster run and advances them epoch by epoch
 * between its barriers (the cluster's fault edges):
 *   - advance(E) steps while the clock is before barrier E. Prefill-only
 *     wakes and idle jumps stop at E, so the run reads no event past it;
 *   - a replica with a crash or drain at E delivers the events due by E
 *     (deliverUntil), and its casualties come out of takeCasualties();
 *   - the coordinator appends each incarnation it grants to its target's
 *     run. An arrival at or after horizon() cannot have changed anything
 *     the run did so far, and append() asserts that it is.
 * So a run that took appends ends exactly as a fresh run over its final
 * input (its requests by arrival, appends after equal arrivals) advanced
 * through the same barriers, with no delivery or append between them,
 * would. With no barrier that is ServingEngine::run. One exception: an
 * append inside an outage the run already delivered is refused when
 * appended, where the fresh run refuses it with the crash, so its trace
 * records come later.
 */
class ServingEngine::Run
{
  public:
    /** Serve @p input (sorted by arrival) from cycle 0 with @p engine's
     *  config, policy and exporters; @p engine must outlive the run. */
    Run(const ServingEngine& engine, std::vector<Request> input);
    ~Run();
    Run(Run&&) noexcept;
    Run& operator=(Run&&) noexcept;

    /** Step on @p ws while the clock is before @p until and a request is
     *  still open; a prefill-only wake or an idle jump stops at
     *  @p until. Returns the iterations run. */
    int64_t advance(dam::Cycle until, IterationWorkspace& ws);
    /** Deliver the events due by @p at — a barrier the clock has reached
     *  — as the next step would, but none after it. Nothing once every
     *  request has ended: a finished run delivers no later fault. */
    void deliverUntil(dam::Cycle at);
    /** The run has read its event schedule up to here: delivered, or
     *  ruled out by a prefill-only wake, an idle jump or the refusals of
     *  a crash (every arrival before its recovery). */
    dam::Cycle horizon() const;
    /** Serve @p r too; it must arrive at or after horizon(), and is
     *  delivered after every arrival at the same cycle — unless it
     *  arrives inside an outage whose crash the run delivered, which
     *  refuses it at once. */
    void append(Request r);
    /** Every request has ended and no delivery waits: the run steps
     *  again only once appended to. */
    bool ended() const;
    /** The slots of the requests that failed or migrated since the last
     *  call, ascending. */
    std::vector<size_t> takeCasualties();
    /** Requests by slot: the input's positions, then appends in order. */
    size_t size() const;
    const Request& request(size_t slot) const;
    /** Check the teardown invariants (every KV reservation and cache pin
     *  back) and close the run: its result, and its requests by slot
     *  into @p reqs. */
    EngineResult finish(std::vector<Request>& reqs);

  private:
    class Impl; ///< engine.cc
    std::unique_ptr<Impl> impl_;
};

} // namespace step::runtime
