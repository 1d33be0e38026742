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

#include "analysis/utilization.hh"
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
    ModelConfig model;
    /** Layers the per-layer iteration cycles scale by; 0 = model value. */
    int64_t numLayers = 0;
    /** Compute-bandwidth pool the policy splits (FLOPs/cycle). */
    int64_t totalComputeBw = 8192;

    // ---- iteration-graph knobs (see DecoderParams) -------------------
    ParStrategy attnStrategy = ParStrategy::Dynamic;
    int64_t attnRegions = 4;
    int64_t kvTileRows = 32;
    int64_t moeRegions = 4;
    int64_t moeTile = 16;
    int64_t denseTile = 16;
    int64_t weightTileCols = 64;

    BatcherConfig batcher; ///< kvBytesPerToken 0 = derive from model
    /**
     * KV prefix cache (capacityTokens 0 = disabled, the default — the
     * engine is then bit-identical to a cache-less build). When
     * enabled, admission charges prefill flops and KV reservation only
     * for the uncached suffix, completed prefixes are inserted back,
     * and ServingSummary reports hit-rate / tokens-saved / occupancy.
     * Each run() starts with a cold cache so replays stay seeded.
     */
    PrefixCacheConfig prefixCache;
    SloConfig slo;
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
     * Engine-side live-migration trigger (see SlowdownDrainConfig):
     * when a deep slowdown window has run for the detection lag, queued
     * and prefilling requests leave in state Migrated (with finishedAt
     * and their prefill progress as the KV tokens to hand off) instead
     * of grinding through the degraded window; the cluster reschedules
     * them. Disabled (default) the engine is bit-identical to a
     * drain-less build.
     */
    SlowdownDrainConfig drain;
    /**
     * Cluster-scope instants (breaker flips, autoscale steps) for this
     * replica's trace, sorted by cycle. The engine emits each from its
     * own loop when the clock passes it — the sink is single-writer, so
     * the coordinator cannot append them itself. Empty (default) emits
     * nothing.
     */
    std::vector<ClusterInstant> clusterInstants;

    /**
     * Recycle one arena-backed decoder graph across batching iterations
     * instead of rebuilding from the heap each time (see
     * Graph::recycle). Metrics are identical either way; the rebuild
     * path remains for A/B verification.
     */
    bool recycleGraphs = true;

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

struct EngineResult
{
    ServingSummary summary;
    UtilizationTimeline timeline;
    int64_t iterations = 0;
};

/**
 * Analytic prefill cost of one prompt token across @p num_layers layers
 * (QKV + output projections and the top-K expert FFN; prompt attention
 * is projection-dominated and left out of the model). Shared by the
 * engine's prefill accounting and the cluster router's service-time
 * estimates.
 */
int64_t prefillFlopsPerToken(const ModelConfig& m, int64_t num_layers);

class ServingEngine
{
  public:
    ServingEngine(EngineConfig cfg, const Policy& policy);

    /**
     * Serve @p reqs (mutated in place: states, TTFT/finish stamps) until
     * every request reaches a terminal state — Finished, Failed/Shed
     * under the fault tier, or Migrated when a slowdown drain hands the
     * request off for the cluster to reschedule. Deterministic for fixed (config, policy,
     * trace). Throws StallError (with a scheduler-state diagnostic)
     * when no admission progress is possible, e.g. a head-of-line
     * request that can never fit the KV budget with no admission policy
     * attached to shed it.
     */
    EngineResult run(std::vector<Request>& reqs);

    /**
     * Attach (or detach, with nullptr) a trace sink. run() then reports
     * request lifecycle instants, registers every engine counter —
     * engine, fault and resilience tiers alike, whether or not the run
     * uses them — samples them each iteration and snapshots them into
     * ServingSummary::counters, and at level >= Op forwards the
     * iteration graphs' scheduler events with the engine clock as time
     * base. The sink must outlive the engine's runs.
     */
    void attachTrace(obs::TraceSink* sink) { trace_ = sink; }

    /**
     * Attach (or detach, with nullptr) a metrics registry. run() then
     * registers the engine's instrument set (TTFT/TPOT histograms,
     * per-iteration gauges, lifecycle event series — see README),
     * records into it at iteration boundaries and lifecycle events, and
     * fills the summary's windowed-SLO fields. Quantities both exporters
     * carry are recorded by one call, so final counters and series
     * agree. Neither exporter influences control flow: attaching one
     * changes no other output byte, and with none attached each hook
     * costs one predicted branch (the hot path stays allocation-free).
     */
    void attachMetrics(obs::MetricsRegistry* m) { metrics_ = m; }

  private:
    class Run; ///< one run()'s replica state machine (engine.cc)
    EngineConfig cfg_;
    const Policy& policy_;
    DecoderParams baseParams_; ///< cfg_'s iteration-graph params
    int64_t decodeUnits_ = 0;  ///< matmul pipelines sharing decode bw
    double prefillFlopsPerToken_ = 0; ///< of cfg_'s model and layers
    obs::TraceSink* trace_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
    dam::Scheduler sched_; ///< reused across per-iteration graphs
    GraphArena arena_;     ///< backs the recycled iteration graph
    std::unique_ptr<Graph> iterGraph_; ///< null unless recycling
    /** Structure-preserving rearm handles for iterGraph_: while the
     *  structural key is stable — batch changes included — iterations
     *  patch the recycled graph in place instead of rebuilding it. */
    DecoderRearmHandles rearmHandles_;
};

} // namespace step::runtime
