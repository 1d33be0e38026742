/**
 * @file
 * Serving metrics: TTFT (time to first token), TPOT (time per output
 * token), throughput, and SLO-gated goodput, with nearest-rank p50/p99
 * built on support/stats. All times are simulated cycles.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "dam/task.hh"
#include "obs/counters.hh"
#include "runtime/request.hh"

namespace step::obs {
class MetricsRegistry;
}

namespace step::runtime {

/** Per-request latencies (cycles). */
double ttft(const Request& r);
/** Mean decode latency per token after the first; 0 if outputLen == 1. */
double tpot(const Request& r);

/** The latency service-level objective that gates goodput (cycles). */
constexpr double kSloTtftCycles = 5e6;
constexpr double kSloTpotCycles = 1.5e6;

/** @p r met the SLO: TTFT within kSloTtftCycles and, past one output
 *  token, TPOT within kSloTpotCycles. */
inline bool
meetsSlo(const Request& r)
{
    return ttft(r) <= kSloTtftCycles &&
           (r.outputLen <= 1 || tpot(r) <= kSloTpotCycles);
}

struct ServingSummary
{
    int64_t completed = 0;
    int64_t generatedTokens = 0;
    dam::Cycle makespan = 0;

    double ttftP50 = 0, ttftP95 = 0, ttftP99 = 0, ttftMean = 0;
    double tpotP50 = 0, tpotP95 = 0, tpotP99 = 0, tpotMean = 0;

    /** Completed requests meeting the SLO, and their tokens. A replica
     *  scores each incarnation from its own (re-)arrival; a cluster
     *  aggregate each caller request, from its original arrival. */
    int64_t sloCompliant = 0;
    int64_t sloGoodTokens = 0;
    /** Generated tokens per kilocycle, all completed requests. */
    double throughputTokensPerKcycle = 0;
    /** Generated tokens per kilocycle from SLO-compliant requests only. */
    double goodputTokensPerKcycle = 0;

    /** Useful FLOPs / (provisioned bandwidth * makespan); engine-filled. */
    double computeUtilization = 0;

    // ---- fault-tolerance metrics (all 0 on a fault-free run) ---------
    /** Requests that ended Failed (replica crash) and were not retried
     *  to completion elsewhere. */
    int64_t failedRequests = 0;
    /** Failed submissions that a RetryPolicy re-submitted (counted at
     *  the failing replica; the retry incarnation is accounted wherever
     *  it lands). */
    int64_t retriedRequests = 0;
    /** Requests dropped by the admission policy. */
    int64_t shedRequests = 0;
    /**
     * Incarnations the resilience tier drained off a degraded replica
     * mid-flight (counted at the source, like retriedRequests; the new
     * incarnation is accounted wherever it lands). Not part of the
     * availability denominator — a migration is in-transit work, not a
     * client-visible outcome.
     */
    int64_t migratedRequests = 0;
    /** Completed requests that finished after their deadline. */
    int64_t deadlineMisses = 0;
    /**
     * completed / (completed + failed + shed); derived, 1.0 when no
     * request reached a terminal state (never NaN). Retried-and-
     * completed requests count once, as completions.
     */
    double availability = 1.0;

    // ---- windowed SLO attainment (all 0 without a metrics registry) --
    /** Fixed windows with at least one completion-latency sample. */
    int64_t sloWindows = 0;
    /** Of those, windows whose p95 TTFT and p95 TPOT met the SLO with
     *  no deadline miss — the per-window attainment the sims report. */
    int64_t sloWindowsAttained = 0;
    /** Worst windowed p95 TTFT / TPOT (bucket representatives, cycles);
     *  the tail the run-level p99 averages away. */
    uint64_t sloWorstWindowP95Ttft = 0;
    uint64_t sloWorstWindowP95Tpot = 0;

    // ---- prefix-cache metrics (all 0 when the cache is disabled) -----
    /** Prompt tokens of completed requests (denominator for savings). */
    int64_t promptTokens = 0;
    int64_t prefixLookups = 0; ///< admissions that consulted the cache
    int64_t prefixHits = 0;    ///< lookups matching >= 1 cached block
    /** Prompt tokens served from cache instead of being prefilled. */
    int64_t prefixTokensSaved = 0;
    /**
     * Peak cache occupancy in KV tokens, summed across replicas.
     * Replica caches are disjoint, so the sum is an upper *bound* on
     * the cluster's aggregate cache footprint — the per-replica peaks
     * need not be simultaneous, so this can overstate the true
     * cluster-wide peak. Read prefixPeakOccupancyMaxReplica for the
     * busiest single replica's provisioning requirement.
     */
    int64_t prefixPeakOccupancyTokens = 0;
    /**
     * Largest single-replica peak occupancy (KV tokens): what any one
     * replica's cache must be provisioned for. Equals
     * prefixPeakOccupancyTokens for a single engine; merged by max.
     */
    int64_t prefixPeakOccupancyMaxReplica = 0;
    /** prefixHits / prefixLookups; derived, 0 with no lookups. */
    double prefixHitRate = 0;
    /** prefixTokensSaved / promptTokens; derived, 0 with no prompts. */
    double prefillTokensSavedFrac = 0;

    /**
     * Raw per-request latency samples (request order), retained so a
     * cluster can recompute aggregate percentiles over the union of its
     * replicas' samples — a p99 of per-replica p99s is not a p99.
     */
    std::vector<double> ttftSamples;
    std::vector<double> tpotSamples;

    /**
     * Final telemetry counter values snapshotted from the engine's
     * CounterRegistry (empty when tracing is off). Merged across
     * replicas by name: monotonic counters sum, gauges take the max.
     */
    std::vector<obs::CounterSample> counters;

    bool operator==(const ServingSummary&) const = default;
};

/**
 * Aggregate terminal requests into a summary: Finished requests feed the
 * latency/throughput statistics (and deadlineMisses when they finish
 * past a nonzero deadline), Failed and Shed requests only the fault
 * counters and availability. Non-terminal requests are ignored (the
 * engine runs traces to a terminal state, so normally none).
 */
ServingSummary summarize(const std::vector<Request>& reqs,
                         dam::Cycle makespan);

/**
 * summarize() in place over s.makespan: recompute every request-derived
 * field (retriedRequests resets to 0) and keep the engine-attached ones:
 * computeUtilization, the prefix-cache counters (the hit-rate and
 * savings ratios are re-derived from them), counters, slo windows.
 */
void resummarize(ServingSummary& s, const std::vector<Request>& reqs);

/** Re-score @p s's SLO fields (and goodput over s.makespan) over
 *  @p callers: each request once, as its caller sees it, so one that
 *  failed over counts its retry and handoff delays. */
void scoreSloPerCaller(ServingSummary& s,
                       const std::vector<Request>& callers);

/** Re-derive availability from the summary's terminal counts (1.0 when
 *  none — never NaN). Called by summarize/mergeSummaries. */
void refreshAvailability(ServingSummary& s);

/**
 * Merge per-replica summaries into one cluster-level summary. Counts,
 * token totals, and prefix-cache counters add (replica caches are
 * disjoint, so summed peak occupancy bounds the cluster's aggregate
 * cache footprint) and the hit-rate/savings fractions are re-derived
 * from the summed counters; the makespan is the maximum (replicas run
 * concurrently from cycle 0, so the cluster finishes when its slowest
 * replica does) and rates are recomputed against it; percentiles and
 * means are recomputed from the concatenated raw sample vectors, never
 * from the per-replica statistics. computeUtilization is left 0 — it
 * needs the cluster's provisioned bandwidth, which the caller applies
 * over the merged makespan from the replicas' summed useful FLOPs.
 * Deterministic in the order of @p parts.
 */
ServingSummary mergeSummaries(const std::vector<ServingSummary>& parts);

/** @p useful_flops over the capacity @p provisioned_bw FLOPs/cycle
 *  offers across @p span cycles; 0 over an empty span or a
 *  non-positive bandwidth. */
double computeUtilization(int64_t useful_flops, dam::Cycle span,
                          int64_t provisioned_bw);

void printSummary(const ServingSummary& s, std::ostream& os);

/**
 * Windowed SLO attainment computed from a metrics registry's
 * `ttft_cycles` / `tpot_cycles` histogram deltas and `deadline_misses`
 * series. A window is monitored when either latency instrument saw a
 * sample; it is attained when every present signal met its target
 * (p95 TTFT <= kSloTtftCycles, p95 TPOT <= kSloTpotCycles, zero
 * deadline misses). Deterministic: percentiles are bucket
 * representatives, windows are walked in index order.
 */
struct SloWindowStats
{
    int64_t windows = 0;
    int64_t attained = 0;
    uint64_t worstP95Ttft = 0;
    uint64_t worstP95Tpot = 0;
};

SloWindowStats computeSloWindows(const obs::MetricsRegistry& m);

/** Fold computeSloWindows into the summary's slo* fields. */
void applySloWindows(ServingSummary& s, const obs::MetricsRegistry& m);

} // namespace step::runtime
