/**
 * @file
 * Per-replica metrics registry: named instruments backed by the
 * deterministic LogHistogram + fixed-window TimeSeries core, sampled
 * by ServingEngine at iteration boundaries and request lifecycle
 * events, merged across replicas in replica-index order (bit-identical
 * across worker-thread counts, like TraceSink), and exported as a
 * schema-v2 JSON artifact behind `--metrics <path>` plus a per-window
 * JSONL stream (`out.json` -> `out.windows.jsonl`).
 *
 * Two instrument kinds:
 *  - histogram: run-level LogHistogram plus per-window histogram
 *    deltas (windowed percentiles — the SLO monitor's and the
 *    telemetry health monitor's signal) plus window aggregates;
 *  - series: window aggregates only (count/sum/min/max per window),
 *    for per-iteration gauges and lifecycle event counts.
 *
 * Registration order is the export order; every replica registers the
 * same instruments in the same order, so the merge is a positionless
 * name-keyed fold that still produces byte-stable output.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hh"
#include "obs/timeseries.hh"

namespace step {
class Cli;
}

namespace step::obs {

struct MetricsConfig
{
    bool enabled = false;
    /// Fixed aggregation window width in cycles.
    dam::Cycle windowCycles = 4'000'000;
};

class MetricsRegistry
{
  public:
    using Handle = size_t;

    explicit MetricsRegistry(MetricsConfig cfg = {});

    /** Register (or look up) a histogram instrument. Idempotent by
     *  name; the kind must match the original registration. */
    Handle histogram(std::string_view name);

    /** Register (or look up) a window-aggregate-only instrument. */
    Handle series(std::string_view name);

    /** Record one sample at cycle @p at. */
    void record(Handle h, dam::Cycle at, uint64_t value);

    struct Instrument
    {
        std::string name;
        bool isHistogram = false;
        LogHistogram total; ///< run-level buckets (histogram kind only)
        TimeSeries series;

        Instrument(std::string n, bool hist, dam::Cycle window)
            : name(std::move(n)), isHistogram(hist),
              series(window, /*with_histograms=*/hist)
        {
        }
    };

    const MetricsConfig& config() const { return cfg_; }
    size_t size() const { return instruments_.size(); }
    const Instrument& at(size_t i) const { return instruments_[i]; }

    /** Lookup by name; nullptr when absent. */
    const Instrument* find(std::string_view name) const;

    /**
     * Fold @p o into this registry: instruments match by name (new
     * names append in @p o's registration order), histograms and
     * window series merge elementwise. Window widths must match.
     */
    void mergeFrom(const MetricsRegistry& o);

  private:
    Handle ensure(std::string_view name, bool is_histogram);

    MetricsConfig cfg_;
    std::vector<Instrument> instruments_;
};

/**
 * Write the schema-v2 metrics artifact: one "replicas" entry per
 * registry in index order, plus a "merged" section folded in the same
 * order (computed here when @p merged is null). All values are
 * integers (cycles, counts); percentiles are bucket representatives.
 */
bool writeMetricsJson(std::ostream& os,
                      const std::vector<const MetricsRegistry*>& replicas,
                      const MetricsRegistry* merged = nullptr);

/**
 * Write one JSON object per non-empty (replica, instrument, window)
 * in (replica, instrument, window) order; merged rows use replica -1.
 */
bool
writeMetricsWindowsJsonl(std::ostream& os,
                         const std::vector<const MetricsRegistry*>& replicas,
                         const MetricsRegistry* merged = nullptr);

/** The `--metrics <path>` and `--metrics-window <cycles>` flags. */
struct MetricsCli
{
    std::string path; ///< empty = metrics not requested
    dam::Cycle windowCycles = MetricsConfig{}.windowCycles;

    /** Declare both flags on @p cli; the window is a whole positive
     *  cycle count and needs `--metrics`. The fields hold the values
     *  once @p cli has parsed. */
    explicit MetricsCli(Cli& cli);

    bool enabled() const { return !path.empty(); }

    MetricsConfig config() const { return {enabled(), windowCycles}; }

    /**
     * Write @p registries and @p merged (folded from them when null) as
     * the metrics artifact at `path` and the per-window JSONL beside
     * it, then report "metrics (@p note) -> <path>" and
     * "per-window series -> <jsonl>" on @p out. A file that cannot be
     * written prints "<prog>: cannot write ..." on stderr and returns
     * false, with nothing written to @p out.
     */
    bool write(std::ostream& out,
               const std::vector<const MetricsRegistry*>& registries,
               const MetricsRegistry* merged, std::string_view note) const;

  private:
    std::string prog_; ///< names the program in write errors
};

} // namespace step::obs
