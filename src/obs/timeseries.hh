/**
 * @file
 * Fixed-window time-series aggregates for the metrics tier. A
 * TimeSeries buckets samples by `at / windowCycles` and keeps, per
 * window, {count, sum, min, max} — and, for histogram-backed
 * instruments, a per-window LogHistogram delta so windowed
 * percentiles (p95 TTFT per window, the SLO monitor's and the
 * telemetry health monitor's main signal) come from the same bounded-
 * relative-error buckets as the run-level histogram.
 *
 * Windows are dense slots grown on demand; empty windows cost one
 * WindowAgg each and are skipped by forEachWindow / the exporters.
 * Samples may arrive in any `at` order (request-finish events are not
 * monotone across the batch), and the aggregate of a window is a pure
 * function of the multiset of samples that landed in it — so merge()
 * (windowwise count/sum add, min/max fold, histogram merge) is
 * associative and order-insensitive, and the cluster's replica-index-
 * order merge is bit-stable across worker-thread counts.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dam/task.hh"
#include "obs/histogram.hh"

namespace step::obs {

/** One window's plain aggregates. A default-constructed WindowAgg is
 *  the empty window (count 0); min/max are only meaningful when
 *  count > 0. */
struct WindowAgg
{
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
};

class TimeSeries
{
  public:
    explicit TimeSeries(dam::Cycle window_cycles, bool with_histograms);

    void record(dam::Cycle at, uint64_t value);

    /** Windowwise merge; window widths must match. */
    void merge(const TimeSeries& o);

    dam::Cycle windowCycles() const { return window_; }

    /** Number of dense window slots (== highest touched window + 1). */
    size_t windowSlots() const { return windows_.size(); }

    /** Aggregates for window @p w (empty agg past the touched range). */
    const WindowAgg& window(size_t w) const;

    /** Per-window histogram delta, or nullptr when the instrument does
     *  not keep histograms or the window is empty. */
    const LogHistogram* windowHistogram(size_t w) const;

    /** Whole-run aggregates across all windows. */
    const WindowAgg& total() const { return total_; }

    /** Visit non-empty windows in increasing window order. */
    void forEachWindow(
        const std::function<void(size_t w, const WindowAgg&)>& fn) const;

  private:
    dam::Cycle window_ = 1;
    bool withHists_ = false;
    std::vector<WindowAgg> windows_;
    std::vector<std::unique_ptr<LogHistogram>> hists_;
    WindowAgg total_;
};

} // namespace step::obs
