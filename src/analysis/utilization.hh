/**
 * @file
 * Utilization timeline for the serving runtime: per-iteration samples of
 * the bandwidth split, batch composition, and useful work, aggregated
 * into whole-run compute utilization and a time-bucketed report (the
 * serving-level counterpart of the Figure 12 utilization traces).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "dam/task.hh"
#include "support/table.hh"

namespace step {

/** One batching iteration as seen by the utilization accounting. */
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

class UtilizationTimeline
{
  public:
    void record(const IterationSample& s) { samples_.push_back(s); }

    /**
     * Append another timeline's samples (cluster aggregation: replica
     * timelines overlap in simulated time; every accessor below is
     * order-insensitive, so a plain append keeps merging deterministic
     * in call order). Utilization of the merged timeline should be
     * queried with the *summed* bandwidth of the merged engines.
     */
    void merge(const UtilizationTimeline& other)
    {
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    }

    /** End of the last iteration (== serving makespan). */
    dam::Cycle span() const;

    int64_t totalUsefulFlops() const;

    /** Useful FLOPs over total provisioned FLOP capacity. */
    double computeUtilization(int64_t total_bw) const;

    /** Iteration-length-weighted mean decode batch size. */
    double meanDecodeBatch() const;

    /** Iteration-length-weighted mean fraction of bw given to prefill. */
    double meanPrefillShare() const;

    /**
     * Bucketed timeline: utilization, mean decode batch, and prefill
     * share per time bucket — shows bursts pulling bandwidth around.
     */
    Table bucketReport(int64_t total_bw, int buckets = 12) const;

    size_t iterations() const { return samples_.size(); }

    /** Every recorded iteration, in record order. */
    const std::vector<IterationSample>& samples() const { return samples_; }

  private:
    std::vector<IterationSample> samples_;
};

} // namespace step
