/**
 * @file
 * Deterministic HDR-style log-bucketed histogram over integer cycle /
 * token values. The bucket layout is fixed by the value alone (no
 * dynamic rebalancing, no floating-point bucket math), so two
 * histograms fed the same multiset of values are bit-identical
 * regardless of insertion order, thread count, or merge grouping —
 * the same contract TraceSink gives event streams.
 *
 * Layout: values in [0, 64) get one exact bucket each; above that,
 * each power-of-two range [2^k, 2^(k+1)) is split into 32 equal
 * sub-buckets. Bucket width / bucket lower bound is therefore at most
 * 1/32, and the midpoint representative returned by percentile() is
 * within ~1.6% relative error of any value in the bucket (exact below
 * 64). Memory is a dense count vector grown on demand: full uint64
 * range needs (64-6+1)*32 + 64 ≈ 1.9k buckets, ~15 KB worst case.
 *
 * merge() adds per-bucket counts, so it is associative and
 * commutative; the cluster still merges in replica-index order for
 * uniformity with the trace layer.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace step::obs {

class LogHistogram
{
  public:
    /// log2 of the number of exact low buckets (and of 2x the
    /// sub-bucket count per power-of-two range).
    static constexpr int kSubBucketBits = 6;
    static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
    static constexpr uint64_t kHalfSub = kSubBuckets / 2;

    /** Bucket index for a value (pure function of the value). */
    static size_t
    bucketIndex(uint64_t v)
    {
        if (v < kSubBuckets)
            return size_t(v);
        const int exp = std::bit_width(v) - kSubBucketBits;
        const uint64_t sub = v >> exp; // in [kHalfSub, kSubBuckets)
        return size_t(kSubBuckets + uint64_t(exp - 1) * kHalfSub +
                      (sub - kHalfSub));
    }

    /** Smallest value mapping to bucket @p idx. */
    static uint64_t
    bucketLower(size_t idx)
    {
        if (idx < kSubBuckets)
            return uint64_t(idx);
        const uint64_t off = uint64_t(idx) - kSubBuckets;
        const int exp = int(off / kHalfSub) + 1;
        const uint64_t sub = kHalfSub + off % kHalfSub;
        return sub << exp;
    }

    /** One past the largest value mapping to bucket @p idx. */
    static uint64_t
    bucketUpper(size_t idx)
    {
        if (idx < kSubBuckets)
            return uint64_t(idx) + 1;
        const uint64_t off = uint64_t(idx) - kSubBuckets;
        const int exp = int(off / kHalfSub) + 1;
        const uint64_t sub = kHalfSub + off % kHalfSub;
        return (sub + 1) << exp;
    }

    /** Deterministic representative for a bucket: the exact value below
     *  kSubBuckets, the (integer) midpoint above. */
    static uint64_t
    bucketRepresentative(size_t idx)
    {
        if (idx < kSubBuckets)
            return uint64_t(idx);
        const uint64_t lo = bucketLower(idx);
        return lo + (bucketUpper(idx) - lo) / 2;
    }

    void
    record(uint64_t v, uint64_t n = 1)
    {
        if (n == 0)
            return;
        const size_t idx = bucketIndex(v);
        if (idx >= counts_.size())
            counts_.resize(idx + 1, 0);
        counts_[idx] += n;
        count_ += n;
        sum_ += v * n;
        min_ = count_ == n ? v : std::min(min_, v);
        max_ = count_ == n ? v : std::max(max_, v);
    }

    /** Elementwise count add; exact min/max/sum fold in too. */
    void
    merge(const LogHistogram& o)
    {
        if (o.count_ == 0)
            return;
        if (o.counts_.size() > counts_.size())
            counts_.resize(o.counts_.size(), 0);
        for (size_t i = 0; i < o.counts_.size(); ++i)
            counts_[i] += o.counts_[i];
        min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
        max_ = count_ == 0 ? o.max_ : std::max(max_, o.max_);
        count_ += o.count_;
        sum_ += o.sum_;
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    /** Exact extrema of recorded values; 0 when empty. */
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return count_ ? max_ : 0; }
    bool empty() const { return count_ == 0; }

    /**
     * Nearest-rank percentile (same rank rule as stats::percentileSorted:
     * rank = ceil(p/100 * count)), answered from the bucket counts. The
     * result is the containing bucket's representative clamped into
     * [min, max], so single-sample and extreme quantiles are exact.
     * Returns 0 on an empty histogram.
     */
    uint64_t
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        if (p <= 0.0)
            return min_;
        uint64_t rank = uint64_t(std::ceil(p / 100.0 * double(count_)));
        rank = std::min(std::max<uint64_t>(rank, 1), count_);
        uint64_t seen = 0;
        for (size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= rank)
                return std::clamp(bucketRepresentative(i), min_, max_);
        }
        return max_; // unreachable when counts are consistent
    }

    /** Dense bucket counts (trailing buckets may be absent). */
    const std::vector<uint64_t>& buckets() const { return counts_; }

  private:
    std::vector<uint64_t> counts_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
};

} // namespace step::obs
