/**
 * @file
 * Fixed-bucket log-scale latency histogram (HdrHistogram-style).
 *
 * The simulator's headline claims are latency-*distribution* claims
 * (tPROG cuts, NumRetry, tail-latency wins), so perf work needs
 * percentiles that can be diffed across runs, merged across seeds,
 * and exported without storing every sample. LatencyHistogram covers
 * the full SimTime (nanosecond) range with a fixed bucket layout:
 *
 *  - values 0..7 get exact buckets;
 *  - above that, each power-of-two octave is split into 8 equal
 *    sub-buckets, bounding the relative quantization error of any
 *    reported percentile at 12.5%.
 *
 * The layout is value-independent, so histograms merge by summing
 * counts, and a bucket index means the same thing in every run —
 * exactly what BENCH_*.json diffs need. 496 buckets, ~4 KB each.
 */

#ifndef CUBESSD_METRICS_HISTOGRAM_H
#define CUBESSD_METRICS_HISTOGRAM_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace cubessd::metrics {

class LatencyHistogram
{
  public:
    /** Sub-buckets per octave = 2^kSubBits. */
    static constexpr int kSubBits = 3;
    static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
    /** Octave 0 is linear (values 0..7); octaves kSubBits..63 each
     *  contribute kSubBuckets buckets. */
    static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;

    void add(std::uint64_t value);
    /** Sum another histogram into this one (same fixed layout). */
    void merge(const LatencyHistogram &other);
    void reset();

    std::uint64_t total() const { return total_; }
    /** Sum of every added value (exact below 2^53). */
    double sum() const { return sum_; }
    double mean() const;
    std::uint64_t min() const { return total_ ? min_ : 0; }
    std::uint64_t max() const { return total_ ? max_ : 0; }

    /**
     * Nearest-rank percentile, p in [0, 100]. Returns the inclusive
     * upper edge of the bucket holding the rank (clamped to the true
     * max), so the reported value is >= the exact percentile by at
     * most one bucket width (12.5% relative).
     */
    double percentile(double p) const;

    /** @name Fixed bucket layout @{ */
    static std::size_t bucketIndex(std::uint64_t value);
    /** Inclusive lower bound of a bucket. */
    static std::uint64_t bucketLow(std::size_t bucket);
    /** Inclusive upper bound of a bucket. */
    static std::uint64_t bucketHigh(std::size_t bucket);
    /** @} */

    std::uint64_t count(std::size_t bucket) const
    {
        return counts_[bucket];
    }

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

}  // namespace cubessd::metrics

#endif  // CUBESSD_METRICS_HISTOGRAM_H
