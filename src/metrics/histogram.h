/**
 * @file
 * Fixed-bucket log-scale latency histogram (HdrHistogram-style): the
 * one latency accumulator of a measured run.
 *
 * The simulator's headline claims are latency-*distribution* claims
 * (tPROG cuts, NumRetry, tail-latency wins), so percentiles must be
 * diffable across runs, mergeable across seeds, and exportable without
 * storing every sample. LatencyHistogram covers [0, 2^40) ns (18.3
 * minutes) with a fixed bucket layout:
 *
 *  - values 0..31 get exact buckets;
 *  - above that, each power-of-two octave is split into 32 equal
 *    sub-buckets, so a reported percentile is at least the exact
 *    nearest-rank value and at most 1/32 above it;
 *  - values of 2^40 ns or more count in the top bucket, while min(),
 *    max() and sum() stay exact.
 *
 * The layout is value-independent, so histograms merge by summing
 * counts, and a bucket index means the same thing in every run —
 * exactly what BENCH_*.json diffs need. 1152 buckets, ~9 KB each.
 */

#ifndef CUBESSD_METRICS_HISTOGRAM_H
#define CUBESSD_METRICS_HISTOGRAM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cubessd::metrics {

class LatencyHistogram
{
  public:
    /** Sub-buckets per octave = 2^kSubBits. */
    static constexpr int kSubBits = 5;
    static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
    /** Values below 2^kMaxBits get their own bucket; larger ones count
     *  in the top bucket. */
    static constexpr int kMaxBits = 40;
    /** Octave 0 is linear (values 0..31); octaves kSubBits..kMaxBits-1
     *  each contribute kSubBuckets buckets. */
    static constexpr std::size_t kBuckets =
        (kMaxBits - kSubBits + 1) * kSubBuckets;

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
     * most one bucket width (1/32 relative below 2^40).
     */
    double percentile(double p) const;

    /**
     * `points` evenly spaced (x, F(x)) pairs from min() to max(), F
     * being the share of samples at or below x. F is read from the
     * buckets by counting every sample of each bucket that starts at
     * or below x (its lower edge raised to min()): F(min()) is the
     * share of min()'s bucket, F(max()) = 1, and below 2^40 F(x) lies
     * between the exact F(x) and the exact F(x * 33/32).
     */
    std::vector<std::pair<double, double>> cdf(std::size_t points) const;

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
