/**
 * @file
 * Statistics primitives used by the characterization study and the
 * benchmark harness: running moments, histograms, exact latency
 * percentiles and lookup tables.
 */

#ifndef CUBESSD_COMMON_STATS_H
#define CUBESSD_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cubessd {

/**
 * Single-pass mean / variance / min / max accumulator (Welford).
 */
class RunningStat
{
  public:
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    void reset();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width histogram over a caller-chosen range. Out-of-range samples
 * are clamped into the first/last bin so totals always match the number
 * of add() calls.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t bins() const { return counts_.size(); }
    std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
    std::uint64_t total() const { return total_; }

    /** @return the inclusive lower edge of a bin. */
    double binLow(std::size_t bin) const;
    /** @return the exclusive upper edge of a bin. */
    double binHigh(std::size_t bin) const;

    /** @return fraction of samples in this bin (0 if empty). */
    double fraction(std::size_t bin) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * Stores every sample; exact nearest-rank percentiles.
 *
 * For the chip-level benches, whose sample sets are small. Measured
 * device runs record latency in metrics::LatencyHistogram instead.
 */
class LatencyRecorder
{
  public:
    void add(double value);

    std::size_t count() const { return samples_.size(); }

    /**
     * @param p percentile in [0, 100]; exact (nearest-rank) on the
     *          recorded samples.
     */
    double percentile(double p) const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Piecewise-linear lookup table y = f(x) over sorted breakpoints.
 *
 * Used for the paper's offline conversion tables: spare-margin S_M to
 * total V_Start/V_Final adjustment (Fig. 11(b)) and the leader/follower
 * split of that adjustment.
 */
class PiecewiseLinearTable
{
  public:
    /** @param points (x, y) pairs; x must be strictly increasing. */
    explicit PiecewiseLinearTable(
        std::vector<std::pair<double, double>> points);

    /** Interpolate; clamps outside the breakpoint range. */
    double lookup(double x) const;

    std::size_t size() const { return points_.size(); }

  private:
    std::vector<std::pair<double, double>> points_;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_STATS_H
