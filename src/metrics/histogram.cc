#include "src/metrics/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace cubessd::metrics {

std::size_t
LatencyHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::size_t>(value);
    if (value >> kMaxBits != 0)
        return kBuckets - 1;
    const int octave = 63 - std::countl_zero(value);  // >= kSubBits
    const std::uint64_t sub =
        (value >> (octave - kSubBits)) & (kSubBuckets - 1);
    return (static_cast<std::size_t>(octave) - kSubBits + 1) *
               kSubBuckets + static_cast<std::size_t>(sub);
}

std::uint64_t
LatencyHistogram::bucketLow(std::size_t bucket)
{
    if (bucket < kSubBuckets)
        return bucket;
    const std::size_t row = bucket / kSubBuckets;  // >= 1
    const std::uint64_t sub = bucket % kSubBuckets;
    return (kSubBuckets + sub) << (row - 1);
}

std::uint64_t
LatencyHistogram::bucketHigh(std::size_t bucket)
{
    if (bucket + 1 >= kBuckets)
        return std::numeric_limits<std::uint64_t>::max();
    return bucketLow(bucket + 1) - 1;
}

void
LatencyHistogram::add(std::uint64_t value)
{
    ++counts_[bucketIndex(value)];
    if (total_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++total_;
    sum_ += static_cast<double>(value);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.total_ == 0)
        return;
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i] += other.counts_[i];
    min_ = total_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = total_ == 0 ? other.max_ : std::max(max_, other.max_);
    total_ += other.total_;
    sum_ += other.sum_;
}

void
LatencyHistogram::reset()
{
    counts_.fill(0);
    total_ = 0;
    sum_ = 0.0;
    min_ = 0;
    max_ = 0;
}

double
LatencyHistogram::mean() const
{
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

double
LatencyHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(clamped / 100.0 *
                         static_cast<double>(total_))));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank) {
            // The true sample lies inside this bucket; report its
            // upper edge, clamped to the recorded extremes.
            const std::uint64_t edge = std::min(bucketHigh(i), max_);
            return static_cast<double>(std::max(edge, min_));
        }
    }
    return static_cast<double>(max_);
}

std::vector<std::pair<double, double>>
LatencyHistogram::cdf(std::size_t points) const
{
    std::vector<std::pair<double, double>> out;
    if (total_ == 0 || points == 0)
        return out;
    out.reserve(points);
    const auto lo = static_cast<double>(min_);
    const auto hi = static_cast<double>(max_);
    const double step =
        points > 1 ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
    // One pass: x only grows, so counted buckets stay counted.
    std::size_t bucket = 0;
    std::uint64_t counted = 0;
    for (std::size_t i = 0; i < points; ++i) {
        const double x =
            i + 1 == points ? hi : lo + step * static_cast<double>(i);
        for (; bucket < kBuckets &&
               static_cast<double>(std::max(bucketLow(bucket), min_)) <= x;
             ++bucket)
            counted += counts_[bucket];
        out.emplace_back(x, static_cast<double>(counted) /
                                static_cast<double>(total_));
    }
    return out;
}

}  // namespace cubessd::metrics
