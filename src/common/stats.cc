#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace cubessd {

void
RunningStat::add(double x)
{
    ++count_;
    if (count_ == 1) {
        mean_ = min_ = max_ = x;
        m2_ = 0.0;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double total = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    const double newMean =
        mean_ + delta * static_cast<double>(other.count_) / total;
    m2_ += other.m2_ + delta * delta *
           static_cast<double>(count_) *
           static_cast<double>(other.count_) / total;
    mean_ = newMean;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    if (bins == 0 || hi <= lo)
        fatal("Histogram requires bins > 0 and hi > lo");
    width_ = (hi_ - lo_) / static_cast<double>(bins);
}

void
Histogram::add(double x)
{
    auto bin = static_cast<std::int64_t>((x - lo_) / width_);
    bin = std::clamp<std::int64_t>(bin, 0,
                                   static_cast<std::int64_t>(bins()) - 1);
    ++counts_[static_cast<std::size_t>(bin)];
    ++total_;
}

double
Histogram::binLow(std::size_t bin) const
{
    return lo_ + width_ * static_cast<double>(bin);
}

double
Histogram::binHigh(std::size_t bin) const
{
    return lo_ + width_ * static_cast<double>(bin + 1);
}

double
Histogram::fraction(std::size_t bin) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(bin)) /
           static_cast<double>(total_);
}

void
LatencyRecorder::add(double value)
{
    samples_.push_back(value);
    sorted_ = false;
}

double
LatencyRecorder::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(samples_.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    return samples_[std::min(idx, samples_.size() - 1)];
}

PiecewiseLinearTable::PiecewiseLinearTable(
    std::vector<std::pair<double, double>> points)
    : points_(std::move(points))
{
    if (points_.empty())
        fatal("PiecewiseLinearTable requires at least one breakpoint");
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].first <= points_[i - 1].first)
            fatal("PiecewiseLinearTable breakpoints must be increasing");
    }
}

double
PiecewiseLinearTable::lookup(double x) const
{
    if (x <= points_.front().first)
        return points_.front().second;
    if (x >= points_.back().first)
        return points_.back().second;
    // Find the segment containing x.
    std::size_t hi = 1;
    while (points_[hi].first < x)
        ++hi;
    const auto &[x0, y0] = points_[hi - 1];
    const auto &[x1, y1] = points_[hi];
    const double w = (x - x0) / (x1 - x0);
    return y0 + w * (y1 - y0);
}

}  // namespace cubessd
