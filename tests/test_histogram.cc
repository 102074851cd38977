/**
 * @file
 * Unit tests for the fixed-bucket log-scale latency histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/metrics/histogram.h"

namespace cubessd::metrics {
namespace {

constexpr std::uint64_t k2To40 = std::uint64_t{1} << 40;

/** Log-uniform random values in [1, 2^40): every octave equally. */
std::vector<std::uint64_t>
randomValues(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::uint64_t> values(n);
    for (auto &v : values) {
        v = static_cast<std::uint64_t>(std::exp2(rng.uniform(0.0, 40.0)));
        v = std::min(v, k2To40 - 1);
    }
    return values;
}

/** The exact nearest-rank percentile of sorted values. */
double
exactPercentile(const std::vector<std::uint64_t> &sorted, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

TEST(LatencyHistogram, BucketBoundariesArePartition)
{
    // The fixed layout must tile [0, 2^64) with no gaps or overlaps:
    // high(i) + 1 == low(i+1), and low <= high everywhere. Below 2^40
    // every bucket is at most 1/32 of its lower bound wide; the top
    // bucket holds everything from its lower bound up.
    static_assert(LatencyHistogram::kBuckets == 1152);
    for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
        const std::uint64_t low = LatencyHistogram::bucketLow(i);
        const std::uint64_t high = LatencyHistogram::bucketHigh(i);
        EXPECT_LE(low, high) << "bucket " << i;
        EXPECT_EQ(high + 1, LatencyHistogram::bucketLow(i + 1))
            << "bucket " << i;
        if (low >= LatencyHistogram::kSubBuckets) {
            EXPECT_LE((high - low + 1) * LatencyHistogram::kSubBuckets,
                      low)
                << "bucket " << i;
        } else {
            EXPECT_EQ(low, high) << "bucket " << i;
        }
    }
    EXPECT_EQ(LatencyHistogram::bucketLow(0), 0u);
    const std::size_t top = LatencyHistogram::kBuckets - 1;
    EXPECT_EQ(LatencyHistogram::bucketLow(top), k2To40 - (k2To40 >> 6));
    EXPECT_EQ(LatencyHistogram::bucketHigh(top),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(LatencyHistogram::bucketIndex(k2To40 - 1), top);
}

TEST(LatencyHistogram, BucketIndexMatchesBoundaries)
{
    const std::uint64_t samples[] = {
        0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 4096, 123456789,
        std::uint64_t{1} << 40, std::numeric_limits<std::uint64_t>::max()};
    for (const std::uint64_t v : samples) {
        const std::size_t i = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(i, LatencyHistogram::kBuckets);
        EXPECT_LE(LatencyHistogram::bucketLow(i), v) << "value " << v;
        EXPECT_GE(LatencyHistogram::bucketHigh(i), v) << "value " << v;
    }
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Values 0..31 get dedicated buckets, so percentiles on them are
    // exact, not quantized.
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.add(v);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 31.0);
    EXPECT_DOUBLE_EQ(h.percentile(3.125), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 15.0);
}

TEST(LatencyHistogram, RelativeErrorBounded)
{
    // Any reported percentile is >= the exact nearest-rank value and
    // at most one sub-bucket (1/32) above it: for single values ...
    for (const std::uint64_t v : randomValues(5, 2000)) {
        LatencyHistogram h;
        h.add(v);
        h.add(v + 1);  // so p50 is not clamped to the max
        const double p50 = h.percentile(50.0);
        EXPECT_GE(p50, static_cast<double>(v)) << v;
        EXPECT_LE(p50, static_cast<double>(v) * (1.0 + 1.0 / 32)) << v;
    }
    // ... and for every percentile of a population.
    auto values = randomValues(6, 5000);
    LatencyHistogram h;
    for (const std::uint64_t v : values)
        h.add(v);
    std::sort(values.begin(), values.end());
    for (double p = 0.5; p <= 100.0; p += 0.5) {
        const double exact = exactPercentile(values, p);
        EXPECT_GE(h.percentile(p), exact) << "p" << p;
        EXPECT_LE(h.percentile(p), exact * (1.0 + 1.0 / 32)) << "p" << p;
    }
}

TEST(LatencyHistogram, TopBucketClampsButMaxStaysExact)
{
    // 2^40 ns and beyond share the top bucket; min, max and sum stay
    // exact, and the top percentiles report the true max.
    LatencyHistogram h;
    const std::uint64_t big = k2To40 + 12345;
    const std::uint64_t huge = std::uint64_t{1} << 50;
    h.add(1000);
    h.add(big);
    h.add(huge);
    const std::size_t top = LatencyHistogram::kBuckets - 1;
    EXPECT_EQ(LatencyHistogram::bucketIndex(big), top);
    EXPECT_EQ(LatencyHistogram::bucketIndex(huge), top);
    EXPECT_EQ(h.count(top), 2u);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), huge);
    EXPECT_DOUBLE_EQ(h.sum(), 1000.0 + static_cast<double>(big) +
                                  static_cast<double>(huge));
    EXPECT_DOUBLE_EQ(h.percentile(100.0), static_cast<double>(huge));
    EXPECT_DOUBLE_EQ(h.percentile(66.0), static_cast<double>(huge));
}

TEST(LatencyHistogram, CdfIsMonotoneAndBoundedByTheExactCdf)
{
    auto values = randomValues(7, 3000);
    LatencyHistogram h;
    for (const std::uint64_t v : values)
        h.add(v);
    std::sort(values.begin(), values.end());
    const auto exactF = [&](double x) {
        return static_cast<double>(
                   std::upper_bound(values.begin(), values.end(), x,
                                    [](double a, std::uint64_t b) {
                                        return a < static_cast<double>(b);
                                    }) -
                   values.begin()) /
               static_cast<double>(values.size());
    };

    const auto cdf = h.cdf(20);
    ASSERT_EQ(cdf.size(), 20u);
    EXPECT_DOUBLE_EQ(cdf.front().first, static_cast<double>(h.min()));
    EXPECT_DOUBLE_EQ(cdf.back().first, static_cast<double>(h.max()));
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        const auto [x, f] = cdf[i];
        if (i > 0) {
            EXPECT_LT(cdf[i - 1].first, x);
            EXPECT_LE(cdf[i - 1].second, f);
        }
        EXPECT_GE(f, exactF(x)) << "x " << x;
        EXPECT_LE(f, exactF(x * 33 / 32)) << "x " << x;
    }
    EXPECT_TRUE(LatencyHistogram{}.cdf(8).empty());
}

TEST(LatencyHistogram, PercentileExtraction)
{
    LatencyHistogram h;
    for (std::uint64_t i = 1; i <= 1000; ++i)
        h.add(i * 1000);  // 1us .. 1ms
    EXPECT_EQ(h.total(), 1000u);
    // Nearest-rank with quantization: within 1/32 above the exact value.
    constexpr double kBound = 1.0 + 1.0 / 32;
    EXPECT_GE(h.percentile(50.0), 500.0 * 1000);
    EXPECT_LE(h.percentile(50.0), 500.0 * 1000 * kBound);
    EXPECT_GE(h.percentile(99.0), 990.0 * 1000);
    EXPECT_LE(h.percentile(99.0), 990.0 * 1000 * kBound);
    EXPECT_GE(h.percentile(99.9), 999.0 * 1000);
    // p100 and p99.9+ clamp to the true max, never beyond.
    EXPECT_LE(h.percentile(99.9), 1000.0 * 1000);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0 * 1000);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 1000000u);
    EXPECT_NEAR(h.mean(), 500500.0, 1.0);
}

TEST(LatencyHistogram, EmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, MergeEqualsCombinedAdds)
{
    LatencyHistogram a, b, combined;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const std::uint64_t va = i * 37 + 5;
        const std::uint64_t vb = i * 91 + 100000;
        a.add(va);
        b.add(vb);
        combined.add(va);
        combined.add(vb);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), combined.total());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
    for (const double p : {10.0, 50.0, 95.0, 99.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p)) << p;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        ASSERT_EQ(a.count(i), combined.count(i)) << "bucket " << i;
}

TEST(LatencyHistogram, MergeWithEmpty)
{
    LatencyHistogram a, empty;
    a.add(42);
    a.merge(empty);
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(a.min(), 42u);
    LatencyHistogram c;
    c.merge(a);
    EXPECT_EQ(c.total(), 1u);
    EXPECT_EQ(c.min(), 42u);
    EXPECT_EQ(c.max(), 42u);
}

TEST(LatencyHistogram, Reset)
{
    LatencyHistogram h;
    h.add(7);
    h.add(70000);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
    h.add(5);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_EQ(h.max(), 5u);
}

}  // namespace
}  // namespace cubessd::metrics
