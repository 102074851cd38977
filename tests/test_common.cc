/**
 * @file
 * Unit tests for the common utilities: RNG, Zipf, statistics,
 * lookup tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/zipf.h"

namespace cubessd {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntUnbiasedBounds)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);  // all values reachable
}

TEST(Rng, UniformIntZeroAndOne)
{
    Rng rng(9);
    EXPECT_EQ(rng.uniformInt(0), 0u);
    EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 100000; ++i)
        stat.add(rng.normal());
    EXPECT_NEAR(stat.mean(), 0.0, 0.02);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalPositive)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    RunningStat stat;
    for (int i = 0; i < 100000; ++i)
        stat.add(rng.exponential(5.0));
    EXPECT_NEAR(stat.mean(), 5.0, 0.1);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, ForkIndependence)
{
    Rng parent(23);
    Rng child = parent.fork();
    // The child stream should not reproduce the parent stream.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent() == child();
    EXPECT_LT(same, 4);
}

TEST(Zipf, InRange)
{
    Rng rng(29);
    ZipfGenerator zipf(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 1000u);
}

TEST(Zipf, SkewOrdersRanks)
{
    Rng rng(31);
    ZipfGenerator zipf(1000, 0.99);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.sample(rng)];
    // Rank 0 must be the clear winner and the head must dominate.
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[100]);
    int head = 0;
    for (int i = 0; i < 100; ++i)
        head += counts[i];
    EXPECT_GT(head, 200000 / 2);  // top 10% gets over half the mass
}

TEST(Zipf, LowThetaIsFlatter)
{
    Rng rng(37);
    ZipfGenerator skewed(1000, 1.1), flat(1000, 0.3);
    int skewedHead = 0, flatHead = 0;
    for (int i = 0; i < 50000; ++i) {
        skewedHead += skewed.sample(rng) < 10;
        flatHead += flat.sample(rng) < 10;
    }
    EXPECT_GT(skewedHead, 2 * flatHead);
}

TEST(ZipfConcurrency, EqualParametersGiveIdenticalStreams)
{
    // Generators built at once on several threads share one memoised
    // normaliser; parameters no other test uses, so the first builds
    // race on an empty entry. n > 2^20 takes the integral tail too.
    constexpr std::uint64_t kN = 1'500'007;
    constexpr double kTheta = 0.913;
    constexpr int kThreads = 4;
    constexpr int kSamples = 4000;
    std::vector<std::vector<std::uint64_t>> streams(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&streams, t] {
            const ZipfGenerator zipf(kN, kTheta);
            Rng rng(41);
            for (int i = 0; i < kSamples; ++i)
                streams[t].push_back(zipf.sample(rng));
        });
    }
    for (auto &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(streams[t], streams[0]) << "thread " << t;

    const ZipfGenerator again(kN, kTheta);
    Rng rng(41);
    for (int i = 0; i < kSamples; ++i)
        ASSERT_EQ(again.sample(rng), streams[0][i]) << "sample " << i;
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 6.0, 8.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_NEAR(s.variance(), 20.0 / 3.0, 1e-12);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Rng rng(41);
    RunningStat whole, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 2.0);
        whole.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(15.0);
    h.add(5.0);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.count(5), 1u);
}

TEST(Histogram, BinEdges)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.binLow(3), 3.0);
    EXPECT_DOUBLE_EQ(h.binHigh(3), 4.0);
}

TEST(LatencyRecorder, ExactPercentiles)
{
    LatencyRecorder rec;
    for (int i = 100; i >= 1; --i)
        rec.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(rec.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(rec.percentile(90), 90.0);
    EXPECT_DOUBLE_EQ(rec.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(rec.percentile(0), 1.0);
}

TEST(PiecewiseLinearTable, InterpolatesAndClamps)
{
    PiecewiseLinearTable table({{0.0, 0.0}, {1.0, 100.0}, {2.0, 400.0}});
    EXPECT_DOUBLE_EQ(table.lookup(0.5), 50.0);
    EXPECT_DOUBLE_EQ(table.lookup(1.5), 250.0);
    EXPECT_DOUBLE_EQ(table.lookup(-1.0), 0.0);   // clamp low
    EXPECT_DOUBLE_EQ(table.lookup(5.0), 400.0);  // clamp high
}

}  // namespace
}  // namespace cubessd
