/**
 * @file
 * Unit tests for the workload generators.
 */

#include <gtest/gtest.h>

#include <map>

#include "src/workload/workload.h"

namespace cubessd::workload {
namespace {

constexpr std::uint64_t kPages = 100000;

TEST(Workload, AllSpecsWellFormed)
{
    for (const auto &spec : allWorkloads()) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GE(spec.readFraction, 0.0);
        EXPECT_LE(spec.readFraction, 1.0);
        EXPECT_GE(spec.minPages, 1u);
        EXPECT_GE(spec.maxPages, spec.minPages);
        if (spec.maxWritePages != 0) {
            EXPECT_GE(spec.maxWritePages, spec.minWritePages);
        }
        EXPECT_GT(spec.workingSetFraction, 0.0);
        EXPECT_LE(spec.workingSetFraction, 1.0);
        if (spec.burstLength > 0) {
            EXPECT_GT(spec.interBurstGap, 0u);
        }
    }
}

TEST(Workload, SixPaperWorkloads)
{
    const auto all = allWorkloads();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name, "Mail");
    EXPECT_EQ(all[1].name, "Web");
    EXPECT_EQ(all[2].name, "Proxy");
    EXPECT_EQ(all[3].name, "OLTP");
    EXPECT_EQ(all[4].name, "Rocks");
    EXPECT_EQ(all[5].name, "Mongo");
}

TEST(Workload, RequestsStayWithinWorkingSet)
{
    WorkloadGenerator gen(oltp(), kPages, 1);
    for (int i = 0; i < 5000; ++i) {
        const auto req = gen.next();
        EXPECT_LT(req.lba + req.pages, gen.workingSetPages() + 1);
        EXPECT_GE(req.pages, 1u);
    }
}

TEST(Workload, ReadFractionRespected)
{
    WorkloadGenerator gen(web(), kPages, 2);
    int reads = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        reads += gen.next().type == ssd::IoType::Read;
    EXPECT_NEAR(static_cast<double>(reads) / n, web().readFraction,
                0.02);
}

TEST(Workload, WriteSizeRangeRespected)
{
    WorkloadGenerator gen(proxy(), kPages, 3);
    for (int i = 0; i < 5000; ++i) {
        const auto req = gen.next();
        if (req.type == ssd::IoType::Read) {
            EXPECT_GE(req.pages, proxy().minPages);
            EXPECT_LE(req.pages, proxy().maxPages);
        } else {
            EXPECT_GE(req.pages, proxy().minWritePages);
            EXPECT_LE(req.pages, proxy().maxWritePages);
        }
    }
}

TEST(Workload, ZipfSkewConcentratesAccesses)
{
    WorkloadGenerator gen(mongo(), kPages, 4);  // theta 0.99
    std::map<Lba, int> hits;
    for (int i = 0; i < 30000; ++i)
        ++hits[gen.next().lba];
    // The hottest page must absorb far more than the uniform share.
    int maxHits = 0;
    for (const auto &[lba, count] : hits)
        maxHits = std::max(maxHits, count);
    EXPECT_GT(maxHits, 100);
}

TEST(Workload, SequentialWritesAdvance)
{
    auto spec = rocks();
    spec.sequentialWriteFraction = 1.0;
    spec.readFraction = 0.0;
    WorkloadGenerator gen(spec, kPages, 5);
    Lba prevEnd = 0;
    for (int i = 0; i < 100; ++i) {
        const auto req = gen.next();
        EXPECT_EQ(req.lba, prevEnd);
        prevEnd = req.lba + req.pages;
    }
}

TEST(Workload, DeterministicPerSeed)
{
    WorkloadGenerator a(mail(), kPages, 9), b(mail(), kPages, 9);
    for (int i = 0; i < 1000; ++i) {
        const auto ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.lba, rb.lba);
        EXPECT_EQ(ra.pages, rb.pages);
        EXPECT_EQ(static_cast<int>(ra.type), static_cast<int>(rb.type));
    }
}

TEST(Workload, DifferentSeedsDiffer)
{
    WorkloadGenerator a(mail(), kPages, 1), b(mail(), kPages, 2);
    int same = 0;
    for (int i = 0; i < 200; ++i)
        same += a.next().lba == b.next().lba;
    EXPECT_LT(same, 50);
}

TEST(WorkloadDeathTest, EmptyDeviceRejected)
{
    EXPECT_EXIT(WorkloadGenerator(mail(), 0, 1),
                ::testing::ExitedWithCode(1), "empty device");
}

}  // namespace
}  // namespace cubessd::workload
