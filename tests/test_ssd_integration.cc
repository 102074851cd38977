/**
 * @file
 * Whole-device integration tests: the Driver against a populated SSD,
 * the paper's FTL ordering on a small configuration, and aging
 * injection end to end.
 */

#include <gtest/gtest.h>

#include <utility>

#include "src/ftl/ftl.h"
#include "src/workload/driver.h"
#include "tests/closure_adapters.h"

namespace cubessd {
namespace {

ssd::SsdConfig
integrationConfig(ssd::FtlKind kind, std::uint64_t seed = 42)
{
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = kind;
    config.seed = seed;
    return config;
}

TEST(SsdIntegration, DriverPrefillFillsDevice)
{
    ssd::Ssd dev(integrationConfig(ssd::FtlKind::Page));
    auto spec = workload::oltp();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.1);
    EXPECT_EQ(dev.ftl().mapping().mappedCount(), dev.logicalPages());
    dev.ftl().checkConsistency();
}

TEST(SsdIntegration, SteadyRunProducesSaneLatencies)
{
    ssd::Ssd dev(integrationConfig(ssd::FtlKind::Page));
    auto spec = workload::web();  // steady closed loop
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.1);
    const auto result = driver.run(3000);
    EXPECT_EQ(result.completedRequests, 3000u);
    EXPECT_GT(result.iops, 100.0);
    const auto &reads = result.requestMetrics.latency(ssd::IoType::Read);
    EXPECT_GT(reads.total(), 1000u);
    // Reads: at least a sense + transfer (50 us).
    EXPECT_GT(reads.percentile(50), 50.0 * 1000);
}

TEST(SsdIntegration, BurstyRunCompletes)
{
    ssd::Ssd dev(integrationConfig(ssd::FtlKind::Cube));
    auto spec = workload::oltp();  // bursty mode
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.1);
    const auto result = driver.run(3000);
    EXPECT_EQ(result.completedRequests, 3000u);
    dev.ftl().checkConsistency();
}

TEST(SsdIntegration, CubeBeatsPageOnWriteHeavyWorkload)
{
    // The headline direction of Fig. 17(a) on a scaled-down device.
    auto run = [](ssd::FtlKind kind) {
        ssd::Ssd dev(integrationConfig(kind));
        auto spec = workload::oltp();
        workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
        workload::Driver driver(dev, gen);
        driver.prefill(0.2);
        return driver.run(8000).iops;
    };
    const double page = run(ssd::FtlKind::Page);
    const double cube = run(ssd::FtlKind::Cube);
    EXPECT_GT(cube, page * 1.05);
}

TEST(SsdIntegration, AgingInjectionSlowsPsUnawareReads)
{
    // Fig. 17(c) direction: pageFTL IOPS collapses at EOL retention;
    // cubeFTL holds up via the ORT.
    auto run = [](ssd::FtlKind kind) {
        ssd::Ssd dev(integrationConfig(kind));
        auto spec = workload::web();
        workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
        workload::Driver driver(dev, gen);
        dev.setAging({2000, 0.0});
        driver.prefill(0.1);
        dev.setAging({2000, 12.0});
        return driver.run(4000).iops;
    };
    const double page = run(ssd::FtlKind::Page);
    const double cube = run(ssd::FtlKind::Cube);
    EXPECT_GT(cube, page * 1.3);
}

TEST(SsdIntegration, FourFtlsAllPreserveData)
{
    // The fourth is cubeFTL-: Cube with the WAM off.
    const std::pair<ssd::FtlKind, bool> ftls[] = {
        {ssd::FtlKind::Page, true}, {ssd::FtlKind::Vert, true},
        {ssd::FtlKind::Cube, true}, {ssd::FtlKind::Cube, false}};
    for (const auto &[kind, wam] : ftls) {
        auto config = integrationConfig(kind);
        config.cubeFeatures.wam = wam;
        ssd::Ssd dev(config);
        auto spec = workload::mongo();
        workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
        workload::Driver driver(dev, gen);
        driver.prefill(0.15);
        driver.run(2000);
        dev.drain();
        dev.ftl().checkConsistency();
        for (Lba lba = 0; lba < dev.logicalPages(); lba += 997)
            EXPECT_TRUE(dev.peek(lba).has_value())
                << ssd::ftlKindName(kind) << (wam ? "" : "-");
    }
}

TEST(SsdIntegration, SeedsChangeOutcomesDeterministically)
{
    auto run = [](std::uint64_t seed) {
        ssd::Ssd dev(integrationConfig(ssd::FtlKind::Cube, seed));
        auto spec = workload::mail();
        workload::WorkloadGenerator gen(spec, dev.logicalPages(),
                                        seed + 1);
        workload::Driver driver(dev, gen);
        driver.prefill(0.1);
        return driver.run(1500).iops;
    };
    const double a1 = run(3), a2 = run(3), b = run(4);
    EXPECT_DOUBLE_EQ(a1, a2);  // same seed: bit-identical
    EXPECT_NE(a1, b);          // different seed: different run
}

TEST(SsdIntegration, CompletionsCarryPhaseDecomposition)
{
    ssd::Ssd dev(integrationConfig(ssd::FtlKind::Page));
    auto spec = workload::web();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.1);
    const auto result = driver.run(3000);

    // NAND reads dominate this read-heavy run: the recorded read
    // phases must show die (sense) and bus (transfer) time.
    const auto &readPhases =
        result.requestMetrics.phases(ssd::IoType::Read);
    EXPECT_GT(readPhases.die.max(), 0u);
    EXPECT_GT(readPhases.bus.max(), 0u);
    // Host-visible write time is the buffer insert.
    const auto &writePhases =
        result.requestMetrics.phases(ssd::IoType::Write);
    EXPECT_GT(writePhases.buffer.max(), 0u);
    // One latency histogram sample per completed request.
    EXPECT_EQ(result.requestMetrics.recorded(ssd::IoType::Read) +
                  result.requestMetrics.recorded(ssd::IoType::Write),
              result.completedRequests);

    // A run that moved data must have kept channels and dies busy for
    // part of the measured window.
    ASSERT_EQ(result.utilization.channel.size(), 2u);
    ASSERT_EQ(result.utilization.die.size(), 4u);
    EXPECT_GT(result.utilization.averageChannel(), 0.0);
    EXPECT_GT(result.utilization.averageDie(), 0.0);
    for (const double u : result.utilization.die) {
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(SsdIntegration, BufferHitReadHasBufferPhaseOnly)
{
    ssd::Ssd dev(integrationConfig(ssd::FtlKind::Page));
    ssd::HostRequest write;
    write.type = ssd::IoType::Write;
    write.lba = 5;
    write.pages = 1;
    test::submit(dev, write, [](const ssd::Completion &) {});
    ssd::HostRequest read;
    read.type = ssd::IoType::Read;
    read.lba = 5;
    read.pages = 1;
    ssd::Completion seen;
    test::submit(dev, read, [&](const ssd::Completion &c) { seen = c; });
    dev.queue().run();
    // The read is served from the write buffer: DRAM time, no NAND.
    EXPECT_GT(seen.phases.buffer, 0u);
    EXPECT_EQ(seen.phases.die, 0u);
    EXPECT_EQ(seen.phases.bus, 0u);
    EXPECT_EQ(seen.phases.retry, 0u);
}

TEST(SsdIntegration, SubmitAssignsIdsAndHonorsArrival)
{
    ssd::Ssd dev(integrationConfig(ssd::FtlKind::Page));
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = 0;
    req.pages = 1;
    req.arrival = 500 * kMicrosecond;
    ssd::Completion seen;
    test::submit(dev, req, [&](const ssd::Completion &c) { seen = c; });
    dev.queue().run();
    EXPECT_GT(seen.id, 0u);
    EXPECT_EQ(seen.arrival, 500 * kMicrosecond);
    EXPECT_GE(seen.finish, seen.arrival);
}

}  // namespace
}  // namespace cubessd
