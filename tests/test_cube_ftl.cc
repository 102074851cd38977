/**
 * @file
 * cubeFTL-specific tests: leader monitoring feeds follower commands,
 * follower programs are faster, the ORT eliminates repeat retries,
 * WAM steering reacts to buffer pressure, and cubeFTL- degenerates to
 * horizontal-first.
 */

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/ftl/ftl.h"
#include "src/ssd/ssd.h"

namespace cubessd {
namespace {

ssd::SsdConfig
smallConfig(ssd::FtlKind kind)
{
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 16;
    config.chip.geometry.layersPerBlock = 8;
    config.chip.geometry.wlsPerLayer = 4;
    config.writeBufferPages = 24;
    config.logicalFraction = 0.6;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = kind;
    config.seed = 91;
    return config;
}

void
writeSync(ssd::Ssd &dev, Lba lba, std::uint32_t pages)
{
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = lba;
    req.pages = pages;
    dev.submitSync(req);
}

ssd::Completion
readSync(ssd::Ssd &dev, Lba lba, std::uint32_t pages = 1)
{
    ssd::HostRequest req;
    req.type = ssd::IoType::Read;
    req.lba = lba;
    req.pages = pages;
    return dev.submitSync(req);
}

TEST(CubeFtl, FollowersUseDerivedParams)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube));
    for (Lba lba = 0; lba < 300; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    const auto &cube = dev.ftl();
    const auto &cs = cube.cubeStats();
    EXPECT_GT(cs.followerWithParams, 0u);
    // Nearly every follower must ride on leader-derived parameters.
    EXPECT_LT(cs.followerWithoutParams, cs.followerWithParams / 10 + 3);
}

TEST(CubeFtl, FollowerProgramsAreFasterOnAverage)
{
    auto run = [](ssd::FtlKind kind) {
        ssd::Ssd dev(smallConfig(kind));
        for (Lba lba = 0; lba < 400; ++lba)
            writeSync(dev, lba, 1);
        dev.drain();
        return dev.ftl().stats().avgProgramLatencyUs();
    };
    const double cube = run(ssd::FtlKind::Cube);
    const double page = run(ssd::FtlKind::Page);
    // Paper: ~30% average tPROG reduction for cubeFTL.
    EXPECT_LT(cube, page * 0.82);
    EXPECT_GT(cube, page * 0.55);
}

TEST(CubeFtl, OrtEliminatesRepeatRetries)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube));
    dev.setAging({2000, 0.0});
    for (Lba lba = 0; lba < 120; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    dev.setAging({2000, 12.0});

    // First read of each page on an h-layer may retry; repeats of the
    // same pages must ride the ORT.
    auto readAll = [&] {
        const auto before = dev.ftl().stats().readRetries;
        for (Lba lba = 0; lba < 120; ++lba)
            readSync(dev, lba);
        return dev.ftl().stats().readRetries - before;
    };
    const auto firstPass = readAll();
    const auto secondPass = readAll();
    EXPECT_GT(firstPass, 0u);
    EXPECT_LT(secondPass, firstPass / 3);

    const auto &cube = dev.ftl();
    EXPECT_GT(cube.cubeStats().ortGuidedReads, 0u);
}

TEST(CubeFtl, PsUnawareFtlRetriesEveryTime)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    dev.setAging({2000, 0.0});
    for (Lba lba = 0; lba < 120; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    dev.setAging({2000, 12.0});
    auto readAll = [&] {
        const auto before = dev.ftl().stats().readRetries;
        for (Lba lba = 0; lba < 120; ++lba)
            readSync(dev, lba);
        return dev.ftl().stats().readRetries - before;
    };
    const auto firstPass = readAll();
    const auto secondPass = readAll();
    // No learning: the second pass pays all over again.
    EXPECT_GT(secondPass, firstPass / 2);
}

TEST(CubeFtl, CubeMinusUsesSingleWritePointHorizontalOrder)
{
    // cubeFTL- is cubeFTL with the WAM off.
    auto config = smallConfig(ssd::FtlKind::Cube);
    config.cubeFeatures.wam = false;
    ssd::Ssd dev(config);
    for (Lba lba = 0; lba < 300; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    const auto &stats = dev.ftl().stats();
    // Horizontal-first: leader:follower == 1:3.
    const double ratio = static_cast<double>(stats.followerPrograms) /
                         static_cast<double>(stats.leaderPrograms);
    EXPECT_NEAR(ratio, 3.0, 0.35);
    dev.ftl().checkConsistency();
}

TEST(CubeFtl, DataIntegrityUnderGcChurn)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube));
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(8);
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba, 1);
    std::vector<std::uint64_t> latest(span);
    for (int i = 0; i < static_cast<int>(span); ++i)
        writeSync(dev, rng.uniformInt(span), 1);
    dev.drain();
    for (Lba lba = 0; lba < span; ++lba)
        latest[lba] = dev.peek(lba).value();
    dev.ftl().checkConsistency();
    EXPECT_GT(dev.ftl().stats().gcCollections, 0u);
    // Reads return exactly the latest tokens.
    for (Lba lba = 0; lba < span; lba += 7) {
        readSync(dev, lba);
        EXPECT_EQ(dev.peek(lba).value(), latest[lba]);
    }
}

TEST(CubeFtl, ConsistencyHoldsUnderMixedLoad)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube));
    Rng rng(15);
    const Lba span = dev.logicalPages() / 2;
    for (int i = 0; i < 2000; ++i) {
        ssd::HostRequest req;
        req.type = rng.bernoulli(0.5) ? ssd::IoType::Read
                                      : ssd::IoType::Write;
        req.lba = rng.uniformInt(span);
        req.pages = 1 + static_cast<std::uint32_t>(rng.uniformInt(4));
        dev.submitSync(req);
    }
    dev.drain();
    dev.ftl().checkConsistency();
}

TEST(CubeFtl, SafetyReprogramsAreRareButHandled)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube));
    const Lba span = dev.logicalPages() * 3 / 4;
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    const auto &stats = dev.ftl().stats();
    // The check exists and almost never fires under stable conditions.
    EXPECT_LT(stats.safetyReprograms,
              (stats.hostPrograms + stats.gcPrograms) / 50 + 2);
    dev.ftl().checkConsistency();
    for (Lba lba = 0; lba < span; lba += 11)
        EXPECT_TRUE(dev.peek(lba).has_value());
}

TEST(CubeFtl, AblationSwitchesChangeBehaviour)
{
    auto run = [](const ssd::CubeFeatures &features) {
        auto config = smallConfig(ssd::FtlKind::Cube);
        config.cubeFeatures = features;
        ssd::Ssd dev(config);
        for (Lba lba = 0; lba < 400; ++lba)
            writeSync(dev, lba, 1);
        dev.drain();
        return dev.ftl().stats().avgProgramLatencyUs();
    };
    const double all = run({true, true, true, true});
    const double noSkip = run({false, true, true, true});
    const double noWindow = run({true, false, true, true});
    const double none = run({false, false, true, true});
    // Each program-path technique contributes latency on its own.
    EXPECT_LT(all, noSkip);
    EXPECT_LT(all, noWindow);
    EXPECT_LT(noSkip, none * 1.01);
    EXPECT_LT(noWindow, none * 1.01);
    // With both program techniques off, followers run at default
    // speed (like pageFTL).
    EXPECT_NEAR(none, 700.0, 25.0);
}

TEST(CubeFtl, OrtSwitchDisablesReadLearning)
{
    auto retriesSecondPass = [](bool ortOn) {
        auto config = smallConfig(ssd::FtlKind::Cube);
        config.cubeFeatures.ort = ortOn;
        ssd::Ssd dev(config);
        dev.setAging({2000, 0.0});
        for (Lba lba = 0; lba < 120; ++lba)
            writeSync(dev, lba, 1);
        dev.drain();
        dev.setAging({2000, 12.0});
        for (Lba lba = 0; lba < 120; ++lba)
            readSync(dev, lba);
        const auto before = dev.ftl().stats().readRetries;
        for (Lba lba = 0; lba < 120; ++lba)
            readSync(dev, lba);
        return dev.ftl().stats().readRetries - before;
    };
    const auto with = retriesSecondPass(true);
    const auto without = retriesSecondPass(false);
    EXPECT_LT(with, without / 2);
}

TEST(CubeFtl, SafetyCheckFiresOnSuddenConditionChange)
{
    // Sec. 4.1.4: a sudden operating-condition change invalidates the
    // leader's monitored parameters; the FTL must detect the deviant
    // follower program and re-program the data.
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube));
    // Program leaders (and derive parameters) under fresh conditions.
    for (Lba lba = 0; lba < 60; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    // Sudden severe change: heavy wear + retention shifts the ISPP
    // windows, so the cached skip plans now over-program.
    dev.setAging({2000, 12.0});
    for (Lba lba = 60; lba < 400; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    EXPECT_GT(dev.ftl().stats().safetyReprograms, 0u);
    dev.ftl().checkConsistency();
    // The re-programmed data is intact.
    for (Lba lba = 0; lba < 400; ++lba)
        EXPECT_TRUE(dev.peek(lba).has_value());
}

}  // namespace
}  // namespace cubessd
