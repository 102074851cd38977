/**
 * @file
 * Tests of the FTL's garbage collection (src/ftl/gc.cc): steady-state
 * behaviour under sustained random overwrite, watermark maintenance,
 * and stats accounting.
 */

#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/ftl/ftl.h"
#include "src/ssd/ssd.h"

namespace cubessd {
namespace {

ssd::SsdConfig
smallConfig()
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
    config.ftl = ssd::FtlKind::Page;
    config.seed = 77;
    return config;
}

void
writeSync(ssd::Ssd &dev, Lba lba)
{
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = lba;
    req.pages = 1;
    dev.submitSync(req);
}

TEST(Gc, SteadyStateOverwriteRespectsWatermarksAndKeepsMapping)
{
    const auto config = smallConfig();
    ssd::Ssd dev(config);
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(4);

    // Fill once, then overwrite randomly for two full spans — enough
    // churn that every chip cycles through collections repeatedly and
    // the device reaches a GC steady state.
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba);
    for (std::uint64_t i = 0; i < 2 * span; ++i) {
        writeSync(dev, rng.uniformInt(span));
        if (i % 64 == 0) {
            // The urgent watermark reserves blocks for GC progress: a
            // chip may only be out of free blocks while its GC is
            // actively reclaiming one (the relocation target itself
            // takes the last free block).
            for (std::uint32_t c = 0; c < dev.chipCount(); ++c) {
                ASSERT_TRUE(dev.ftl().blockManager(c).freeCount() >= 1 ||
                            dev.ftl().collecting(c))
                    << "chip " << c << " exhausted with GC idle";
            }
        }
    }
    dev.drain();

    const auto gc = dev.ftl().gcStats();
    EXPECT_GT(gc.collections, 0u);
    EXPECT_GT(gc.relocatedPages, 0u);
    EXPECT_GT(gc.erases, 0u);
    EXPECT_GT(gc.scanReads, 0u);

    // Sustained random overwrite of a 90%-utilized device must
    // relocate live data: write amplification strictly above 1.
    EXPECT_GT(dev.ftl().stats().writeAmplification(), 1.0);

    // After the drain, hysteresis has run every chip back above the
    // urgent watermark.
    for (std::uint32_t c = 0; c < dev.chipCount(); ++c) {
        EXPECT_GE(dev.ftl().blockManager(c).freeCount(),
                  config.gcUrgentWatermark);
    }

    // No mapping entry is lost by relocation: every written LBA is
    // still readable and structures are mutually consistent.
    for (Lba lba = 0; lba < span; ++lba)
        ASSERT_TRUE(dev.peek(lba).has_value()) << "LBA " << lba;
    dev.ftl().checkConsistency();
}

TEST(Gc, StatsMirrorFtlCounters)
{
    ssd::Ssd dev(smallConfig());
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(9);
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba);
    for (std::uint64_t i = 0; i < span; ++i)
        writeSync(dev, rng.uniformInt(span));
    dev.drain();

    // gcStats() reads collections, relocations and erases from
    // FtlStats, and the engine counts GC programs on its own (failed
    // ones too, so the two agree only without fault injection).
    const auto gc = dev.ftl().gcStats();
    const auto &ftl = dev.ftl().stats();
    EXPECT_EQ(gc.collections, ftl.gcCollections);
    EXPECT_EQ(gc.relocatedPages, ftl.gcRelocatedPages);
    EXPECT_EQ(gc.erases, ftl.erases);
    EXPECT_EQ(gc.programs, ftl.gcPrograms);
}

TEST(Gc, ProgramLatencyAttributed)
{
    ssd::Ssd dev(smallConfig());
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(11);
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba);
    for (std::uint64_t i = 0; i < span; ++i)
        writeSync(dev, rng.uniformInt(span));
    dev.drain();

    const auto gc = dev.ftl().gcStats();
    ASSERT_GT(gc.programs, 0u);
    EXPECT_GT(gc.programLatencySum, 0u);
    EXPECT_GT(gc.avgProgramLatencyUs(), 0.0);
    // GC programs are a subset of all programs, so the GC-attributed
    // latency must be a subset of the total program latency.
    EXPECT_LE(gc.programLatencySum,
              dev.ftl().stats().programLatencySum);
}

}  // namespace
}  // namespace cubessd
