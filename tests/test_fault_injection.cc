/**
 * @file
 * Fault injection and graceful degradation: injector determinism, the
 * Status-carrying completion contract, bad-block retirement with data
 * preservation, read-only mode, and config validation.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/ftl/ftl.h"
#include "src/nand/fault_injector.h"
#include "src/ssd/ssd.h"
#include "tests/closure_adapters.h"

namespace cubessd {
namespace {

// ---------------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------------

nand::ErrorModel
testErrors()
{
    return nand::ErrorModel(nand::ErrorParams{});
}

TEST(FaultInjector, DisabledNeverFails)
{
    const auto errors = testErrors();
    nand::FaultParams params;  // enabled = false
    params.programFailBase = 1.0;
    params.eraseFailBase = 1.0;
    params.uncorrectableNormLimit = 0.001;
    nand::FaultInjector inj(params, errors, 1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.programFails(1.2, {2000, 12.0}));
        EXPECT_FALSE(inj.eraseFails({2000, 12.0}));
    }
    EXPECT_FALSE(inj.readUncorrectable(100.0));
}

TEST(FaultInjector, SameSeedSameDecisions)
{
    const auto errors = testErrors();
    nand::FaultParams params;
    params.enabled = true;
    params.programFailBase = 0.3;
    params.eraseFailBase = 0.2;
    nand::FaultInjector a(params, errors, 99);
    nand::FaultInjector b(params, errors, 99);
    for (int i = 0; i < 200; ++i) {
        const double q = 1.0 + (i % 7) * 0.1;
        EXPECT_EQ(a.programFails(q, {1000, 1.0}),
                  b.programFails(q, {1000, 1.0}));
        EXPECT_EQ(a.eraseFails({1000, 1.0}), b.eraseFails({1000, 1.0}));
    }
}

TEST(FaultInjector, WearAndQualityRaiseProbability)
{
    const auto errors = testErrors();
    nand::FaultParams params;
    params.enabled = true;
    params.programFailBase = 1e-3;
    nand::FaultInjector inj(params, errors, 1);
    const double fresh = inj.programFailProbability(1.0, {0, 0.0});
    const double worn = inj.programFailProbability(1.0, {3000, 12.0});
    const double badLayer = inj.programFailProbability(1.5, {0, 0.0});
    EXPECT_GT(worn, fresh);
    EXPECT_GT(badLayer, fresh);
    EXPECT_LE(inj.programFailProbability(10.0, {3000, 12.0}), 1.0);
}

TEST(FaultInjector, UncorrectableThresholdIsDeterministic)
{
    const auto errors = testErrors();
    nand::FaultParams params;
    params.enabled = true;
    params.uncorrectableNormLimit = 5.0;
    nand::FaultInjector inj(params, errors, 1);
    EXPECT_FALSE(inj.readUncorrectable(4.9));
    EXPECT_TRUE(inj.readUncorrectable(5.1));
}

// ---------------------------------------------------------------------
// Device-level behaviour
// ---------------------------------------------------------------------

ssd::SsdConfig
faultConfig(double programFailBase, std::uint64_t seed = 42)
{
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.6;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Page;
    config.seed = seed;
    config.chip.faults.enabled = programFailBase > 0.0;
    config.chip.faults.programFailBase = programFailBase;
    return config;
}

/** Write `pages` logical pages (one request each) and drain. */
void
fillPages(ssd::Ssd &dev, std::uint64_t pages)
{
    for (Lba lba = 0; lba < pages; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        dev.submit(req, nullptr);
    }
    dev.drain();
}

TEST(FaultDevice, SameSeedSameRetirements)
{
    auto runOnce = [](std::uint64_t seed) {
        ssd::Ssd dev(faultConfig(2e-3, seed));
        dev.setAging({2000, 1.0});
        fillPages(dev, dev.logicalPages() / 2);
        return dev.ftl().stats();
    };
    const auto a = runOnce(42);
    const auto b = runOnce(42);
    EXPECT_GT(a.programFailures, 0u) << "tune the rate: no failures";
    EXPECT_EQ(a.programFailures, b.programFailures);
    EXPECT_EQ(a.retiredBlocks, b.retiredBlocks);
    EXPECT_EQ(a.badBlockRelocations, b.badBlockRelocations);
    EXPECT_EQ(a.flushReplays, b.flushReplays);
    EXPECT_EQ(a.hostPrograms, b.hostPrograms);
}

TEST(FaultDevice, BadBlockRemapPreservesData)
{
    // Rate tuned so the half-device fill sees a handful of program
    // failures without exhausting any chip's spare pool (seed 42:
    // 9 retirements spread over the 4 chips, no read-only).
    ssd::Ssd dev(faultConfig(2e-4));
    dev.setAging({2000, 1.0});

    const std::uint64_t pages = dev.logicalPages() / 2;
    std::vector<std::uint64_t> expected(pages);
    for (Lba lba = 0; lba < pages; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        ASSERT_TRUE(dev.submitSync(req).ok());
        // The token is fixed at buffering and must survive flushing,
        // program failure, and bad-block relocation unchanged.
        const auto token = dev.peek(lba);
        ASSERT_TRUE(token.has_value());
        expected[lba] = *token;
    }
    dev.drain();

    const auto &stats = dev.ftl().stats();
    ASSERT_GT(stats.retiredBlocks, 0u) << "tune the rate: no failures";
    ASSERT_GT(stats.badBlockRelocations, 0u);
    ASSERT_FALSE(dev.ftl().readOnly());
    for (Lba lba = 0; lba < pages; ++lba)
        EXPECT_EQ(dev.peek(lba), expected[lba]) << "lba " << lba;
    dev.ftl().checkConsistency();

    // Each host page is programmed once (a unique fill, no GC); the
    // WLs that move pages off retired blocks count apart.
    const std::uint32_t perWl = dev.config().chip.geometry.pagesPerWl;
    EXPECT_EQ(stats.hostPrograms, (pages + perWl - 1) / perWl);
    EXPECT_GE(stats.relocationPrograms * perWl, stats.badBlockRelocations);
}

TEST(FaultDevice, SpareExhaustionEntersReadOnlyMode)
{
    ssd::Ssd dev(faultConfig(0.05));
    dev.setAging({2000, 1.0});
    fillPages(dev, dev.logicalPages());
    ASSERT_TRUE(dev.ftl().readOnly());

    // New writes complete with ReadOnly instead of asserting.
    ssd::HostRequest wr;
    wr.type = ssd::IoType::Write;
    wr.lba = 0;
    const auto wc = dev.submitSync(wr);
    EXPECT_EQ(wc.status, ssd::Status::ReadOnly);
    EXPECT_FALSE(wc.ok());
    EXPECT_GT(dev.ftl().stats().readOnlyRejects, 0u);

    // Reads continue to be served (Ok or Uncorrectable, not ReadOnly).
    ssd::HostRequest rd;
    rd.type = ssd::IoType::Read;
    rd.lba = 0;
    const auto rc = dev.submitSync(rd);
    EXPECT_NE(rc.status, ssd::Status::ReadOnly);
    dev.ftl().checkConsistency();
}

TEST(FaultDevice, StalledWritesCompleteWhenTheDeviceTurnsReadOnly)
{
    // Every program fails, so blocks retire until the device turns
    // read-only while host writes are stalled on a full buffer. Each
    // write must still complete, Ok or ReadOnly.
    ssd::Ssd dev(faultConfig(1.0));
    dev.setAging({2000, 1.0});
    for (Lba lba = 0; lba < 1000; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        std::optional<ssd::Status> status;
        test::submit(dev, req,
                     [&](const ssd::Completion &c) { status = c.status; });
        while (!status && dev.queue().step()) {
        }
        ASSERT_TRUE(status) << "write " << lba << " never completed";
        ASSERT_TRUE(*status == ssd::Status::Ok ||
                    *status == ssd::Status::ReadOnly)
            << "write " << lba;
    }
    EXPECT_TRUE(dev.ftl().readOnly());
    EXPECT_GT(dev.ftl().stats().readOnlyRejects, 0u);
    dev.drain();
    dev.ftl().checkConsistency();
}

TEST(FaultDevice, UncorrectableReadCarriesStatus)
{
    auto config = faultConfig(0.0);
    config.chip.faults.enabled = true;
    // Far below the fresh-device normalized BER (~1), so every NAND
    // read exhausts the retry walk and the soft LDPC fallthrough.
    config.chip.faults.uncorrectableNormLimit = 0.1;
    ssd::Ssd dev(config);

    ssd::HostRequest wr;
    wr.type = ssd::IoType::Write;
    wr.lba = 7;
    EXPECT_TRUE(dev.submitSync(wr).ok());  // completes at buffering
    dev.drain();

    ssd::HostRequest rd;
    rd.type = ssd::IoType::Read;
    rd.lba = 7;
    const auto c = dev.submitSync(rd);
    EXPECT_EQ(c.status, ssd::Status::Uncorrectable);
    EXPECT_GT(dev.ftl().stats().uncorrectableReads, 0u);
}

TEST(FaultDevice, OutOfRangeRequestsAreRejected)
{
    ssd::Ssd dev(faultConfig(0.0));

    ssd::HostRequest rd;
    rd.type = ssd::IoType::Read;
    rd.lba = dev.logicalPages();
    EXPECT_EQ(dev.submitSync(rd).status, ssd::Status::Rejected);

    // A request straddling the end of the logical space is rejected
    // whole, not truncated.
    ssd::HostRequest wr;
    wr.type = ssd::IoType::Write;
    wr.lba = dev.logicalPages() - 1;
    wr.pages = 2;
    EXPECT_EQ(dev.submitSync(wr).status, ssd::Status::Rejected);

    ssd::HostRequest zero;
    zero.type = ssd::IoType::Read;
    zero.lba = 0;
    zero.pages = 0;
    EXPECT_EQ(dev.submitSync(zero).status, ssd::Status::Rejected);

    // A range whose lba + pages wraps past 2^64 is out of range too,
    // neither a buffer hit nor a write past the mapping.
    for (const auto type : {ssd::IoType::Read, ssd::IoType::Write}) {
        for (const auto &[lba, pages] :
             {std::pair<Lba, std::uint32_t>{~Lba{0} - 1, 2},
              std::pair<Lba, std::uint32_t>{~Lba{0}, 1}}) {
            ssd::HostRequest req;
            req.type = type;
            req.lba = lba;
            req.pages = pages;
            EXPECT_EQ(dev.submitSync(req).status, ssd::Status::Rejected)
                << "lba " << lba << " x " << pages;
        }
    }

    EXPECT_EQ(dev.ftl().stats().rejectedRequests, 7u);
    dev.ftl().checkConsistency();
}

TEST(FaultDevice, QueueDepthOneBackpressureWithFailures)
{
    auto config = faultConfig(0.05);
    config.hostQueueDepth = 1;
    ssd::Ssd dev(config);
    dev.setAging({2000, 1.0});

    // Drive into read-only through the depth-1 queue: every
    // completion — including ReadOnly rejections — must release its
    // queue slot or the remaining submissions would never finish.
    const std::uint64_t pages = dev.logicalPages();
    std::uint64_t completions = 0;
    std::uint64_t readOnlyCompletions = 0;
    for (Lba lba = 0; lba < pages; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        test::submit(dev, req, [&](const ssd::Completion &c) {
            ++completions;
            if (c.status == ssd::Status::ReadOnly)
                ++readOnlyCompletions;
        });
    }
    dev.drain();

    EXPECT_EQ(completions, pages);
    EXPECT_GT(dev.hostQueue().stats().blockedSubmissions, 0u);
    EXPECT_TRUE(dev.ftl().readOnly());
    EXPECT_GT(readOnlyCompletions, 0u);
    dev.ftl().checkConsistency();
}

// ---------------------------------------------------------------------
// SsdConfig::validate
// ---------------------------------------------------------------------

TEST(ConfigValidate, DefaultConfigIsValid)
{
    EXPECT_EQ(ssd::SsdConfig{}.validate(), "");
}

TEST(ConfigValidate, ReportsDescriptiveErrors)
{
    {
        ssd::SsdConfig c;
        c.channels = 0;
        EXPECT_NE(c.validate().find("channels"), std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.chip.geometry.pagesPerWl = 0;
        EXPECT_NE(c.validate().find("geometry"), std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.logicalFraction = 0.0;
        EXPECT_NE(c.validate().find("logicalFraction"),
                  std::string::npos);
        c.logicalFraction = 1.5;
        EXPECT_NE(c.validate().find("logicalFraction"),
                  std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.gcUrgentWatermark = 5;  // >= low watermark (4)
        EXPECT_NE(c.validate().find("gcUrgentWatermark"),
                  std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.gcLowWatermark = 7;  // > high watermark (6)
        EXPECT_NE(c.validate().find("gcLowWatermark"),
                  std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.writeBufferPages = 1;
        EXPECT_NE(c.validate().find("writeBufferPages"),
                  std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.logicalFraction = 0.999;  // no spare blocks left
        EXPECT_NE(c.validate().find("spare"), std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.chip.faults.programFailBase = 1.5;
        EXPECT_NE(c.validate().find("programFailBase"),
                  std::string::npos);
    }
    {
        ssd::SsdConfig c;
        c.chip.faults.wearScale = -1.0;
        EXPECT_NE(c.validate().find("wearScale"), std::string::npos);
    }
    {
        // 4.6G physical pages: more than the FTL's 32-bit page numbers
        // hold, and the 32-bit chips-times-pages products would wrap.
        ssd::SsdConfig c;
        c.chip.geometry.blocksPerChip = 1000000;
        EXPECT_NE(c.validate().find("physical pages"), std::string::npos);
        // 2^32 - 2 pages is the largest device that fits.
        c.channels = 1;
        c.chipsPerChannel = 2;
        c.chip.geometry.blocksPerChip = 1;
        c.chip.geometry.layersPerBlock = 1;
        c.chip.geometry.wlsPerLayer = 1;
        c.chip.geometry.pagesPerWl = 0x7fffffff;
        EXPECT_EQ(c.validate().find("physical pages"), std::string::npos);
        c.chip.geometry.pagesPerWl = 0x80000000;
        EXPECT_NE(c.validate().find("physical pages"), std::string::npos);
    }
}

TEST(ConfigValidateDeathTest, SsdConstructorRejectsInvalidConfig)
{
    ssd::SsdConfig c;
    c.gcUrgentWatermark = 9;
    EXPECT_DEATH(ssd::Ssd dev(c), "invalid configuration");
}

}  // namespace
}  // namespace cubessd
