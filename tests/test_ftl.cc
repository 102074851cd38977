/**
 * @file
 * FTL engine tests (as pageFTL and vertFTL): write/read
 * data path, coalescing, GC relocation, stalls, drain, and the
 * cross-structure consistency invariant.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ftl/ftl.h"
#include "src/ftl/program_order.h"
#include "src/ssd/ssd.h"
#include "src/trace/trace.h"

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
    config.seed = 77;
    return config;
}

ssd::Completion
writeSync(ssd::Ssd &dev, Lba lba, std::uint32_t pages)
{
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = lba;
    req.pages = pages;
    return dev.submitSync(req);
}

ssd::Completion
readSync(ssd::Ssd &dev, Lba lba, std::uint32_t pages)
{
    ssd::HostRequest req;
    req.type = ssd::IoType::Read;
    req.lba = lba;
    req.pages = pages;
    return dev.submitSync(req);
}

TEST(Ftl, WriteThenPeekSeesData)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    EXPECT_FALSE(dev.peek(5).has_value());
    writeSync(dev, 5, 1);
    EXPECT_TRUE(dev.peek(5).has_value());
}

TEST(Ftl, OverwriteChangesToken)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    writeSync(dev, 9, 1);
    const auto first = dev.peek(9);
    writeSync(dev, 9, 1);
    const auto second = dev.peek(9);
    ASSERT_TRUE(first && second);
    EXPECT_NE(*first, *second);
}

TEST(Ftl, DataSurvivesDrainToFlash)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    std::map<Lba, std::uint64_t> expected;
    for (Lba lba = 0; lba < 40; ++lba) {
        writeSync(dev, lba, 1);
        expected[lba] = dev.peek(lba).value();
    }
    dev.drain();
    EXPECT_TRUE(dev.ftl().buffer().empty());
    for (const auto &[lba, token] : expected)
        EXPECT_EQ(dev.peek(lba).value(), token) << "LBA " << lba;
    dev.ftl().checkConsistency();
}

TEST(Ftl, ReadCompletesWithPlausibleLatency)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    for (Lba lba = 0; lba < 30; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    const auto completion = readSync(dev, 7, 1);
    // One NAND sense + transfer: tens of microseconds.
    EXPECT_GT(completion.latency(), 50u * kMicrosecond);
    EXPECT_LT(completion.latency(), 1u * kMillisecond);
    EXPECT_EQ(dev.ftl().stats().nandReads, 1u);
}

TEST(Ftl, BufferedReadIsFast)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    writeSync(dev, 3, 1);
    const auto completion = readSync(dev, 3, 1);
    EXPECT_EQ(completion.latency(),
              smallConfig(ssd::FtlKind::Page).bufferReadTime);
    EXPECT_EQ(dev.ftl().stats().bufferHits, 1u);
}

TEST(Ftl, UnmappedReadServedAsZeros)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Page));
    const auto completion = readSync(dev, 100, 1);
    EXPECT_EQ(dev.ftl().stats().unmappedReads, 1u);
    EXPECT_GT(completion.finish, 0u);
}

TEST(Ftl, LargeWriteStallsAndCompletes)
{
    auto config = smallConfig(ssd::FtlKind::Page);
    ssd::Ssd dev(config);
    // One request far larger than the write buffer must stall and
    // finish via background flushes.
    const std::uint32_t pages = config.writeBufferPages * 3;
    const auto completion = writeSync(dev, 0, pages);
    EXPECT_EQ(completion.pages, pages);
    EXPECT_GT(dev.ftl().stats().writeStalls, 0u);
    dev.drain();
    for (Lba lba = 0; lba < pages; ++lba)
        EXPECT_TRUE(dev.peek(lba).has_value());
}

TEST(Ftl, GcReclaimsSpaceAndPreservesData)
{
    auto config = smallConfig(ssd::FtlKind::Page);
    ssd::Ssd dev(config);
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(4);
    // Fill, then overwrite randomly until GC must have run.
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba, 1);
    for (int i = 0; i < static_cast<int>(span); ++i)
        writeSync(dev, rng.uniformInt(span), 1);
    dev.drain();
    const auto &stats = dev.ftl().stats();
    EXPECT_GT(stats.gcCollections, 0u);
    EXPECT_GT(stats.erases, 0u);
    EXPECT_GT(stats.gcRelocatedPages, 0u);
    dev.ftl().checkConsistency();
    // Every logical page still readable with its latest token.
    std::map<Lba, std::uint64_t> seen;
    for (Lba lba = 0; lba < span; ++lba) {
        const auto token = dev.peek(lba);
        ASSERT_TRUE(token.has_value()) << "LBA " << lba;
        seen[lba] = *token;
    }
    // Tokens are unique per (lba, version) — no cross-page clobbering.
    std::set<std::uint64_t> uniq;
    for (auto &[lba, token] : seen)
        EXPECT_TRUE(uniq.insert(token).second);
}

TEST(Ftl, WriteAmplificationReported)
{
    auto config = smallConfig(ssd::FtlKind::Page);
    ssd::Ssd dev(config);
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(4);
    for (Lba lba = 0; lba < span; ++lba)
        writeSync(dev, lba, 1);
    for (int i = 0; i < static_cast<int>(span / 2); ++i)
        writeSync(dev, rng.uniformInt(span), 1);
    dev.drain();
    const double waf = dev.ftl().stats().writeAmplification();
    EXPECT_GE(waf, 1.0);
    EXPECT_LT(waf, 20.0);
}

TEST(Ftl, LeaderFollowerCountsMatchGeometry)
{
    auto config = smallConfig(ssd::FtlKind::Page);
    ssd::Ssd dev(config);
    for (Lba lba = 0; lba < dev.logicalPages() / 2; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    const auto &stats = dev.ftl().stats();
    // Horizontal-first: 1 leader per 4 WLs.
    const double ratio =
        static_cast<double>(stats.followerPrograms) /
        static_cast<double>(stats.leaderPrograms);
    EXPECT_NEAR(ratio, 3.0, 0.3);
}

TEST(Ftl, VertFtlBuildsMonotoneTable)
{
    auto config = smallConfig(ssd::FtlKind::Vert);
    config.chip.geometry.layersPerBlock = 48;  // realistic profile
    ssd::Ssd dev(config);
    const auto &vert = dev.ftl();
    const auto &table = vert.vFinalTable();
    ASSERT_EQ(table.size(), 48u);
    // The best layers earn the largest static V_Final reduction;
    // the worst (bottom edge) earns nothing.
    const auto &process = dev.chip(0).process();
    EXPECT_GT(table[process.layerBeta()], 0);
    EXPECT_EQ(table[process.layerOmega()], 0);
    EXPECT_GE(table[process.layerBeta()], table[process.layerKappa()]);
}

TEST(Ftl, SequentialThenSequentialOverwriteIsCheapGc)
{
    // Pure sequential overwrite invalidates whole blocks: GC victims
    // should be nearly empty (low relocation count).
    auto config = smallConfig(ssd::FtlKind::Page);
    ssd::Ssd dev(config);
    const Lba span = dev.logicalPages() * 8 / 10;
    for (int round = 0; round < 2; ++round)
        for (Lba lba = 0; lba < span; ++lba)
            writeSync(dev, lba, 1);
    dev.drain();
    const auto &stats = dev.ftl().stats();
    const double relocPerCollection =
        stats.gcCollections
            ? static_cast<double>(stats.gcRelocatedPages) /
                  static_cast<double>(stats.gcCollections)
            : 0.0;
    EXPECT_LT(relocPerCollection,
              config.chip.geometry.pagesPerBlock() / 2.0);
    dev.ftl().checkConsistency();
}

/** Every completion's latency and the FTL and GC counters of a run,
 *  plus the device's state digest after it. */
struct RunOutput
{
    std::vector<SimTime> latencies;
    ftl::FtlStats ftl;
    ftl::GcStats gc;
    std::uint64_t digest = 0;

    bool operator==(const RunOutput &) const = default;
};

/**
 * Aged, GC-heavy traffic on `dev`: at 2K P/E, fill 90% of the logical
 * space and overwrite it once at random (GC must run), then after 12
 * months of retention read half of it back at random (reads retry).
 */
RunOutput
agedGcRun(ssd::Ssd &dev)
{
    RunOutput out;
    const auto record = [&](const ssd::Completion &c) {
        out.latencies.push_back(c.latency());
    };
    const Lba span = dev.logicalPages() * 9 / 10;
    Rng rng(8);
    dev.setAging({2000, 0.0});
    for (Lba lba = 0; lba < span; ++lba)
        record(writeSync(dev, lba, 1));
    for (Lba i = 0; i < span; ++i)
        record(writeSync(dev, rng.uniformInt(span), 1));
    dev.setAging({2000, 12.0});
    for (Lba i = 0; i < span / 2; ++i)
        record(readSync(dev, rng.uniformInt(span), 1));
    dev.drain();
    dev.ftl().checkConsistency();
    out.ftl = dev.ftl().stats();
    out.gc = dev.ftl().gcStats();
    out.digest = dev.stateDigest();
    return out;
}

TEST(Ftl, PageAndVertProgramHorizontalFirstAndLearnNothing)
{
    for (const auto kind : {ssd::FtlKind::Page, ssd::FtlKind::Vert}) {
        SCOPED_TRACE(ssd::ftlKindName(kind));
        const auto config = smallConfig(kind);
        ssd::Ssd dev(config);
        trace::TraceSession session({std::size_t{1} << 20});
        dev.attachTrace(&session);
        const RunOutput run = agedGcRun(dev);
        ASSERT_EQ(session.dropped(), 0u);
        EXPECT_GT(run.ftl.gcCollections, 0u);
        EXPECT_GT(run.ftl.readRetries, 0u);

        // Each die programs in dispatch order, so its program spans
        // list every block's WLs in the order they were picked: the
        // horizontal-first sequence, from its start after each erase
        // (GC erases only fully programmed blocks).
        const auto &geom = config.chip.geometry;
        const auto order = ftl::programSequence(
            ftl::ProgramOrderKind::HorizontalFirst, geom, 0);
        std::map<std::pair<std::string, std::int64_t>, std::size_t> next;
        std::uint64_t programs = 0;
        for (std::size_t i = 0; i < session.size(); ++i) {
            const auto &e = session.event(i);
            const std::string &track = session.trackName(e.track);
            if (e.kind != trace::EventKind::Complete ||
                track.rfind("die/", 0) != 0)
                continue;
            std::size_t &pos = next[{track, e.args[0].value}];
            if (std::strcmp(e.name, "erase") == 0) {
                EXPECT_EQ(pos, order.size()) << track;
                pos = 0;
                continue;
            }
            if (std::strcmp(e.name, "program") != 0 &&
                std::strcmp(e.name, "gc_program") != 0)
                continue;
            ASSERT_LT(pos, order.size()) << track;
            EXPECT_EQ(e.args[1].value, order[pos].layer) << track;
            EXPECT_EQ(e.args[2].value, ftl::isLeaderWl(order[pos]) ? 1 : 0)
                << track;
            ++pos;
            ++programs;
        }
        EXPECT_EQ(programs,
                  run.ftl.hostPrograms + run.ftl.gcPrograms);

        // Nothing is monitored, reused, looked up or re-programmed.
        const auto &ftl = dev.ftl();
        EXPECT_EQ(ftl.cubeStats().followerWithParams, 0u);
        EXPECT_EQ(ftl.ort().hits() + ftl.ort().misses(), 0u);
        EXPECT_EQ(run.ftl.safetyReprograms, 0u);
        EXPECT_EQ(ftl.vFinalTable().empty(), kind == ssd::FtlKind::Page);
    }
}

TEST(Ftl, PageAndVertIgnoreCubeFeatures)
{
    for (const auto kind : {ssd::FtlKind::Page, ssd::FtlKind::Vert}) {
        SCOPED_TRACE(ssd::ftlKindName(kind));
        const auto run = [&](bool on) {
            auto config = smallConfig(kind);
            config.cubeFeatures = {on, on, on, on, on};
            ssd::Ssd dev(config);
            return agedGcRun(dev);
        };
        ssd::Ssd dev(smallConfig(kind));
        const RunOutput reference = agedGcRun(dev);
        EXPECT_TRUE(run(true) == reference);
        EXPECT_TRUE(run(false) == reference);
    }
}

}  // namespace
}  // namespace cubessd
