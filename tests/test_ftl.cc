/**
 * @file
 * FTL engine tests (as pageFTL and vertFTL): write/read
 * data path, coalescing, GC relocation, stalls, drain, and the
 * cross-structure consistency invariant.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ftl/ftl.h"
#include "src/ftl/program_order.h"
#include "src/ssd/ssd.h"
#include "src/trace/trace.h"
#include "tests/closure_adapters.h"

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

ssd::HostRequest
onePage(ssd::IoType type, Lba lba)
{
    ssd::HostRequest req;
    req.type = type;
    req.lba = lba;
    return req;
}

/** The PPA's page within its block, for BlockManager::isValid. */
std::uint32_t
pageInBlock(const nand::NandGeometry &geom, Ppa ppa)
{
    return static_cast<std::uint32_t>(ppa % geom.pagesPerChip() %
                                      geom.pagesPerBlock());
}

TEST(Ftl, StalledWritesCompleteInArrivalOrder)
{
    // A write larger than the buffer stalls, then a one-page write
    // stalls behind it. Each flush frees room the short write would
    // fit in, but the larger write keeps the front and completes first.
    const auto config = smallConfig(ssd::FtlKind::Page);
    ssd::Ssd dev(config);
    ftl::Ftl &ftl = dev.ftl();
    std::vector<std::uint64_t> completed;
    const auto submit = [&](std::uint64_t id, Lba lba,
                            std::uint32_t pages) {
        ssd::HostRequest req = onePage(ssd::IoType::Write, lba);
        req.id = id;
        req.pages = pages;
        ftl.hostWrite(req,
                      new test::OneShotSink([&](const ssd::Completion &c) {
                          completed.push_back(c.id);
                      }),
                      0);
    };

    submit(1, 0, config.writeBufferPages * 3);
    ASSERT_EQ(ftl.stats().writeStalls, 1u);
    // Every chip has a flush in flight: refill the room they freed.
    for (Lba lba = 1000; !ftl.buffer().full(); ++lba)
        ftl.hostWrite(onePage(ssd::IoType::Write, lba), nullptr, 0);
    submit(2, 1100, 1);
    ASSERT_EQ(ftl.stats().writeStalls, 2u);

    while (dev.queue().step()) {
    }
    EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2}));
    dev.drain();
    ftl.checkConsistency();
}

TEST(Ftl, OlderFlushLandingAfterANewerOneIsDropped)
{
    // Two versions of one LBA flush to different chips and the newer
    // lands first. The older landing must leave the mapping on the
    // newer page, a read between the landings must come from NAND,
    // and peek must see the newer data throughout.
    const auto config = smallConfig(ssd::FtlKind::Page);
    const auto &geom = config.chip.geometry;
    const std::uint64_t perChip = geom.pagesPerChip();
    ssd::Ssd dev(config);
    ftl::Ftl &ftl = dev.ftl();

    // LBAs 0-2 land on chip 0 and 3-5 on chip 1, and the flush
    // cursor is back on chip 0.
    for (Lba lba = 0; lba < 6; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    ASSERT_EQ(*ftl.mapping().lookup(0) / perChip, 0u);
    ASSERT_EQ(*ftl.mapping().lookup(3) / perChip, 1u);

    // Host reads go first in chip 0's die queue, so its next program
    // lands late.
    for (int i = 0; i < 16; ++i)
        ftl.hostRead(onePage(ssd::IoType::Read, 0), nullptr, 0);
    const Lba x = 10;
    ftl.hostWrite(onePage(ssd::IoType::Write, x), nullptr, 0);
    const std::uint64_t older = dev.peek(x).value();
    for (const Lba lba : {Lba{11}, Lba{12}})  // flush {x, 11, 12}: chip 0
        ftl.hostWrite(onePage(ssd::IoType::Write, lba), nullptr, 0);
    ftl.hostWrite(onePage(ssd::IoType::Write, x), nullptr, 0);
    const std::uint64_t newer = dev.peek(x).value();
    for (const Lba lba : {Lba{13}, Lba{14}})  // flush {x, 13, 14}: chip 1
        ftl.hostWrite(onePage(ssd::IoType::Write, lba), nullptr, 0);
    ASSERT_NE(older, newer);
    ASSERT_TRUE(ftl.buffer().empty());

    const std::uint64_t programs = ftl.stats().hostPrograms;
    std::optional<Ppa> newerPpa;
    std::optional<ssd::Completion> between;
    while (dev.queue().step()) {
        ASSERT_EQ(dev.peek(x), newer);
        if (newerPpa || !ftl.mapping().lookup(x))
            continue;
        newerPpa = ftl.mapping().lookup(x);
        ASSERT_EQ(*newerPpa / perChip, 1u) << "the newer version lands first";
        ASSERT_EQ(ftl.stats().hostPrograms, programs + 1);
        ftl.hostRead(onePage(ssd::IoType::Read, x),
                     new test::OneShotSink(
                         [&](const ssd::Completion &c) { between = c; }),
                     0);
    }
    ASSERT_TRUE(newerPpa && between);
    EXPECT_EQ(ftl.stats().hostPrograms, programs + 2);
    EXPECT_EQ(between->phases.buffer, 0u);
    EXPECT_GT(between->phases.die, 0u);
    EXPECT_GT(between->latency(), config.bufferReadTime);
    EXPECT_EQ(ftl.mapping().lookup(x), newerPpa);
    EXPECT_EQ(dev.peek(x), newer);

    // The older copy sits on chip 0 just before LBA 11's page: it
    // holds the older data and is invalid.
    const Ppa olderPpa = *ftl.mapping().lookup(11) - 1;
    ASSERT_EQ(olderPpa / perChip, 0u);
    const nand::PageAddr addr =
        nand::AddressCodec(geom).decode(olderPpa % perChip);
    EXPECT_EQ(dev.chip(0).pageToken(addr), older);
    EXPECT_FALSE(ftl.blockManager(0).isValid(addr.block,
                                             pageInBlock(geom, olderPpa)));
    ftl.checkConsistency();
}

TEST(Ftl, RelocationOfAPageRewrittenMeanwhileIsDropped)
{
    // GC reads a page to move it; the host rewrites the LBA and that
    // flush lands before the GC program. The relocated copy must be
    // dropped: the source page ends invalid, the host page mapped.
    auto config = smallConfig(ssd::FtlKind::Page);
    config.chipsPerChannel = 1;
    config.logicalFraction = 0.5;
    // Collections start above the urgent mark, so host flushes still
    // go to the collecting chip.
    config.gcLowWatermark = 3;
    config.gcHighWatermark = 4;
    const auto &geom = config.chip.geometry;
    ssd::Ssd dev(config);
    ftl::Ftl &ftl = dev.ftl();
    const Lba logical = dev.logicalPages();
    for (Lba lba = 0; lba < logical; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();

    // Overwrite a WL's worth at a time until a host flush completion
    // starts a collection whose victim still holds data, with nothing
    // else buffered or in flight: its first scan read is on the die.
    Rng rng(5);
    std::optional<std::uint32_t> victim;
    for (int round = 0; round < 10'000 && !victim; ++round) {
        for (std::uint32_t i = 0; i < geom.pagesPerWl; ++i)
            ftl.hostWrite(
                onePage(ssd::IoType::Write, rng.uniformInt(logical)),
                nullptr, 0);
        bool collecting = ftl.collecting(0);
        while (!victim && dev.queue().step()) {
            if (!collecting && ftl.collecting(0) && ftl.idle()) {
                // Nothing has changed since the collection picked it.
                const auto v = ftl.blockManager(0).pickVictim();
                if (v && ftl.blockManager(0).info(*v).validCount > 0)
                    victim = v;
            }
            collecting = ftl.collecting(0);
        }
    }
    ASSERT_TRUE(victim);
    const ftl::BlockManager &mgr = ftl.blockManager(0);
    const nand::AddressCodec codec(geom);
    const std::uint32_t scanned = mgr.nextValid(*victim, 0);
    const Lba y = ftl::tokenLba(dev.chip(0).pageToken(codec.decode(
        std::uint64_t{*victim} * geom.pagesPerBlock() + scanned)));
    const Ppa source = *ftl.mapping().lookup(y);
    ASSERT_EQ(pageInBlock(geom, source), scanned);
    const std::uint64_t old = dev.peek(y).value();

    // The rewrite goes to the die behind the scan read, ahead of any
    // relocation program.
    ftl.hostWrite(onePage(ssd::IoType::Write, y), nullptr, 0);
    const std::uint64_t rewritten = dev.peek(y).value();
    ftl.flushAll();
    ASSERT_TRUE(ftl.buffer().empty());

    const std::uint64_t gcPrograms = ftl.gcStats().programs;
    const std::uint64_t relocated = ftl.stats().gcRelocatedPages;
    std::optional<Ppa> hostPpa;
    while (ftl.gcStats().programs == gcPrograms && dev.queue().step()) {
        ASSERT_EQ(dev.peek(y), rewritten);
        if (!hostPpa && ftl.mapping().lookup(y) != source) {
            hostPpa = ftl.mapping().lookup(y);
            ASSERT_EQ(ftl.gcStats().programs, gcPrograms)
                << "the rewrite lands first";
        }
    }
    // The first relocation program, which carries y, has landed.
    ASSERT_TRUE(hostPpa);
    ASSERT_GT(ftl.stats().gcRelocatedPages, relocated);
    EXPECT_EQ(ftl.mapping().lookup(y), hostPpa);
    EXPECT_EQ(dev.peek(y), rewritten);
    EXPECT_FALSE(mgr.isValid(*victim, scanned));
    // Both the source page and the relocated copy hold the old data,
    // and neither is valid.
    std::uint32_t copies = 0;
    for (std::uint64_t p = 0; p < geom.pagesPerChip(); ++p) {
        const nand::PageAddr addr = codec.decode(p);
        if (dev.chip(0).pageToken(addr) != old)
            continue;
        ++copies;
        EXPECT_FALSE(mgr.isValid(addr.block, pageInBlock(geom, p)))
            << "page " << p;
    }
    EXPECT_EQ(copies, 2u);

    dev.drain();
    EXPECT_EQ(dev.peek(y), rewritten);
    ftl.checkConsistency();
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

TEST(DataToken, LbaZeroAndTheLargestAdmittedLbaRoundTrip)
{
    // validate() refuses kInvalid32 or more physical pages, so no
    // device has an LBA above kInvalid32 - 2. This one comes within a
    // few thousand pages of that bound, and one block more is refused.
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 1;
    auto &geom = config.chip.geometry;
    geom.blocksPerChip = kInvalid32 / 2;
    geom.layersPerBlock = 1;
    geom.wlsPerLayer = 1;
    geom.pagesPerWl = 2;
    config.logicalFraction = 0.999999;
    ASSERT_EQ(config.validate(), "");
    const Lba largest = config.logicalPages() - 1;
    ++geom.blocksPerChip;
    EXPECT_NE(config.validate(), "");

    for (const Lba lba : {Lba{0}, largest, Lba{kInvalid32} - 2}) {
        for (const std::uint64_t version :
             {std::uint64_t{1}, std::uint64_t{kInvalid32},
              (std::uint64_t{1} << 32) + 5, ~std::uint64_t{0}})
            EXPECT_EQ(ftl::tokenLba(ftl::dataToken(lba, version)), lba)
                << "LBA " << lba << ", version " << version;
    }
}

TEST(DataToken, ZeroCarriesNoLbaAndNoWrittenTokenIsZero)
{
    EXPECT_EQ(ftl::tokenLba(0), kInvalidLba);
    for (const Lba lba : {Lba{0}, Lba{kInvalid32} - 1}) {
        for (const std::uint64_t version :
             {std::uint64_t{0}, std::uint64_t{1} << 32, ~std::uint64_t{0}})
            EXPECT_NE(ftl::dataToken(lba, version), 0u)
                << "LBA " << lba << ", version " << version;
    }
}

TEST(DataToken, DifferentVersionsGiveDifferentTokens)
{
    std::set<std::uint64_t> tokens;
    for (std::uint64_t version = 1; version <= 1000; ++version)
        EXPECT_TRUE(tokens.insert(ftl::dataToken(7, version)).second)
            << "version " << version;
    EXPECT_NE(ftl::dataToken(7, 1), ftl::dataToken(8, 1));
    // Only versions 2^32 host page writes apart coincide.
    EXPECT_EQ(ftl::dataToken(7, 1),
              ftl::dataToken(7, (std::uint64_t{1} << 32) + 1));
}

TEST(DataTokenDeathTest, RejectsAnLbaTooWideForTheToken)
{
    EXPECT_DEATH(ftl::dataToken(kInvalid32, 1), "does not fit");
}

TEST(FtlDeathTest, ConsistencyCheckReadsEachMappedPagesLbaFromItsToken)
{
    // A mapped page's LBA lives only in its NAND token, so the check
    // must catch the page erased under the mapping, or reprogrammed
    // with the token of an LBA past the logical space or of another
    // mapped LBA.
    const auto config = smallConfig(ssd::FtlKind::Page);
    const auto &geom = config.chip.geometry;
    ssd::Ssd dev(config);
    for (Lba lba = 0; lba < 6; ++lba)
        writeSync(dev, lba, 1);
    dev.drain();
    dev.ftl().checkConsistency();

    const Ppa ppa = *dev.ftl().mapping().lookup(0);
    const auto chip = static_cast<std::uint32_t>(ppa / geom.pagesPerChip());
    const nand::PageAddr addr =
        nand::AddressCodec(geom).decode(ppa % geom.pagesPerChip());
    const nand::WlAddr wl{addr.block, addr.layer, addr.wl};
    nand::NandChip &nand = dev.chip(chip);
    std::vector<std::uint64_t> tokens;
    for (std::uint32_t p = 0; p < geom.pagesPerWl; ++p)
        tokens.push_back(
            nand.pageToken({addr.block, addr.layer, addr.wl, p}));
    ASSERT_EQ(ftl::tokenLba(tokens[addr.page]), 0u);

    nand.eraseBlock(addr.block, nullptr);
    EXPECT_DEATH(dev.ftl().checkConsistency(),
                 "LBA 0 maps to an erased page");

    const Lba logical = dev.logicalPages();
    tokens[addr.page] = ftl::dataToken(logical, 1);
    nand.programWl(wl, nand::ProgramCommand{}, tokens);
    EXPECT_DEATH(dev.ftl().checkConsistency(),
                 "LBA 0 maps to a page whose token carries LBA " +
                     std::to_string(logical));

    nand.eraseBlock(addr.block, nullptr);
    ASSERT_TRUE(dev.ftl().mapping().lookup(5));
    tokens[addr.page] = ftl::dataToken(5, 1);
    nand.programWl(wl, nand::ProgramCommand{}, tokens);
    EXPECT_DEATH(dev.ftl().checkConsistency(),
                 "LBA 0 maps to a page whose token carries LBA 5");
}

}  // namespace
}  // namespace cubessd
