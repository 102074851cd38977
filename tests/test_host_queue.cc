/**
 * @file
 * Tests of the QD-aware host queue (src/ssd/host_queue.h): unbounded
 * pass-through, bounded-depth backpressure, FIFO slot hand-off, and
 * latency behaviour under a saturated queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/ssd/ssd.h"
#include "tests/closure_adapters.h"

namespace cubessd {
namespace {

ssd::SsdConfig
smallConfig(std::uint32_t hostQueueDepth)
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
    config.hostQueueDepth = hostQueueDepth;
    return config;
}

/** Write `count` pages and flush them to NAND. */
void
prepare(ssd::Ssd &dev, Lba count)
{
    for (Lba lba = 0; lba < count; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        req.pages = 1;
        dev.submitSync(req);
    }
    dev.drain();
}

ssd::HostRequest
readRequest(Lba lba)
{
    ssd::HostRequest req;
    req.type = ssd::IoType::Read;
    req.lba = lba;
    req.pages = 1;
    return req;
}

TEST(HostQueue, UnboundedQueueDispatchesAtArrival)
{
    ssd::Ssd dev(smallConfig(0));
    prepare(dev, 8);
    const auto completion = dev.submitSync(readRequest(3));
    EXPECT_EQ(completion.queueWait(), 0u);
    EXPECT_EQ(completion.start, completion.arrival);
    EXPECT_GT(completion.serviceTime(), 0u);
    EXPECT_EQ(dev.hostQueue().stats().blockedSubmissions, 0u);
}

TEST(HostQueue, BoundedDepthBlocksExtraSubmissionUntilCompletion)
{
    ssd::Ssd dev(smallConfig(2));
    prepare(dev, 8);

    std::vector<ssd::Completion> completions;
    for (Lba lba = 0; lba < 3; ++lba) {
        test::submit(
            dev.hostQueue(), readRequest(lba), [&completions](const ssd::Completion &c) {
                completions.push_back(c);
            });
    }
    // Three submission events are pending; fire exactly those. The
    // first two take the queue's slots, the third must wait.
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(dev.queue().step());
    EXPECT_EQ(dev.hostQueue().inFlight(), 2u);
    EXPECT_EQ(dev.hostQueue().waiting(), 1u);

    dev.queue().run();
    ASSERT_EQ(completions.size(), 3u);
    const auto &stats = dev.hostQueue().stats();
    EXPECT_EQ(stats.blockedSubmissions, 1u);
    EXPECT_EQ(stats.maxWaiting, 1u);
    EXPECT_EQ(stats.completed, stats.submitted);

    // Completions arrive in device order, not submission order:
    // identify requests by id (assigned in submission order).
    std::sort(completions.begin(), completions.end(),
              [](const ssd::Completion &a, const ssd::Completion &b) {
                  return a.id < b.id;
              });
    // The first two took the queue's slots at arrival...
    EXPECT_EQ(completions[0].queueWait(), 0u);
    EXPECT_EQ(completions[1].queueWait(), 0u);
    // ...and the third only started once one of them completed.
    const auto &blocked = completions[2];
    EXPECT_GT(blocked.queueWait(), 0u);
    EXPECT_GE(blocked.start, std::min(completions[0].finish,
                                      completions[1].finish));
}

TEST(HostQueue, SaturatedQueueLatencyIsMonotone)
{
    ssd::Ssd dev(smallConfig(1));
    prepare(dev, 16);

    constexpr int kRequests = 8;
    std::vector<ssd::Completion> completions;
    for (Lba lba = 0; lba < kRequests; ++lba) {
        test::submit(
            dev.hostQueue(), readRequest(lba), [&completions](const ssd::Completion &c) {
                completions.push_back(c);
            });
    }
    dev.queue().run();
    ASSERT_EQ(completions.size(),
              static_cast<std::size_t>(kRequests));

    // QD 1 serializes the requests: completions arrive in submission
    // order and arrival->completion latency grows with queue position.
    for (int i = 1; i < kRequests; ++i) {
        EXPECT_GE(completions[i].start, completions[i - 1].finish);
        EXPECT_GT(completions[i].latency(),
                  completions[i - 1].latency());
        EXPECT_GE(completions[i].queueWait(),
                  completions[i - 1].queueWait());
    }
}

TEST(HostQueue, DriverRunsThroughBoundedQueue)
{
    // End to end: the closed-loop driver keeps more requests in
    // flight than the device queue admits; everything still
    // completes and the excess shows up as queue wait.
    ssd::Ssd dev(smallConfig(4));
    prepare(dev, 32);
    std::uint64_t outstanding = 0;
    for (Lba lba = 0; lba < 32; ++lba) {
        ++outstanding;
        test::submit(
            dev.hostQueue(), readRequest(lba % 16),
            [&outstanding](const ssd::Completion &) {
                --outstanding;
            });
    }
    dev.queue().run();
    EXPECT_EQ(outstanding, 0u);
    const auto &stats = dev.hostQueue().stats();
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_GT(stats.blockedSubmissions, 0u);
    EXPECT_GT(stats.avgQueueWaitUs(), 0.0);
    EXPECT_GE(stats.avgLatencyUs(), stats.avgQueueWaitUs());
}

}  // namespace
}  // namespace cubessd
