/**
 * @file
 * Unit tests for trace recording, parsing, and replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/ftl/ftl.h"
#include "src/workload/trace.h"
#include "src/workload/workload.h"

namespace cubessd::workload {
namespace {

TEST(Trace, RoundTripThroughStream)
{
    std::vector<ssd::HostRequest> requests;
    WorkloadGenerator gen(mail(), 10000, 3);
    SimTime t = 0;
    for (int i = 0; i < 100; ++i) {
        auto req = gen.next();
        req.arrival = t;
        t += 1000;
        requests.push_back(req);
    }
    std::stringstream stream;
    TraceWriter::write(stream, requests);
    const auto back = TraceReader::read(stream);
    ASSERT_EQ(back.size(), requests.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].arrival, requests[i].arrival);
        EXPECT_EQ(back[i].lba, requests[i].lba);
        EXPECT_EQ(back[i].pages, requests[i].pages);
        EXPECT_EQ(static_cast<int>(back[i].type),
                  static_cast<int>(requests[i].type));
    }
}

TEST(Trace, SkipsCommentsAndBlankLines)
{
    std::stringstream stream;
    stream << "# a comment\n\n100 R 5 2\n# another\n200 W 9 1\n";
    const auto requests = TraceReader::read(stream);
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0].arrival, 100u);
    EXPECT_EQ(static_cast<int>(requests[0].type),
              static_cast<int>(ssd::IoType::Read));
    EXPECT_EQ(requests[1].lba, 9u);
}

TEST(TraceDeathTest, MalformedLineIsFatal)
{
    std::stringstream stream;
    stream << "100 X 5 2\n";
    EXPECT_EXIT(TraceReader::read(stream),
                ::testing::ExitedWithCode(1), "malformed");
}

/** Replay 200 paced requests (every third a read) on a small device. */
RunResult
replaySmallTrace(ssd::Ssd &dev)
{
    std::vector<ssd::HostRequest> requests;
    SimTime t = 0;
    for (int i = 0; i < 200; ++i) {
        ssd::HostRequest req;
        req.type = i % 3 ? ssd::IoType::Write : ssd::IoType::Read;
        req.lba = static_cast<Lba>((i * 37) % 500);
        req.pages = 1;
        req.arrival = t;
        t += 100 * kMicrosecond;
        requests.push_back(req);
    }
    return replayTrace(dev, requests);
}

ssd::SsdConfig
replayConfig()
{
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 16;
    config.chip.geometry.layersPerBlock = 8;
    config.writeBufferPages = 24;
    config.logicalFraction = 0.6;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    return config;
}

TEST(Trace, ReplayCompletesAllRequests)
{
    ssd::Ssd dev(replayConfig());
    const auto result = replaySmallTrace(dev);
    EXPECT_EQ(result.completedRequests, 200u);
    EXPECT_GT(result.iops, 0.0);
    EXPECT_GT(result.elapsed, 0u);
    EXPECT_GT(result.requestMetrics.recorded(ssd::IoType::Read) +
                  result.requestMetrics.recorded(ssd::IoType::Write),
              0u);
    dev.ftl().checkConsistency();
}

TEST(Trace, ReplayResultIsAConsistentRunResult)
{
    // The replay folds completions through the same RunResult path as
    // the drivers: every view of the run must count the same requests
    // over the same window.
    ssd::Ssd dev(replayConfig());
    const auto result = replaySmallTrace(dev);
    std::uint64_t statusSum = 0;
    for (const std::uint64_t n : result.statusCounts)
        statusSum += n;
    EXPECT_EQ(statusSum, result.completedRequests);
    EXPECT_EQ(result.requestMetrics.recorded(ssd::IoType::Read) +
                  result.requestMetrics.recorded(ssd::IoType::Write),
              result.completedRequests);
    EXPECT_EQ(result.utilization.window, result.elapsed);
    EXPECT_EQ(result.utilization.die.size(), dev.chipCount());
}

TEST(Trace, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/cubessd_trace.txt";
    std::vector<ssd::HostRequest> requests;
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = 42;
    req.pages = 3;
    req.arrival = 12345;
    requests.push_back(req);
    TraceWriter::writeFile(path, requests);
    const auto back = TraceReader::readFile(path);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].lba, 42u);
    EXPECT_EQ(back[0].pages, 3u);
}

}  // namespace
}  // namespace cubessd::workload
