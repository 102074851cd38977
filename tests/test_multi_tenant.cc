/**
 * @file
 * Tests of the multi-tenant front end: tenant-spec parsing, arrival
 * processes, WRR arbitration fairness, per-tenant metric isolation,
 * SLO accounting, and the MSR-Cambridge trace auto-detection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/ftl/ftl.h"
#include "src/ssd/arbiter.h"
#include "src/ssd/ssd.h"
#include "src/workload/driver.h"
#include "src/workload/multi_tenant.h"
#include "src/workload/tenant.h"
#include "src/workload/trace.h"

namespace cubessd {
namespace {

ssd::SsdConfig
mtConfig()
{
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 24;
    config.chip.geometry.layersPerBlock = 8;
    config.chip.geometry.wlsPerLayer = 4;
    config.writeBufferPages = 24;
    config.logicalFraction = 0.6;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Page;
    config.seed = 99;
    config.hostQueueDepth = 0;  // the arbiter owns the window
    return config;
}

/** All-read / all-write personalities for isolation tests. */
workload::WorkloadSpec
pureSpec(const std::string &name, double readFraction)
{
    workload::WorkloadSpec spec;
    spec.name = name;
    spec.readFraction = readFraction;
    spec.minPages = 1;
    spec.maxPages = 1;
    spec.zipfTheta = 0.9;
    spec.workingSetFraction = 0.5;
    spec.burstLength = 0;
    return spec;
}

workload::TenantSpec
tenant(const std::string &name, const workload::WorkloadSpec &wl,
       std::uint32_t weight)
{
    workload::TenantSpec spec;
    spec.name = name;
    spec.workload = wl;
    spec.weight = weight;
    return spec;
}

// ---------------------------------------------------------------------
// TenantSpec parsing and validation
// ---------------------------------------------------------------------

TEST(TenantSpecParse, FullSpecRoundTrips)
{
    workload::TenantSpec spec;
    const std::string err = workload::parseTenantSpec(
        "A:readhot:w=3:slo=500us:arrival=bursty:burst=16:rate=25000:"
        "ns=0.25",
        &spec);
    ASSERT_EQ(err, "");
    EXPECT_EQ(spec.name, "A");
    EXPECT_EQ(spec.workload.name, "ReadHot");
    EXPECT_EQ(spec.weight, 3u);
    EXPECT_EQ(spec.sloTarget, 500 * kMicrosecond);
    EXPECT_EQ(spec.arrival, workload::ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(spec.burstMean, 16.0);
    EXPECT_DOUBLE_EQ(spec.rate, 25000.0);
    EXPECT_DOUBLE_EQ(spec.namespaceFraction, 0.25);
}

TEST(TenantSpecParse, ListParsesTheAcceptanceExample)
{
    std::vector<workload::TenantSpec> specs;
    const std::string err = workload::parseTenantList(
        "A:readhot:w=3:slo=500us,B:writeheavy:w=1:slo=2ms", &specs);
    ASSERT_EQ(err, "");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "A");
    EXPECT_EQ(specs[0].weight, 3u);
    EXPECT_EQ(specs[0].sloTarget, 500 * kMicrosecond);
    EXPECT_EQ(specs[1].name, "B");
    EXPECT_EQ(specs[1].workload.name, "WriteHeavy");
    EXPECT_EQ(specs[1].sloTarget, 2 * kMillisecond);
    EXPECT_EQ(workload::validateTenants(specs), "");
}

TEST(TenantSpecParse, ErrorsNameTheProblem)
{
    workload::TenantSpec spec;

    std::string err = workload::parseTenantSpec("lonely", &spec);
    EXPECT_NE(err.find("expected <name>:<workload>"), std::string::npos);

    err = workload::parseTenantSpec("A:nosuchworkload", &spec);
    EXPECT_NE(err.find("unknown workload 'nosuchworkload'"),
              std::string::npos);

    err = workload::parseTenantSpec("A:readhot:w=0", &spec);
    EXPECT_NE(err.find("bad weight '0'"), std::string::npos);

    // Weights are 32-bit and unsigned: no wrap to 1 or 2^32 - 1, and
    // no sign.
    for (const char *w : {"4294967297", "-1", "+3"}) {
        err = workload::parseTenantSpec(
            std::string("A:readhot:w=") + w, &spec);
        EXPECT_NE(err.find(std::string("bad weight '") + w + "'"),
                  std::string::npos)
            << w;
    }

    err = workload::parseTenantSpec("A:readhot:slo=5parsec", &spec);
    EXPECT_NE(err.find("unit must be ns, us, ms or s"),
              std::string::npos);

    err = workload::parseTenantSpec("A:readhot:color=red", &spec);
    EXPECT_NE(err.find("unknown tenant option 'color'"),
              std::string::npos);
}

TEST(TenantSpecParse, DurationUnits)
{
    SimTime out = 0;
    EXPECT_EQ(workload::parseDuration("250ns", &out), "");
    EXPECT_EQ(out, 250u);
    EXPECT_EQ(workload::parseDuration("500us", &out), "");
    EXPECT_EQ(out, 500 * kMicrosecond);
    EXPECT_EQ(workload::parseDuration("2ms", &out), "");
    EXPECT_EQ(out, 2 * kMillisecond);
    EXPECT_EQ(workload::parseDuration("1.5s", &out), "");
    EXPECT_EQ(out, static_cast<SimTime>(1.5 * kSecond));
    EXPECT_NE(workload::parseDuration("abc", &out), "");
    EXPECT_NE(workload::parseDuration("10min", &out), "");
}

TEST(TenantSpecValidate, CrossTenantChecks)
{
    std::vector<workload::TenantSpec> specs;
    specs.push_back(tenant("A", pureSpec("R", 1.0), 1));
    specs.push_back(tenant("A", pureSpec("W", 0.0), 1));
    EXPECT_NE(workload::validateTenants(specs)
                  .find("duplicate tenant name 'A'"),
              std::string::npos);

    specs[1].name = "B";
    specs[0].namespaceFraction = 0.6;
    specs[1].namespaceFraction = 0.6;
    EXPECT_NE(workload::validateTenants(specs)
                  .find("sum to more than 1"),
              std::string::npos);

    specs[0].namespaceFraction = 0.3;
    specs[1].namespaceFraction = 0.3;
    EXPECT_NE(workload::validateTenants(specs)
                  .find("must sum to 1"),
              std::string::npos);

    specs[1].namespaceFraction = 0.7;
    EXPECT_EQ(workload::validateTenants(specs), "");
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

TEST(ArrivalProcess, PoissonInterArrivalStatistics)
{
    // Exponential gaps at 1e6 arrivals/s: mean 1000 ns, and the
    // coefficient of variation of an exponential is 1.
    workload::ArrivalProcess process(workload::ArrivalKind::Poisson,
                                     1e6, 1.0, 1234);
    constexpr int kSamples = 20000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < kSamples; ++i) {
        const double gap =
            static_cast<double>(process.nextGap());
        EXPECT_EQ(process.batchSize(), 1u);
        sum += gap;
        sumSq += gap * gap;
    }
    const double mean = sum / kSamples;
    const double variance = sumSq / kSamples - mean * mean;
    const double cv = std::sqrt(variance) / mean;
    EXPECT_NEAR(mean, 1000.0, 50.0);  // +-5%
    EXPECT_NEAR(cv, 1.0, 0.1);
}

TEST(ArrivalProcess, BurstyPreservesMeanRateInBatches)
{
    // Batch-Poisson at the same average rate: epochs are 8x sparser,
    // batches are geometric with mean 8, so requests/time match the
    // configured rate.
    workload::ArrivalProcess process(workload::ArrivalKind::Bursty,
                                     1e6, 8.0, 77);
    constexpr int kEpochs = 20000;
    double totalTime = 0.0;
    double totalRequests = 0.0;
    double maxBatch = 0.0;
    for (int i = 0; i < kEpochs; ++i) {
        totalTime += static_cast<double>(process.nextGap());
        const double batch = process.batchSize();
        totalRequests += batch;
        maxBatch = std::max(maxBatch, batch);
    }
    const double rate =
        totalRequests / (totalTime / static_cast<double>(kSecond));
    EXPECT_NEAR(rate, 1e6, 1e5);  // +-10%
    EXPECT_NEAR(totalRequests / kEpochs, 8.0, 0.8);
    EXPECT_GT(maxBatch, 16.0);  // genuinely bursty, not constant
}

// ---------------------------------------------------------------------
// WRR arbitration
// ---------------------------------------------------------------------

/** Records completions with the submitter-provided queue index. */
struct OrderSink final : ssd::CompletionSink
{
    struct Item
    {
        std::uint64_t queue = 0;
        std::uint64_t id = 0;
    };
    std::vector<Item> items;

    void onCompletion(const ssd::Completion &c, std::uint64_t ctx) override
    {
        items.push_back({ctx, c.id});
    }
};

TEST(WrrArbiter, WeightedFairnessUnderSaturation)
{
    ssd::Ssd dev(mtConfig());
    for (Lba lba = 0; lba < 64; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        dev.submitSync(req);
    }
    dev.drain();

    // Two fully backlogged queues, weights 3:1, small shared window:
    // request ids are assigned at dispatch into the host queue, so the
    // id order of the completions IS the dispatch order.
    ssd::WrrArbiter arbiter(dev.hostQueue(), {4, 1});
    const auto queueA = arbiter.addQueue(3);
    const auto queueB = arbiter.addQueue(1);
    OrderSink sink;
    constexpr int kPerQueue = 200;
    for (int i = 0; i < kPerQueue; ++i) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Read;
        req.lba = static_cast<Lba>(i % 64);
        arbiter.submit(queueA, req, &sink, queueA);
    }
    for (int i = 0; i < kPerQueue; ++i) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Read;
        req.lba = static_cast<Lba>((i * 7) % 64);
        arbiter.submit(queueB, req, &sink, queueB);
    }
    dev.queue().run();
    ASSERT_EQ(sink.items.size(),
              static_cast<std::size_t>(2 * kPerQueue));
    EXPECT_EQ(arbiter.inFlight(), 0u);
    EXPECT_EQ(arbiter.stats(queueA).dispatched,
              static_cast<std::uint64_t>(kPerQueue));
    EXPECT_EQ(arbiter.stats(queueB).dispatched,
              static_cast<std::uint64_t>(kPerQueue));

    // While both queues are backlogged (the first 240 dispatches:
    // queue A still holds >= 200 - 180), the 3:1 weights must show as
    // a ~3:1 dispatch ratio.
    std::sort(sink.items.begin(), sink.items.end(),
              [](const OrderSink::Item &a, const OrderSink::Item &b) {
                  return a.id < b.id;
              });
    int dispatchedA = 0, dispatchedB = 0;
    for (int i = 0; i < 240; ++i) {
        if (sink.items[static_cast<std::size_t>(i)].queue == queueA)
            ++dispatchedA;
        else
            ++dispatchedB;
    }
    const double ratio =
        static_cast<double>(dispatchedA) / dispatchedB;
    EXPECT_GT(ratio, 2.1);  // 3:1 +-30%
    EXPECT_LT(ratio, 3.9);
}

TEST(WrrArbiter, QueueWaitIncludesSubmissionQueueTime)
{
    ssd::Ssd dev(mtConfig());
    for (Lba lba = 0; lba < 16; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        dev.submitSync(req);
    }
    dev.drain();

    // Window 1 serializes: the later submissions park in the
    // submission queue, and that wait must be inside latency().
    ssd::WrrArbiter arbiter(dev.hostQueue(), {1, 1});
    const auto queue = arbiter.addQueue(1);
    OrderSink sink;
    for (int i = 0; i < 4; ++i) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Read;
        req.lba = static_cast<Lba>(i);
        req.arrival = dev.queue().now();
        arbiter.submit(queue, req, &sink, queue);
    }
    std::vector<ssd::Completion> completions;
    struct Collect final : ssd::CompletionSink
    {
        std::vector<ssd::Completion> *out = nullptr;
        void onCompletion(const ssd::Completion &c,
                          std::uint64_t) override
        {
            out->push_back(c);
        }
    } collect;
    collect.out = &completions;
    for (int i = 0; i < 4; ++i) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Read;
        req.lba = static_cast<Lba>(4 + i);
        req.arrival = dev.queue().now();
        arbiter.submit(queue, req, &collect, 0);
    }
    dev.queue().run();
    ASSERT_EQ(completions.size(), 4u);
    std::sort(completions.begin(), completions.end(),
              [](const ssd::Completion &a, const ssd::Completion &b) {
                  return a.id < b.id;
              });
    // All four arrived at the same instant; each later one waited for
    // its predecessors, and the wait is visible in queueWait().
    for (std::size_t i = 1; i < completions.size(); ++i) {
        EXPECT_GT(completions[i].queueWait(),
                  completions[i - 1].queueWait());
        EXPECT_EQ(completions[i].latency(),
                  completions[i].queueWait() +
                      completions[i].serviceTime());
    }
}

TEST(WrrArbiter, CreditsHoldWeightTimesBurstPast32Bits)
{
    ssd::Ssd dev(mtConfig());
    for (Lba lba = 0; lba < 16; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        dev.submitSync(req);
    }
    dev.drain();

    // (2^31 + 1) * 2 credits do not fit 32 bits (they would wrap to 2
    // and make the queues alternate): once queue A is visited, its
    // whole backlog must dispatch before queue B dispatches again.
    ssd::WrrArbiter arbiter(dev.hostQueue(), {1, 2});
    const auto queueA = arbiter.addQueue((1u << 31) + 1);
    const auto queueB = arbiter.addQueue(1);
    OrderSink sink;
    constexpr int kPerQueue = 12;
    for (const auto queue : {queueA, queueB}) {
        for (int i = 0; i < kPerQueue; ++i) {
            ssd::HostRequest req;
            req.type = ssd::IoType::Read;
            req.lba = static_cast<Lba>(i);
            arbiter.submit(queue, req, &sink, queue);
        }
    }
    dev.queue().run();
    ASSERT_EQ(sink.items.size(), static_cast<std::size_t>(2 * kPerQueue));

    // Request ids are assigned at dispatch: id order is dispatch order.
    std::sort(sink.items.begin(), sink.items.end(),
              [](const OrderSink::Item &a, const OrderSink::Item &b) {
                  return a.id < b.id;
              });
    for (int i = 0; i < 2 * kPerQueue; ++i)
        EXPECT_EQ(sink.items[static_cast<std::size_t>(i)].queue,
                  i < kPerQueue ? queueA : queueB)
            << "dispatch " << i;
}

// ---------------------------------------------------------------------
// MultiTenantDriver
// ---------------------------------------------------------------------

TEST(MultiTenantDriver, PerTenantMetricsAreIsolated)
{
    ssd::Ssd dev(mtConfig());
    std::vector<workload::TenantSpec> specs;
    specs.push_back(tenant("reader", pureSpec("PureRead", 1.0), 1));
    specs.push_back(tenant("writer", pureSpec("PureWrite", 0.0), 1));

    workload::MultiTenantOptions options;
    options.window = 16;
    workload::MultiTenantDriver driver(dev, specs, options);
    driver.prefill(0.1);

    // Disjoint namespaces covering the device in spec order.
    const auto &nsA = driver.nameSpace(0);
    const auto &nsB = driver.nameSpace(1);
    EXPECT_EQ(nsA.base, 0u);
    EXPECT_EQ(nsB.base, nsA.pages);
    EXPECT_LE(nsB.base + nsB.pages, dev.logicalPages());

    constexpr std::uint64_t kRequests = 3000;
    const auto result = driver.run(kRequests);
    EXPECT_EQ(result.completed, kRequests);

    // The all-read tenant's histograms contain no writes and vice
    // versa: completions are attributed by tenant tag, never leaked.
    const auto &reader = result.tenants[0];
    const auto &writer = result.tenants[1];
    EXPECT_EQ(reader.metrics.recorded(ssd::IoType::Write), 0u);
    EXPECT_GT(reader.metrics.recorded(ssd::IoType::Read), 0u);
    EXPECT_EQ(writer.metrics.recorded(ssd::IoType::Read), 0u);
    EXPECT_GT(writer.metrics.recorded(ssd::IoType::Write), 0u);
    EXPECT_EQ(reader.completed + writer.completed, result.completed);
    EXPECT_EQ(reader.metrics.recorded(ssd::IoType::Read) +
                  writer.metrics.recorded(ssd::IoType::Write),
              result.completed);
    EXPECT_EQ(reader.submitted, reader.completed);
    EXPECT_EQ(writer.submitted, writer.completed);
}

TEST(MultiTenantDriver, OneTenantPrefillMatchesDriverPrefill)
{
    // Both drivers run the one shared prefill: a single tenant owns the
    // whole logical space, so its overwrite range is the same working
    // set the single-stream Driver uses and the device must end up in
    // the same state, event for event. Three working sets of
    // overwrites make sure GC runs during the comparison.
    const workload::WorkloadSpec spec = pureSpec("Mixed", 0.5);

    ssd::Ssd single(mtConfig());
    workload::WorkloadGenerator gen(spec, single.logicalPages(), 5);
    workload::Driver driver(single, gen);
    driver.prefill(3.0);

    ssd::Ssd tenanted(mtConfig());
    workload::MultiTenantDriver mt(tenanted, {tenant("only", spec, 1)},
                                   workload::MultiTenantOptions{});
    ASSERT_EQ(mt.nameSpace(0).pages, tenanted.logicalPages());
    mt.prefill(3.0);

    const auto &a = single.ftl().stats();
    const auto &b = tenanted.ftl().stats();
    EXPECT_EQ(a.hostWritePages, b.hostWritePages);
    EXPECT_EQ(a.hostPrograms, b.hostPrograms);
    EXPECT_EQ(a.gcPrograms, b.gcPrograms);
    EXPECT_EQ(a.gcCollections, b.gcCollections);
    EXPECT_EQ(a.erases, b.erases);
    EXPECT_EQ(a.programLatencySum, b.programLatencySum);
    const auto &qa = single.hostQueue().stats();
    const auto &qb = tenanted.hostQueue().stats();
    EXPECT_EQ(qa.completed, qb.completed);
    EXPECT_EQ(qa.latencySum, qb.latencySum);
    EXPECT_EQ(qa.queueWaitSum, qb.queueWaitSum);
    EXPECT_EQ(single.queue().fired(), tenanted.queue().fired());
    EXPECT_EQ(single.queue().now(), tenanted.queue().now());
    EXPECT_GT(a.gcCollections, 0u);
}

TEST(MultiTenantDriver, ClosedLoopThroughputFollowsWeights)
{
    ssd::Ssd dev(mtConfig());
    std::vector<workload::TenantSpec> specs;
    specs.push_back(tenant("heavy", pureSpec("PureReadA", 1.0), 3));
    specs.push_back(tenant("light", pureSpec("PureReadB", 1.0), 1));

    // Saturating closed loop: both tenants keep more in flight (16
    // each) than the shared window admits, so dispatch share == WRR
    // share.
    workload::MultiTenantOptions options;
    options.window = 8;
    workload::MultiTenantDriver driver(dev, specs, options);
    driver.prefill(0.1);
    const auto result = driver.run(4000);

    const double ratio =
        static_cast<double>(result.tenants[0].completed) /
        static_cast<double>(result.tenants[1].completed);
    EXPECT_GT(ratio, 2.1);  // 3:1 +-30%
    EXPECT_LT(ratio, 3.9);
}

TEST(MultiTenantDriver, OpenLoopExplicitRatesAndSloAccounting)
{
    ssd::Ssd dev(mtConfig());
    std::vector<workload::TenantSpec> specs;
    specs.push_back(tenant("fast", pureSpec("PureReadA", 1.0), 1));
    specs.push_back(tenant("slow", pureSpec("PureReadB", 1.0), 1));
    specs[0].rate = 40000.0;
    specs[0].sloTarget = 1;  // 1 ns: every completion violates
    specs[1].rate = 20000.0;
    specs[1].arrival = workload::ArrivalKind::Bursty;
    specs[1].burstMean = 4.0;

    workload::MultiTenantOptions options;
    options.openLoop = true;
    workload::MultiTenantDriver driver(dev, specs, options);
    driver.prefill(0.1);

    constexpr std::uint64_t kRequests = 3000;
    const auto result = driver.run(kRequests);
    EXPECT_EQ(result.completed, kRequests);
    EXPECT_EQ(result.calibratedIops, 0.0);  // explicit rates: no
                                            // calibration needed

    const auto &fast = result.tenants[0];
    const auto &slow = result.tenants[1];
    EXPECT_DOUBLE_EQ(fast.offeredRate, 40000.0);
    EXPECT_DOUBLE_EQ(slow.offeredRate, 20000.0);
    // 2:1 arrival rates show up as a ~2:1 request split.
    const double split = static_cast<double>(fast.submitted) /
                         static_cast<double>(slow.submitted);
    EXPECT_GT(split, 1.4);
    EXPECT_LT(split, 2.8);
    // Open loop: elapsed tracks the offered rate (60k req/s
    // aggregate), not the device's appetite.
    const double seconds = toSeconds(result.elapsed);
    EXPECT_GT(seconds, 3000.0 / 60000.0 * 0.5);
    EXPECT_LT(seconds, 3000.0 / 60000.0 * 3.0);

    // SLO accounting: a 1 ns target is violated by every completion;
    // no target means no violations counted.
    EXPECT_EQ(fast.sloViolations, fast.completed);
    EXPECT_DOUBLE_EQ(fast.sloViolationFraction(), 1.0);
    EXPECT_EQ(slow.sloViolations, 0u);
}

TEST(MultiTenantDriver, CompletionsCarryTenantTags)
{
    ssd::Ssd dev(mtConfig());
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = 3;
    req.tenant = 2;
    req.namespaceId = 2;
    const auto completion = dev.submitSync(req);
    EXPECT_EQ(completion.tenant, 2u);

    // Untagged requests stay untagged end to end.
    ssd::HostRequest plain;
    plain.type = ssd::IoType::Write;
    plain.lba = 4;
    const auto untagged = dev.submitSync(plain);
    EXPECT_EQ(untagged.tenant, ssd::kNoTenant);
}

// ---------------------------------------------------------------------
// MSR-Cambridge trace auto-detection
// ---------------------------------------------------------------------

TEST(TraceReaderMsr, ParsesCsvAndConvertsUnits)
{
    std::istringstream in(
        "128166372003061629,hm,0,Read,32768,16384,1331\n"
        "128166372003061729,hm,0,Write,8192,20480,334\n");
    std::vector<ssd::HostRequest> requests;
    ASSERT_EQ(workload::TraceReader::parse(in, &requests), "");
    ASSERT_EQ(requests.size(), 2u);

    // First record anchors t=0; offsets/sizes convert to 16 KB pages.
    EXPECT_EQ(requests[0].arrival, 0u);
    EXPECT_EQ(requests[0].type, ssd::IoType::Read);
    EXPECT_EQ(requests[0].lba, 2u);
    EXPECT_EQ(requests[0].pages, 1u);
    // 100 FILETIME ticks later = 10 us; 20 KB spanning two pages.
    EXPECT_EQ(requests[1].arrival, 10 * kMicrosecond);
    EXPECT_EQ(requests[1].type, ssd::IoType::Write);
    EXPECT_EQ(requests[1].lba, 0u);
    EXPECT_EQ(requests[1].pages, 2u);
}

TEST(TraceReaderMsr, MixedFormatsAndComments)
{
    std::istringstream in(
        "# native lines and MSR records can coexist\n"
        "1000 R 5 2\n"
        "128166372003061629,hm,0,Read,0,16384,10\n");
    std::vector<ssd::HostRequest> requests;
    ASSERT_EQ(workload::TraceReader::parse(in, &requests), "");
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0].arrival, 1000u);
    EXPECT_EQ(requests[0].pages, 2u);
    EXPECT_EQ(requests[1].lba, 0u);
}

TEST(TraceReaderMsr, MalformedLinesNameFormatAndLine)
{
    std::istringstream msr(
        "128166372003061629,hm,0,Read,32768,16384,1331\n"
        "totally,not,a,record\n");
    std::vector<ssd::HostRequest> requests;
    std::string err = workload::TraceReader::parse(msr, &requests);
    EXPECT_NE(err.find("MSR-Cambridge"), std::string::npos);
    EXPECT_NE(err.find("line 2"), std::string::npos);

    std::istringstream badType(
        "128166372003061629,hm,0,Erase,32768,16384,1331\n");
    requests.clear();
    err = workload::TraceReader::parse(badType, &requests);
    EXPECT_NE(err.find("bad I/O type 'Erase'"), std::string::npos);

    std::istringstream native("bogus native line\n");
    requests.clear();
    err = workload::TraceReader::parse(native, &requests);
    EXPECT_NE(err.find("malformed trace line 1"), std::string::npos);
    EXPECT_NE(err.find("<arrival_ns> <R|W> <lba> <pages>"),
              std::string::npos);

    // Numbers carry no sign and must fit their field: a negative LBA
    // or page count, an LBA past 2^64 - 1 and a page count past
    // 2^32 - 1 are malformed, not wrapped.
    for (const char *line :
         {"0 R -1 1", "0 W 5 -1", "0 R 18446744073709551616 1",
          "0 W 5 4294967296", "0 W 5 0", "0 R 5 1 extra"}) {
        std::istringstream in(std::string("# header\n") + line + "\n");
        requests.clear();
        err = workload::TraceReader::parse(in, &requests);
        EXPECT_NE(err.find("malformed trace line 2"), std::string::npos)
            << line;
        EXPECT_TRUE(requests.empty()) << line;
    }

    const std::pair<const char *, const char *> msrCases[] = {
        {"128166372003061629,hm,0,Read,-16384,16384,1", "bad offset"},
        {"128166372003061629,hm,0,Read,0,-1,1", "bad size"},
        {"128166372003061629,hm,0,Write,18446744073709535232,16385,1",
         "overflows"},
        // 2^32 pages of 16 KB.
        {"128166372003061629,hm,0,Write,0,70368744177664,1",
         "bad size"},
    };
    for (const auto &[record, expect] : msrCases) {
        std::istringstream in(std::string(record) + "\n");
        requests.clear();
        err = workload::TraceReader::parse(in, &requests);
        EXPECT_NE(err.find("MSR-Cambridge record on line 1"),
                  std::string::npos) << record;
        EXPECT_NE(err.find(expect), std::string::npos) << record;
    }

    // An arrival beyond 2^64 ns after the first record.
    std::istringstream late("1,hm,0,Read,0,16384,1\n"
                            "18446744073709551615,hm,0,Read,0,16384,1\n");
    requests.clear();
    err = workload::TraceReader::parse(late, &requests);
    EXPECT_NE(err.find("MSR-Cambridge record on line 2"),
              std::string::npos);
    EXPECT_NE(err.find("timestamp"), std::string::npos);
}

}  // namespace
}  // namespace cubessd
