/**
 * @file
 * Device fork tests: copying a drained ssd::Ssd.
 *
 * A fork must be indistinguishable from its source — equal state
 * digest, equal contents — and must evolve exactly as the source does
 * under the same inputs, without keeping any reference into it. Every
 * property runs for each FTL, and once more on a device whose injected
 * program failures retired blocks until it went read-only.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/ftl/ftl.h"
#include "src/metrics/json.h"
#include "src/ssd/ssd.h"
#include "src/trace/trace.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace cubessd {
namespace {

/** An FTL under test; cubeFTL- is Cube with the WAM off. */
struct Ftl
{
    ssd::FtlKind kind;
    bool wam = true;
};

constexpr Ftl kAllFtls[] = {{ssd::FtlKind::Page},
                            {ssd::FtlKind::Vert},
                            {ssd::FtlKind::Cube},
                            {ssd::FtlKind::Cube, false}};

/** The test_determinism.cc pin shape; `faults` adds program failures
 *  frequent enough that a full fill exhausts the spare blocks. */
ssd::SsdConfig
forkConfig(Ftl ftl, bool faults)
{
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = faults ? 0.6 : 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ftl.kind;
    config.cubeFeatures.wam = ftl.wam;
    config.seed = 42;
    config.chip.faults.enabled = faults;
    config.chip.faults.programFailBase = faults ? 0.05 : 0.0;
    return config;
}

/** A drained, prefilled (and, with faults, read-only) device. */
std::unique_ptr<ssd::Ssd>
makeBase(Ftl ftl, bool faults)
{
    auto dev = std::make_unique<ssd::Ssd>(forkConfig(ftl, faults));
    dev->setAging({2000, 0.0});
    workload::prefillDevice(*dev, {{0, dev->logicalPages() / 2}}, 0.5);
    dev->setAging({2000, 1.0});
    return dev;
}

/** Everything a fixed workload reports: the run's counters and
 *  histograms, the FTL and GC statistics, and the device's state
 *  digest afterwards. */
struct Outcome
{
    std::string run;
    ftl::FtlStats ftl;
    ftl::GcStats gc;
    std::uint64_t digest = 0;
};

/** Run a fixed OLTP workload on `dev`, drain it and check it. */
Outcome
runWorkload(ssd::Ssd &dev)
{
    workload::WorkloadGenerator gen(workload::oltp(), dev.logicalPages(),
                                    7);
    workload::Driver driver(dev, gen);
    const workload::RunResult r = driver.run(1500);
    dev.drain();
    dev.ftl().checkConsistency();

    std::ostringstream out;
    metrics::JsonWriter w(out);
    w.beginObject();
    w.field("completed", r.completedRequests);
    w.field("elapsed", r.elapsed);
    w.field("iops", r.iops);
    w.key("status");
    w.beginArray();
    for (const auto count : r.statusCounts)
        w.value(count);
    w.endArray();
    w.key("requests");
    metrics::writeRequestMetrics(w, r.requestMetrics);
    w.endObject();
    return {out.str(), dev.ftl().stats(), dev.ftl().gcStats(),
            dev.stateDigest()};
}

/** Expect two outcomes to agree in every part. */
void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_EQ(a.run, b.run);
    EXPECT_TRUE(a.ftl == b.ftl) << "FtlStats differ";
    EXPECT_TRUE(a.gc == b.gc) << "GcStats differ";
    EXPECT_EQ(a.digest, b.digest);
}

/** Every (FTL, faults) combination, as a readable trace label. */
template <typename Fn>
void
forEachDevice(Fn &&fn)
{
    for (const bool faults : {false, true}) {
        for (const Ftl ftl : kAllFtls) {
            SCOPED_TRACE(std::string(ssd::ftlKindName(ftl.kind)) +
                         (ftl.wam ? "" : "-") +
                         (faults ? " with faults" : ""));
            fn(ftl, faults);
        }
    }
}

TEST(SsdFork, ForkHasTheBasesStateAndContents)
{
    forEachDevice([](Ftl ftl, bool faults) {
        const auto base = makeBase(ftl, faults);
        if (faults) {
            ASSERT_TRUE(base->ftl().readOnly()) << "tune the fault rate";
        }
        ssd::Ssd fork(*base);
        EXPECT_EQ(fork.stateDigest(), base->stateDigest());
        EXPECT_EQ(fork.queue().now(), base->queue().now());
        for (Lba lba = 0; lba < base->logicalPages(); ++lba)
            ASSERT_EQ(fork.peek(lba), base->peek(lba)) << "lba " << lba;
        fork.ftl().checkConsistency();
    });
}

TEST(SsdFork, SameWorkloadOnBaseAndForkGivesEqualResults)
{
    forEachDevice([](Ftl ftl, bool faults) {
        const auto base = makeBase(ftl, faults);
        ssd::Ssd fork(*base);
        const Outcome forked = runWorkload(fork);
        expectSameOutcome(forked, runWorkload(*base));
    });
}

TEST(SsdFork, ForkOutlivesItsBase)
{
    // Under ASan any reference a fork kept into its source is a
    // use-after-free here; without it, the result still has to match
    // a device that was never copied.
    forEachDevice([](Ftl ftl, bool faults) {
        auto base = makeBase(ftl, faults);
        auto fork = std::make_unique<ssd::Ssd>(*base);
        base.reset();
        const Outcome forked = runWorkload(*fork);
        expectSameOutcome(forked, runWorkload(*makeBase(ftl, faults)));
    });
}

TEST(SsdFork, OneExtraWriteChangesTheDigest)
{
    forEachDevice([](Ftl ftl, bool faults) {
        const auto base = makeBase(ftl, faults);
        ssd::Ssd fork(*base);
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = 1;
        fork.submitSync(req);
        fork.drain();
        EXPECT_NE(fork.stateDigest(), base->stateDigest());
    });
}

TEST(SsdFork, ForkCarriesNoTraceAttachment)
{
    // The copy takes every member, the trace pointers included, and
    // must then detach them: a fork's events never reach the base's
    // session.
    const auto base = makeBase({ssd::FtlKind::Cube}, false);
    trace::TraceSession session(trace::TraceConfig{1 << 12});
    base->attachTrace(&session);
    ssd::Ssd fork(*base);
    const std::uint64_t before = session.recorded();
    runWorkload(fork);
    EXPECT_EQ(session.recorded(), before);

    // The base's own traffic still reaches it.
    runWorkload(*base);
    EXPECT_GT(session.recorded(), before);
}

TEST(SsdFork, ConcurrentForksOfOneBaseMatchTheBase)
{
    // The sweep pattern: several threads copy one base at once, then
    // the last user runs on the base itself.
    const auto base = makeBase({ssd::FtlKind::Cube}, false);
    std::vector<Outcome> forked(3);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < forked.size(); ++t) {
        threads.emplace_back([&, t] {
            ssd::Ssd fork(*base);
            forked[t] = runWorkload(fork);
        });
    }
    for (auto &t : threads)
        t.join();
    const Outcome own = runWorkload(*base);
    for (const Outcome &f : forked)
        expectSameOutcome(f, own);
}

TEST(SsdFork, DrainFlushesWritesNotYetAdmitted)
{
    // The ssd.h pattern: submit, then drain. The writes reach the
    // buffer only while drain runs the queue, and all of them must
    // reach NAND, leaving a device that can be forked.
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 2;
    ssd::Ssd dev(config);
    for (Lba lba = 0; lba < 4; ++lba) {
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        dev.submit(req, nullptr);
    }
    dev.drain();
    ASSERT_TRUE(dev.ftl().buffer().empty());
    ASSERT_TRUE(dev.ftl().idle());
    const ssd::Ssd fork(dev);
    EXPECT_EQ(fork.stateDigest(), dev.stateDigest());
}

TEST(SsdForkDeathTest, CopyWithIoInFlightPanics)
{
    ssd::Ssd dev(forkConfig({ssd::FtlKind::Page}, false));
    ssd::HostRequest req;
    req.type = ssd::IoType::Write;
    req.lba = 0;
    dev.submit(req, nullptr);
    EXPECT_DEATH({ const ssd::Ssd fork(dev); },
                 "only a drained device can be copied");
}

}  // namespace
}  // namespace cubessd
