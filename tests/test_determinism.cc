/**
 * @file
 * Determinism regression pins.
 *
 * The simulator's contract is bit-identical replay: same config and
 * seed => same event sequence => same integer timestamps and stats.
 * These tests pin, for every FTL, the exact end-to-end fingerprint of
 * a small fig17-style workload (captured from the calendar-queue scheduler
 * the day it landed, verified bit-identical to the std::function-heap
 * scheduler it replaced) so any future change that silently perturbs
 * event ordering — a different tie-break, a reordered schedule call,
 * a float sneaking into control flow — fails loudly here instead of
 * subtly shifting every benchmark figure.
 *
 * Only integer observables are pinned (simulated times, counters);
 * doubles are derived and would only add brittleness.
 */

#include <gtest/gtest.h>

#include "src/ftl/ftl.h"
#include "src/workload/driver.h"

namespace cubessd {
namespace {

ssd::SsdConfig
pinConfig(ssd::FtlKind kind, bool wam)
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
    config.cubeFeatures.wam = wam;  // false: cubeFTL-
    config.seed = 42;
    return config;
}

struct Fingerprint
{
    SimTime elapsed = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    SimTime latencySum = 0;
    SimTime queueWaitSum = 0;
    std::uint64_t gcCollections = 0;

    bool
    operator==(const Fingerprint &o) const = default;
};

Fingerprint
runPinned(bool sampled, ssd::FtlKind kind = ssd::FtlKind::Cube,
          bool wam = true)
{
    ssd::Ssd dev(pinConfig(kind, wam));
    if (sampled) {
        // Observation-only sampling must not perturb the simulation.
        dev.queue().setSampler(10'000, [](SimTime) {});
    }
    auto spec = workload::oltp();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    // Deep prefill so GC collections happen inside the pinned window:
    // the fingerprint then covers the relocation path too.
    driver.prefill(0.6);
    const SimTime start = dev.queue().now();
    const std::uint64_t fired = dev.queue().fired();
    const auto result = driver.run(6000);

    Fingerprint fp;
    fp.elapsed = dev.queue().now() - start;
    fp.events = dev.queue().fired() - fired;
    fp.completed = result.completedRequests;
    fp.latencySum = dev.hostQueue().stats().latencySum;
    fp.queueWaitSum = dev.hostQueue().stats().queueWaitSum;
    fp.gcCollections = dev.ftl().gcStats().collections;
    return fp;
}

TEST(DeterminismPin, Fig17StyleWorkloadFingerprint)
{
    // Golden values per FTL. If an intentional semantic change moves
    // them, re-pin: build, run this test, copy the reported values,
    // and re-verify the full-size figures against their references.
    struct Pin
    {
        const char *name;
        ssd::FtlKind kind;
        bool wam;
        Fingerprint expected;
    };
    const Pin pins[] = {
        {"pageFTL", ssd::FtlKind::Page, true,
         {767'961'720u, 21'139u, 6000u, 412'969'911'131u, 0u, 24u}},
        {"vertFTL", ssd::FtlKind::Vert, true,
         {728'371'920u, 21'138u, 6000u, 382'529'460'090u, 0u, 24u}},
        {"cubeFTL", ssd::FtlKind::Cube, true,
         {375'214'700u, 16'414u, 6000u, 291'814'308'762u, 0u, 32u}},
        {"cubeFTL-", ssd::FtlKind::Cube, false,
         {641'483'080u, 21'154u, 6000u, 341'504'261'054u, 0u, 24u}},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        const Fingerprint fp = runPinned(/*sampled=*/false, pin.kind,
                                         pin.wam);
        EXPECT_EQ(fp.completed, pin.expected.completed);
        EXPECT_EQ(fp.elapsed, pin.expected.elapsed);
        EXPECT_EQ(fp.events, pin.expected.events);
        EXPECT_EQ(fp.latencySum, pin.expected.latencySum);
        EXPECT_EQ(fp.queueWaitSum, pin.expected.queueWaitSum);
        EXPECT_EQ(fp.gcCollections, pin.expected.gcCollections);
    }
}

TEST(DeterminismPin, RepeatedRunsAreBitIdentical)
{
    EXPECT_EQ(runPinned(false), runPinned(false));
}

TEST(DeterminismPin, SamplingOnOffIsBitIdentical)
{
    EXPECT_EQ(runPinned(false), runPinned(true));
}

}  // namespace
}  // namespace cubessd
