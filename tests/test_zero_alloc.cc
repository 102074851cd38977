/**
 * @file
 * Steady-state allocation audit of the simulation hot path.
 *
 * This test binary replaces the global allocator with a counting
 * wrapper and asserts the zero-allocation contract of the event/
 * request pipeline: after a warm-up phase has grown every pool, map
 * and ring to its working-set size, driving further events through
 * the device performs NO heap allocations at all. It also bounds the
 * bytes a device allocates when it is built.
 *
 * Kept as its own executable (see tests/CMakeLists.txt) so the
 * operator new/delete overrides cannot interfere with the main test
 * binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/ftl/ftl.h"
#include "src/prof/prof.h"
#include "src/sim/event_queue.h"
#include "src/ssd/ssd.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace {

// Not atomic: the simulator is single-threaded and gtest does not
// allocate concurrently with the measured regions.
std::uint64_t gAllocCount = 0;
std::uint64_t gAllocBytes = 0;

}  // namespace

void *
operator new(std::size_t size)
{
    ++gAllocCount;
    gAllocBytes += size;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    ++gAllocCount;
    gAllocBytes += size;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1)))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace cubessd {
namespace {

TEST(ZeroAlloc, ConstructionBytesPerPhysicalPage)
{
    // Device-sized state is per LBA (the 4-byte mapping entry, 0.9
    // LBAs per page), per page (the 8-byte NAND data token, which
    // carries the page's LBA, and 1 validity bit), per WL (the 5-byte
    // program state, 3 pages per WL) and per h-layer (ORT): 13.8-14.9
    // bytes per physical page at these sizes. A 4-byte reverse map
    // beside the token, a write version in the mapping entry, per-WL
    // term-cache entries, or leader parameters kept for every h-layer
    // cross the bound.
    constexpr double kMaxBytesPerPage = 16.0;
    for (const ssd::FtlKind kind :
         {ssd::FtlKind::Page, ssd::FtlKind::Vert, ssd::FtlKind::Cube}) {
        for (const std::uint32_t blocks : {96u, 428u}) {
            ssd::SsdConfig config;
            config.chip.geometry.blocksPerChip = blocks;
            config.ftl = kind;
            const std::uint64_t before = gAllocBytes;
            { const ssd::Ssd dev(config); }
            const double perPage =
                static_cast<double>(gAllocBytes - before) /
                static_cast<double>(config.totalChips() *
                                    config.chip.geometry.pagesPerChip());
            EXPECT_LE(perPage, kMaxBytesPerPage)
                << ssd::ftlKindName(kind) << " at " << blocks
                << " blocks per chip";
        }
    }
}

/** Typed self-rescheduling actor (the micro hot path). */
struct PingActor final : sim::EventHandler
{
    sim::EventQueue *eq = nullptr;
    SimTime step = 0;
    std::uint64_t remaining = 0;

    void
    onEvent(sim::EventKind, const sim::EventPayload &) override
    {
        if (remaining-- > 1)
            eq->schedule(step, sim::EventKind::DriverTick, this);
    }
};

TEST(ZeroAlloc, EventQueueSteadyState)
{
    sim::EventQueue eq;
    constexpr int kActors = 64;
    PingActor actors[kActors];
    for (int i = 0; i < kActors; ++i) {
        actors[i].eq = &eq;
        actors[i].step = static_cast<SimTime>(37 + i);
    }

    // Warm-up: grows the event pool to the working set.
    for (auto &a : actors) {
        a.remaining = 100;
        eq.schedule(a.step, sim::EventKind::DriverTick, &a);
    }
    eq.run();

    // Steady state: identical load, zero allocations allowed.
    for (auto &a : actors) {
        a.remaining = 10000;
        eq.schedule(a.step, sim::EventKind::DriverTick, &a);
    }
    const std::uint64_t before = gAllocCount;
    const std::uint64_t fired = eq.run();
    const std::uint64_t allocs = gAllocCount - before;
    EXPECT_GE(fired, 64u * 10000u - 64u);
    EXPECT_EQ(allocs, 0u)
        << allocs << " allocations over " << fired << " events";
}

/** Closed-loop load generator that bypasses the workload driver:
 *  completions immediately submit replacement requests. */
struct LoadSink final : ssd::CompletionSink
{
    ssd::Ssd *dev = nullptr;
    Rng rng{9};
    std::uint64_t workingSet = 0;
    std::uint64_t toSubmit = 0;
    std::uint64_t outstanding = 0;

    void
    submitOne()
    {
        ssd::HostRequest req;
        req.type = rng.uniformInt(100) < 60 ? ssd::IoType::Write
                                            : ssd::IoType::Read;
        req.pages = 1 + static_cast<std::uint32_t>(rng.uniformInt(4));
        req.lba = rng.uniformInt(workingSet - req.pages);
        --toSubmit;
        ++outstanding;
        dev->hostQueue().submit(req, this, 0);
    }

    void
    onCompletion(const ssd::Completion &, std::uint64_t) override
    {
        --outstanding;
        if (toSubmit > 0)
            submitOne();
    }

    void
    drive(std::uint64_t requests)
    {
        toSubmit = requests;
        for (int i = 0; i < 16 && toSubmit > 0; ++i)
            submitOne();
        while ((toSubmit > 0 || outstanding > 0) && dev->queue().step()) {
        }
        ASSERT_EQ(toSubmit, 0u);
        ASSERT_EQ(outstanding, 0u);
    }
};

TEST(ZeroAlloc, DeviceRequestPathSteadyState)
{
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Cube;
    config.seed = 42;
    ssd::Ssd dev(config);

    // Fill the device so GC runs during the measured window.
    auto spec = workload::oltp();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.3);

    // A fork of the prefilled device starts with empty pools (a copied
    // pool is empty) and runs the same load: once warm, it must not
    // allocate either.
    dev.drain();
    ssd::Ssd fork(dev);

    // Warm up (grow request pools, in-flight maps, rings), then count
    // the allocations of a second window of the same load.
    auto measure = [](ssd::Ssd &device) {
        LoadSink sink;
        sink.dev = &device;
        sink.workingSet = device.logicalPages();
        sink.drive(8000);
        const std::uint64_t gcBefore = device.ftl().gcStats().collections;

        const std::uint64_t firedBefore = device.queue().fired();
        const std::uint64_t before = gAllocCount;
        sink.drive(8000);
        const std::uint64_t allocs = gAllocCount - before;
        const std::uint64_t fired = device.queue().fired() - firedBefore;

        EXPECT_GT(fired, 50000u);  // the window did real work
        // GC must have been active inside the measured window for the
        // audit to cover the relocation path.
        EXPECT_GT(device.ftl().gcStats().collections, gcBefore);
        EXPECT_EQ(allocs, 0u)
            << allocs << " allocations over " << fired << " events";
    };
    measure(dev);
    SCOPED_TRACE("fork");
    measure(fork);
}

TEST(ZeroAlloc, DriverRunDoesNotAllocatePerRequest)
{
    // The measured run folds every completion into fixed-size
    // histograms: on a warmed device, Driver::run allocates the same
    // (per-run, not per-request) amount whatever the request count.
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Cube;
    config.seed = 42;
    ssd::Ssd dev(config);

    workload::WorkloadGenerator gen(workload::web(), dev.logicalPages(),
                                    7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.3);
    driver.run(8000);  // warm-up

    const auto allocsOf = [&](std::uint64_t requests) {
        const std::uint64_t before = gAllocCount;
        const workload::RunResult result = driver.run(requests);
        EXPECT_EQ(result.completedRequests, requests);
        return gAllocCount - before;
    };
    // A device pool may still reach a new high-water mark in any one
    // run, so compare the fewest allocations over a few runs of each
    // size.
    std::uint64_t small = ~std::uint64_t{0};
    std::uint64_t large = ~std::uint64_t{0};
    for (int i = 0; i < 3; ++i) {
        small = std::min(small, allocsOf(1000));
        large = std::min(large, allocsOf(8000));
    }
    EXPECT_EQ(large, small)
        << "1000 requests: " << small << " allocations, 8000: " << large;
}

TEST(ZeroAlloc, DeviceRequestPathWithProfilerOn)
{
    // The self-profiler shares the hot path's contract: fixed-slot
    // thread_local accumulators, raw clock reads — an enabled
    // ProfScope must not add a single heap allocation per event.
    if (!prof::compiledIn())
        GTEST_SKIP() << "built without CUBESSD_PROFILING";
    prof::setEnabled(true);
    prof::resetThread();

    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = ssd::FtlKind::Cube;
    config.seed = 42;
    ssd::Ssd dev(config);

    auto spec = workload::oltp();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.3);

    LoadSink sink;
    sink.dev = &dev;
    sink.workingSet = dev.logicalPages();

    sink.drive(8000);  // warm-up, profiler already on

    const std::uint64_t firedBefore = dev.queue().fired();
    const std::uint64_t before = gAllocCount;
    sink.drive(8000);
    const std::uint64_t allocs = gAllocCount - before;
    const std::uint64_t fired = dev.queue().fired() - firedBefore;
    prof::setEnabled(false);

    EXPECT_GT(fired, 50000u);
    // The scopes really were live in the measured window (snapshot()
    // is a plain value copy — no allocation even inside the window).
    const prof::ProfileData profile = prof::snapshot();
    EXPECT_GT(profile.count(prof::Slot::SchedChipOp), 0u);
    EXPECT_GT(profile.count(prof::Slot::NandReadBerEval), 0u);
    EXPECT_EQ(allocs, 0u)
        << allocs << " allocations over " << fired
        << " events with the profiler enabled";
}

TEST(ZeroAlloc, NandProgramPathWithProfilerOn)
{
    // The NAND model layer itself: erase -> program -> read cycles on
    // a bare chip, profiler on. Covers the term-cache fill/hit paths
    // (every erase opens a new epoch and refills), the fixed-capacity
    // verify schedule, and the ISPP/read hot paths — none of which may
    // touch the heap after construction.
    if (!prof::compiledIn())
        GTEST_SKIP() << "built without CUBESSD_PROFILING";
    prof::setEnabled(true);
    prof::resetThread();

    nand::NandChipConfig config;
    config.geometry.blocksPerChip = 4;
    config.geometry.layersPerBlock = 8;
    config.seed = 3;
    nand::NandChip chip(config);

    const std::uint64_t tokens[3] = {1, 2, 3};
    const auto cycle = [&](std::uint32_t block) {
        chip.eraseBlock(block);
        for (std::uint32_t l = 0; l < config.geometry.layersPerBlock;
             ++l) {
            for (std::uint32_t w = 0; w < config.geometry.wlsPerLayer;
                 ++w) {
                const nand::WlAddr wl{block, l, w};
                chip.programWl(wl, nand::ProgramCommand{}, tokens);
                chip.readPage(nand::PageAddr{block, l, w, 0}, 0);
            }
        }
    };

    // Warm-up epoch: first touch of every block fills its entry.
    for (std::uint32_t b = 0; b < config.geometry.blocksPerChip; ++b)
        cycle(b);

    const std::uint64_t before = gAllocCount;
    for (int rep = 0; rep < 4; ++rep) {
        chip.setAging({100u * static_cast<std::uint32_t>(rep + 1),
                       static_cast<double>(rep)});
        for (std::uint32_t b = 0; b < config.geometry.blocksPerChip; ++b)
            cycle(b);
    }
    const std::uint64_t allocs = gAllocCount - before;
    prof::setEnabled(false);

    // The epoch churn really exercised the refill path.
    const auto &counters = chip.termCache().counters();
    EXPECT_GT(counters.agingMisses, 0u);
    EXPECT_GT(counters.agingHits, 0u);
    EXPECT_EQ(allocs, 0u)
        << allocs << " allocations across erase/program/read cycles";
}

}  // namespace
}  // namespace cubessd
