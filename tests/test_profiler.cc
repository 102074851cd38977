/**
 * @file
 * Self-profiler tests (src/prof/).
 *
 * The profiler's contract has three parts, each pinned here:
 *
 *  1. Accounting: nested scopes charge inclusive time to themselves
 *     AND child time to the enclosing scope, so self = inclusive -
 *     child is exact when every hit is timed (setSamplePeriod(1)).
 *  2. Sampling: hit COUNTS are exact at any sampling period — only
 *     the timestamps are stride-sampled, and snapshot() scales them
 *     back up by the period.
 *  3. Observation-only + determinism: a run produces bit-identical
 *     simulation results with profiling on or off, and a merged sweep
 *     profile has identical slot counts for --jobs 1 and --jobs N.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/json.h"
#include "src/prof/prof.h"
#include "src/sim/sweep.h"
#include "src/ssd/ssd.h"
#include "src/workload/driver.h"
#include "src/workload/sweep.h"
#include "src/workload/workload.h"

namespace cubessd {
namespace {

/** Burn enough cycles that a timed scope accumulates nonzero ticks. */
std::uint64_t
spin(int iters = 20000)
{
    volatile std::uint64_t x = 0;
    for (int i = 0; i < iters; ++i)
        x = x + static_cast<std::uint64_t>(i);
    return x;
}

/** Saves and restores the global profiler switches around each test:
 *  the main test binary shares one process, so a test must not leak
 *  an enabled profiler or a non-default sampling period. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled_ = prof::enabled();
        oldPeriod_ = prof::samplePeriod();
        prof::resetThread();
    }

    void
    TearDown() override
    {
        prof::setEnabled(wasEnabled_);
        prof::setSamplePeriod(oldPeriod_);
        prof::resetThread();
    }

  private:
    bool wasEnabled_ = false;
    std::uint32_t oldPeriod_ = 16;
};

TEST_F(ProfilerTest, NestedScopeAccountingIsExact)
{
    prof::setSamplePeriod(1);  // time every hit: exact arithmetic
    prof::setEnabled(true);
    prof::resetThread();
    {
        prof::ProfScope outer(prof::Slot::FtlMapping);
        spin();
        {
            prof::ProfScope inner(prof::Slot::FtlOrtLookup);
            spin();
        }
        spin();
    }
    const prof::ProfileData d = prof::snapshot();

    EXPECT_EQ(d.count(prof::Slot::FtlMapping), 1u);
    EXPECT_EQ(d.count(prof::Slot::FtlOrtLookup), 1u);
    EXPECT_GT(d.totalTicks(prof::Slot::FtlOrtLookup), 0u);
    // The child's interval lies inside the parent's.
    EXPECT_GE(d.totalTicks(prof::Slot::FtlMapping),
              d.totalTicks(prof::Slot::FtlOrtLookup));
    // Exclusive + child inclusive == parent inclusive, to the tick:
    // the very same dt is added to the child's ticks and the parent's
    // childTicks.
    EXPECT_EQ(d.selfTicks(prof::Slot::FtlMapping) +
                  d.totalTicks(prof::Slot::FtlOrtLookup),
              d.totalTicks(prof::Slot::FtlMapping));
    // A leaf has no children: self == inclusive.
    EXPECT_EQ(d.selfTicks(prof::Slot::FtlOrtLookup),
              d.totalTicks(prof::Slot::FtlOrtLookup));
    // selfTicksSum never double-counts nested time.
    EXPECT_EQ(d.selfTicksSum(), d.totalTicks(prof::Slot::FtlMapping));
}

TEST_F(ProfilerTest, ThreeLevelNestingChargesEachParentOnce)
{
    prof::setSamplePeriod(1);
    prof::setEnabled(true);
    prof::resetThread();
    {
        prof::ProfScope a(prof::Slot::SimLoop);
        spin();
        {
            prof::ProfScope b(prof::Slot::SchedChipOp);
            spin();
            {
                prof::ProfScope c(prof::Slot::NandRead);
                spin();
            }
        }
    }
    const prof::ProfileData d = prof::snapshot();
    // Child time propagates one level only (to the immediate parent),
    // so the exclusive times partition the outermost inclusive time.
    EXPECT_EQ(d.selfTicks(prof::Slot::SimLoop) +
                  d.selfTicks(prof::Slot::SchedChipOp) +
                  d.selfTicks(prof::Slot::NandRead),
              d.totalTicks(prof::Slot::SimLoop));
}

TEST_F(ProfilerTest, ReenteredSlotAccumulatesCounts)
{
    prof::setSamplePeriod(1);
    prof::setEnabled(true);
    prof::resetThread();
    for (int i = 0; i < 8; ++i) {
        prof::ProfScope s(prof::Slot::NandProgramIspp);
        spin(2000);
    }
    const prof::ProfileData d = prof::snapshot();
    EXPECT_EQ(d.count(prof::Slot::NandProgramIspp), 8u);
    EXPECT_GT(d.totalTicks(prof::Slot::NandProgramIspp), 0u);
}

TEST_F(ProfilerTest, SamplePeriodRoundsUpToPowerOfTwo)
{
    prof::setSamplePeriod(1);
    EXPECT_EQ(prof::samplePeriod(), 1u);
    prof::setSamplePeriod(0);
    EXPECT_EQ(prof::samplePeriod(), 1u);
    prof::setSamplePeriod(3);
    EXPECT_EQ(prof::samplePeriod(), 4u);
    prof::setSamplePeriod(16);
    EXPECT_EQ(prof::samplePeriod(), 16u);
    prof::setSamplePeriod(17);
    EXPECT_EQ(prof::samplePeriod(), 32u);
}

TEST_F(ProfilerTest, SamplingKeepsCountsExactAndScalesTicks)
{
    prof::setSamplePeriod(4);
    prof::setEnabled(true);
    prof::resetThread();
    for (int i = 0; i < 11; ++i) {
        prof::ProfScope s(prof::Slot::NandReadBerEval);
        spin(2000);
    }
    const prof::ProfileData d = prof::snapshot();
    // Counts never sample: 11 hits is 11, not ~11.
    EXPECT_EQ(d.count(prof::Slot::NandReadBerEval), 11u);
    // The first hit of a slot is always timed, so even a rare slot
    // reports nonzero time...
    EXPECT_GT(d.totalTicks(prof::Slot::NandReadBerEval), 0u);
    // ...and snapshot() scales the sampled sum by the period.
    EXPECT_EQ(d.totalTicks(prof::Slot::NandReadBerEval) % 4, 0u);
}

TEST_F(ProfilerTest, DisabledScopesRecordNothing)
{
    prof::setEnabled(false);
    prof::resetThread();
    {
        prof::ProfScope s(prof::Slot::FtlGc);
        spin(2000);
    }
    const prof::ProfileData d = prof::snapshot();
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.count(prof::Slot::FtlGc), 0u);
}

TEST_F(ProfilerTest, SnapshotSinceIsolatesTheDelta)
{
    prof::setSamplePeriod(1);
    prof::setEnabled(true);
    prof::resetThread();
    {
        prof::ProfScope s(prof::Slot::SsdArbiter);
    }
    const prof::ProfileData before = prof::snapshot();
    for (int i = 0; i < 3; ++i) {
        prof::ProfScope s(prof::Slot::SsdArbiter);
        spin(2000);
    }
    const prof::ProfileData delta = prof::snapshot().since(before);
    EXPECT_EQ(delta.count(prof::Slot::SsdArbiter), 3u);

    prof::ProfileData merged = before;
    merged.merge(delta);
    EXPECT_EQ(merged.count(prof::Slot::SsdArbiter), 4u);
}

// ---------------------------------------------------------------------
// Simulation integration: observation-only and jobs-invariant.
// ---------------------------------------------------------------------

ssd::SsdConfig
smallConfig(ssd::FtlKind kind, std::uint64_t seed)
{
    // The test_determinism.cc pin shape (see test_sweep.cc).
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 32;
    config.logicalFraction = 0.75;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = kind;
    config.seed = seed;
    return config;
}

/** Exact textual fingerprint of a run's deterministic observables. */
std::string
fingerprint(const workload::RunResult &r)
{
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
    return out.str();
}

std::string
runOnce(std::uint64_t seed)
{
    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube, seed));
    auto spec = workload::oltp();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.3);
    return fingerprint(driver.run(1500));
}

TEST_F(ProfilerTest, SimulationIsBitIdenticalWithProfilingOnOrOff)
{
    prof::setEnabled(false);
    const std::string off = runOnce(42);
    prof::setEnabled(true);
    const std::string on = runOnce(42);
    EXPECT_EQ(off, on)
        << "profiling must be observation-only: enabling it changed "
           "the simulation's results";
}

std::vector<workload::SweepCell>
smallGrid()
{
    std::vector<workload::SweepCell> cells;
    for (const auto kind : {ssd::FtlKind::Page, ssd::FtlKind::Cube}) {
        for (const std::uint64_t seed : {42ull, 137ull}) {
            workload::SweepCell cell;
            cell.config = smallConfig(kind, seed);
            cell.spec = workload::oltp();
            cell.requests = 800;
            cells.push_back(cell);
        }
    }
    return cells;
}

/** Cells that share one prefill (Mail and Rocks at two retention
 *  points after the same pre-cycling) plus an OLTP singleton. */
std::vector<workload::SweepCell>
sharedPrefillGrid()
{
    std::vector<workload::SweepCell> cells;
    for (const double months : {1.0, 6.0}) {
        for (const auto &spec : {workload::mail(), workload::rocks()}) {
            workload::SweepCell cell;
            cell.config = smallConfig(ssd::FtlKind::Cube, 42);
            cell.spec = spec;
            cell.aging = {2000, months};
            cell.requests = 800;
            cells.push_back(cell);
        }
    }
    cells.push_back(cells.front());
    cells.back().spec = workload::oltp();
    return cells;
}

/** Run `grid` at --jobs 1 and 4 and check the merged profile counts
 *  and the worker telemetry. */
void
expectJobInvariantProfile(const std::vector<workload::SweepCell> &grid)
{
    sim::SweepTelemetry seqTel, parTel;
    const auto seq = workload::runCells(grid, 1, {}, &seqTel);
    const auto par = workload::runCells(grid, 4, {}, &parTel);
    const prof::ProfileData seqProf = workload::mergeCellProfiles(seq);
    const prof::ProfileData parProf = workload::mergeCellProfiles(par);

    // Slot hit counts depend only on the simulation, so the merged
    // profile's counts are bit-identical for any worker count. (Tick
    // times are wall-clock and noisy — no assertion on those.)
    for (std::size_t i = 0; i < prof::kSlotCount; ++i) {
        const auto slot = static_cast<prof::Slot>(i);
        EXPECT_EQ(seqProf.count(slot), parProf.count(slot))
            << "slot " << prof::slotName(slot)
            << " count diverged under --jobs 4";
    }

    // The run did real work through the instrumented paths.
    EXPECT_GT(seqProf.count(prof::Slot::SchedChipOp), 0u);
    EXPECT_GT(seqProf.count(prof::Slot::NandReadBerEval), 0u);
    EXPECT_GT(seqProf.count(prof::Slot::NandProgramIspp), 0u);
    EXPECT_GT(seqProf.count(prof::Slot::FtlMapping), 0u);

    // Worker telemetry: one entry on the inline path, `jobs` entries
    // on the pooled path, every cell accounted for exactly once.
    ASSERT_EQ(seqTel.workers.size(), 1u);
    EXPECT_EQ(seqTel.workers[0].jobs, grid.size());
    ASSERT_EQ(parTel.workers.size(), 4u);
    std::uint64_t claimed = 0;
    for (const auto &w : parTel.workers)
        claimed += w.jobs;
    EXPECT_EQ(claimed, grid.size());
    EXPECT_GE(parTel.imbalance(), 1.0);
}

TEST_F(ProfilerTest, MergedSweepProfileCountsAreJobInvariant)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "built without CUBESSD_PROFILING";
    prof::setEnabled(true);
    expectJobInvariantProfile(smallGrid());
}

TEST_F(ProfilerTest, SharedPrefillProfileCountsAreJobInvariant)
{
    // A group's prefill runs once and is credited to its first cell,
    // whichever worker builds it.
    if (!prof::compiledIn())
        GTEST_SKIP() << "built without CUBESSD_PROFILING";
    prof::setEnabled(true);
    expectJobInvariantProfile(sharedPrefillGrid());
}

TEST_F(ProfilerTest, SinceClampsFieldsThatWentDown)
{
    // Independent profiles (e.g. two sweeps' merged profiles) need not
    // be ordered field by field; the difference must not wrap.
    prof::ProfileData small, large;
    small.slots[0] = {1, 10, 4};
    large.slots[0] = {3, 7, 9};
    const prof::ProfileData d = small.since(large);
    EXPECT_EQ(d.slots[0].count, 0u);
    EXPECT_EQ(d.slots[0].ticks, 3u);
    EXPECT_EQ(d.slots[0].childTicks, 0u);
    EXPECT_EQ(large.since(small).slots[0].count, 2u);
}

TEST_F(ProfilerTest, TermFillCountMatchesCacheMissCounters)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "built without CUBESSD_PROFILING";
    prof::setEnabled(true);
    prof::resetThread();

    ssd::Ssd dev(smallConfig(ssd::FtlKind::Cube, 42));
    auto spec = workload::oltp();
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
    workload::Driver driver(dev, gen);
    driver.prefill(0.3);

    const prof::ProfileData before = prof::snapshot();
    driver.run(1500);
    const prof::ProfileData d = prof::snapshot().since(before);

    // Every aging-entry miss opens exactly one nand.term_fill scope,
    // and nothing else does — the profiler's count and the cache's own
    // counters are two independent tallies of the same events. (The
    // prefill runs outside the snapshot delta, so compare against
    // cumulative counters via >=, then pin the exact identity on a
    // fresh device below.)
    std::uint64_t misses = 0;
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < dev.chipCount(); ++i) {
        const auto &c = dev.chip(i).termCache().counters();
        misses += c.agingMisses;
        hits += c.agingHits;
    }
    EXPECT_GT(misses, 0u);
    EXPECT_GT(hits, 0u);  // the cache actually served the hot path
    EXPECT_GE(misses, d.count(prof::Slot::NandTermFill));

    // Fresh device, whole life inside one snapshot window: exact.
    prof::resetThread();
    ssd::Ssd dev2(smallConfig(ssd::FtlKind::Cube, 43));
    workload::WorkloadGenerator gen2(spec, dev2.logicalPages(), 7);
    workload::Driver driver2(dev2, gen2);
    const prof::ProfileData before2 = prof::snapshot();
    driver2.prefill(0.3);
    driver2.run(1500);
    const prof::ProfileData d2 = prof::snapshot().since(before2);
    std::uint64_t misses2 = 0;
    for (std::uint32_t i = 0; i < dev2.chipCount(); ++i) {
        const auto &c = dev2.chip(i).termCache().counters();
        misses2 += c.agingMisses;
    }
    EXPECT_EQ(misses2, d2.count(prof::Slot::NandTermFill));

    // Slot-structure sanity for the split read attribution: every
    // read runs ber_eval and the decode walk once; only reads whose
    // first sense failed enter the retry scope.
    EXPECT_EQ(d2.count(prof::Slot::NandReadDecode),
              d2.count(prof::Slot::NandReadBerEval));
    EXPECT_LE(d2.count(prof::Slot::NandReadRetry),
              d2.count(prof::Slot::NandReadDecode));
}

TEST_F(ProfilerTest, ReportAndJsonNameTheKeySubsystems)
{
    if (!prof::compiledIn())
        GTEST_SKIP() << "built without CUBESSD_PROFILING";
    prof::setEnabled(true);
    prof::resetThread();
    runOnce(42);
    const prof::ProfileData d = prof::snapshot();

    std::ostringstream table;
    prof::report(table, d, /*wallNs=*/0.0);
    EXPECT_NE(table.str().find("nand.read.ber_eval"),
              std::string::npos);
    EXPECT_NE(table.str().find("ftl.mapping"), std::string::npos);

    std::ostringstream json;
    metrics::JsonWriter w(json);
    prof::writeJson(w, d, /*wallNs=*/1e9);
    EXPECT_NE(json.str().find("\"sample_period\""), std::string::npos);
    EXPECT_NE(json.str().find("\"nand.program.ispp\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"self_ns_per_call\""),
              std::string::npos);
}

}  // namespace
}  // namespace cubessd
