/**
 * @file
 * Parallel sweep driver tests.
 *
 * The sweep's contract is threefold:
 *
 *  1. Determinism: an N-job run of a cell grid is bit-identical to
 *     the sequential (1-job) run, cell for cell — the merge happens
 *     in cell order, never completion order (pins reuse the
 *     test_determinism.cc device shape).
 *  2. Merge algebra: histogram/RequestMetrics merges are
 *     order-independent (integer bucket counts), so the cell-order
 *     rule is a convention that COSTS nothing, not a numerical
 *     necessity that could silently break.
 *  3. Error propagation: a throwing cell does not abort the process
 *     or the other cells; the lowest-index failure is rethrown on the
 *     calling thread, annotated with the failing cell's
 *     configuration.
 *  4. Shared prefill: cells with equal prefill inputs fork one
 *     prefilled device, and each still reports exactly what it
 *     reports when run alone, for any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/metrics/json.h"
#include "src/sim/sweep.h"
#include "src/workload/sweep.h"

namespace cubessd {
namespace {

ssd::SsdConfig
smallConfig(ssd::FtlKind kind, std::uint64_t seed)
{
    // The test_determinism.cc pin shape: small enough to prefill in
    // well under a second, busy enough that GC runs inside the
    // measured window.
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

std::vector<workload::SweepCell>
smallGrid(std::uint64_t requests = 1200)
{
    // A miniature fig17-style grid: 2 FTLs x 2 seeds.
    std::vector<workload::SweepCell> cells;
    for (const auto kind : {ssd::FtlKind::Page, ssd::FtlKind::Cube}) {
        for (const std::uint64_t seed : {42ull, 137ull}) {
            workload::SweepCell cell;
            cell.config = smallConfig(kind, seed);
            cell.spec = workload::oltp();
            cell.requests = requests;
            cells.push_back(cell);
        }
    }
    return cells;
}

/** Exact textual fingerprint of one cell's observables: integer
 *  counters plus the full serialized per-IoType histograms. */
std::string
fingerprint(const workload::CellResult &r)
{
    std::ostringstream out;
    metrics::JsonWriter w(out);
    w.beginObject();
    w.field("completed", r.run.completedRequests);
    w.field("elapsed", r.run.elapsed);
    w.key("status");
    w.beginArray();
    for (const auto count : r.run.statusCounts)
        w.value(count);
    w.endArray();
    w.field("host_programs", r.ftl.hostPrograms);
    w.field("gc_collections", r.gc.collections);
    w.field("read_retries", r.ftl.readRetries);
    w.key("requests");
    metrics::writeRequestMetrics(w, r.run.requestMetrics);
    w.endObject();
    return out.str();
}

/** The grid's sequential reference results, computed once. */
const std::vector<workload::CellResult> &
sequentialResults()
{
    static const auto results = workload::runCells(smallGrid(), 1);
    return results;
}

TEST(SweepDeterminism, ParallelRunIsBitIdenticalToSequential)
{
    const auto &seq = sequentialResults();
    const auto par = workload::runCells(smallGrid(), 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(fingerprint(seq[i]), fingerprint(par[i]))
            << "cell " << i << " diverged under --jobs 4";
}

TEST(SweepDeterminism, MoreWorkersThanCellsIsBitIdentical)
{
    const auto &seq = sequentialResults();
    const auto par = workload::runCells(smallGrid(), 16);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(fingerprint(seq[i]), fingerprint(par[i]));
}

/**
 * Cells that share prefill inputs: one FTL and seed, Mail and Rocks
 * (equal working sets) at two retention points after the same
 * pre-cycling — one group of four, interleaved with a singleton (OLTP,
 * smaller working set) in the middle of the grid.
 */
std::vector<workload::SweepCell>
sharedPrefillGrid()
{
    std::vector<workload::SweepCell> cells;
    auto add = [&](const workload::WorkloadSpec &spec, double months) {
        workload::SweepCell cell;
        cell.config = smallConfig(ssd::FtlKind::Cube, 42);
        cell.spec = spec;
        cell.aging = {2000, months};
        cell.requests = 800;
        cells.push_back(cell);
    };
    add(workload::mail(), 1.0);
    add(workload::rocks(), 1.0);
    add(workload::oltp(), 1.0);
    add(workload::mail(), 6.0);
    add(workload::rocks(), 6.0);
    return cells;
}

TEST(SweepSharedPrefill, EveryCellMatchesItsSoloRun)
{
    const auto cells = sharedPrefillGrid();
    std::vector<std::string> solo;
    for (const auto &cell : cells)
        solo.push_back(fingerprint(workload::runCells({cell}, 1).at(0)));
    for (const unsigned jobs : {1u, 2u, 4u, 16u}) {
        const auto results = workload::runCells(cells, jobs);
        ASSERT_EQ(results.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(fingerprint(results[i]), solo[i])
                << "cell " << i << " diverged under --jobs " << jobs;
    }
}

TEST(SweepRunner, SharedSetupBuildsOnceAndStaysWithinBudget)
{
    const std::vector<std::vector<std::size_t>> groups = {
        {0, 3, 5}, {1}, {2, 4, 6, 7}, {8, 9}};
    for (const unsigned jobs : {1u, 2u, 4u}) {
        std::vector<std::atomic<int>> builds(groups.size());
        std::vector<std::atomic<int>> copiesDone(groups.size());
        std::vector<std::atomic<int>> takes(groups.size());
        std::vector<std::atomic<int>> ran(10);
        std::atomic<int> live{0};
        std::atomic<int> peak{0};
        auto groupOf = [&](std::size_t i) {
            for (std::size_t g = 0; g < groups.size(); ++g)
                if (std::count(groups[g].begin(), groups[g].end(), i))
                    return g;
            return groups.size();
        };
        auto grow = [&] {
            const int now = live.fetch_add(1) + 1;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
        };

        sim::SharedSetup setup;
        setup.groups = groups;
        setup.build = [&](std::size_t g) {
            builds[g].fetch_add(1);
            grow();
        };
        setup.fork = [&](std::size_t i, bool take) {
            const std::size_t g = groupOf(i);
            if (take) {
                // Every other member's copy has finished by now.
                EXPECT_EQ(copiesDone[g].load(),
                          static_cast<int>(groups[g].size()) - 1);
                takes[g].fetch_add(1);
                return;
            }
            grow();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            copiesDone[g].fetch_add(1);
        };
        sim::SweepRunner runner(jobs);
        runner.run(
            ran.size(),
            [&](std::size_t i) {
                ran[i].fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                live.fetch_sub(1);
            },
            nullptr, &setup);

        for (std::size_t g = 0; g < groups.size(); ++g) {
            EXPECT_EQ(builds[g].load(), 1) << "group " << g;
            EXPECT_EQ(takes[g].load(), 1) << "group " << g;
        }
        for (std::size_t i = 0; i < ran.size(); ++i)
            EXPECT_EQ(ran[i].load(), 1) << "job " << i;
        EXPECT_LE(peak.load(), static_cast<int>(runner.budget()))
            << "jobs=" << jobs;
        EXPECT_EQ(live.load(), 0);
    }
}

TEST(SweepRunner, BuiltBaseForksWhileAnotherWorkerRuns)
{
    // Two workers: one builds group 0's base while the other runs the
    // one-job group {2}. Once the base is built, a member of group 0
    // must start while job 2 is still running: the base and job 2 hold
    // two live states, and the budget keeps a third for the copy.
    std::mutex mutex;
    std::condition_variable changed;
    bool soloStarted = false;
    bool memberStarted = false;
    bool buildSawSolo = false;
    bool soloSawMember = false;
    const auto timeout = std::chrono::seconds(2);

    sim::SharedSetup setup;
    setup.groups = {{0, 1}, {2}};
    setup.build = [&](std::size_t g) {
        if (g != 0)
            return;
        std::unique_lock lock(mutex);
        buildSawSolo =
            changed.wait_for(lock, timeout, [&] { return soloStarted; });
    };
    setup.fork = [](std::size_t, bool) {};
    sim::SweepRunner runner(2);
    runner.run(
        3,
        [&](std::size_t i) {
            std::unique_lock lock(mutex);
            if (i != 2) {
                memberStarted = true;
                changed.notify_all();
                return;
            }
            soloStarted = true;
            changed.notify_all();
            soloSawMember = changed.wait_for(
                lock, timeout, [&] { return memberStarted; });
        },
        nullptr, &setup);

    EXPECT_TRUE(buildSawSolo);
    EXPECT_TRUE(soloSawMember)
        << "the built base waited for job 2 to finish";
}

TEST(SweepRunner, FailedBuildFailsItsWholeGroup)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<std::atomic<int>> ran(3);
        sim::SharedSetup setup;
        setup.groups = {{1}, {0, 2}};
        setup.build = [](std::size_t g) {
            if (g == 1)
                throw std::runtime_error("no base");
        };
        setup.fork = [](std::size_t, bool) {};
        sim::SweepRunner runner(jobs);
        try {
            runner.run(
                ran.size(), [&](std::size_t i) { ran[i].fetch_add(1); },
                nullptr, &setup);
            FAIL() << "expected SweepError";
        } catch (const sim::SweepError &e) {
            EXPECT_EQ(e.job(), 0u);
            EXPECT_NE(std::string(e.what()).find("no base"),
                      std::string::npos);
        }
        EXPECT_EQ(ran[0].load(), 0) << "jobs=" << jobs;
        EXPECT_EQ(ran[1].load(), 1) << "jobs=" << jobs;
        EXPECT_EQ(ran[2].load(), 0) << "jobs=" << jobs;
    }
}

std::string
metricsJson(const metrics::RequestMetrics &m)
{
    std::ostringstream out;
    metrics::JsonWriter w(out);
    metrics::writeRequestMetrics(w, m);
    return out.str();
}

TEST(SweepMerge, RequestMetricsMergeIsOrderIndependent)
{
    const auto &results = sequentialResults();
    metrics::RequestMetrics forward;
    for (std::size_t i = 0; i < results.size(); ++i)
        forward.merge(results[i].run.requestMetrics);
    metrics::RequestMetrics reverse;
    for (std::size_t i = results.size(); i-- > 0;)
        reverse.merge(results[i].run.requestMetrics);
    EXPECT_EQ(metricsJson(forward), metricsJson(reverse));
}

TEST(SweepMerge, HistogramMergeIsOrderIndependent)
{
    metrics::LatencyHistogram a, b;
    for (std::uint64_t v = 1; v < 2000; v += 7)
        a.add(v * 13);
    for (std::uint64_t v = 1; v < 1500; v += 3)
        b.add(v * 101);

    metrics::LatencyHistogram ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.total(), ba.total());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());
    for (std::size_t bucket = 0;
         bucket < metrics::LatencyHistogram::kBuckets; ++bucket)
        ASSERT_EQ(ab.count(bucket), ba.count(bucket));
}

TEST(SweepRunner, PropagatesLowestIndexFailure)
{
    sim::SweepRunner runner(3);
    try {
        runner.run(8, [](std::size_t i) {
            if (i == 2 || i == 5)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "expected SweepError";
    } catch (const sim::SweepError &e) {
        EXPECT_EQ(e.job(), 2u);
        EXPECT_NE(std::string(e.what()).find("boom 2"),
                  std::string::npos);
    }
}

TEST(SweepRunner, SurvivingJobsStillRunAfterAFailure)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::atomic<int> ran{0};
        sim::SweepRunner runner(jobs);
        EXPECT_THROW(runner.run(10,
                                [&](std::size_t i) {
                                    ran.fetch_add(1);
                                    if (i == 0)
                                        throw std::runtime_error("x");
                                }),
                     sim::SweepError);
        EXPECT_EQ(ran.load(), 10) << "jobs=" << jobs;
    }
}

TEST(SweepRunner, EachJobRunsExactlyOnce)
{
    std::vector<std::atomic<int>> hits(64);
    sim::SweepRunner runner(4);
    runner.run(hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(SweepCells, WorkerErrorNamesTheFailingCell)
{
    // An unwritable trace file is the one runtime error a valid cell
    // can hit; pin the trace to cell 1 and expect the error to carry
    // that cell's configuration, not just an index.
    auto cells = smallGrid(/*requests=*/200);
    cells.resize(2);
    workload::SweepTrace trace;
    trace.out = "/nonexistent-dir/never-created/trace.json";
    trace.cell = 1;
    try {
        workload::runCells(cells, 2, trace);
        FAIL() << "expected SweepError";
    } catch (const sim::SweepError &e) {
        EXPECT_EQ(e.job(), 1u);
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 1"), std::string::npos) << what;
        EXPECT_NE(what.find("workload=OLTP"), std::string::npos) << what;
        EXPECT_NE(what.find("seed=137"), std::string::npos) << what;
        EXPECT_NE(what.find("cannot open trace file"),
                  std::string::npos)
            << what;
    }
}

TEST(ResolveJobs, CliWinsThenEnvThenOne)
{
    constexpr const char *kVar = "CUBESSD_JOBS_TEST_ONLY";
    ::unsetenv(kVar);
    EXPECT_EQ(sim::resolveJobs(3, kVar), 3u);
    EXPECT_EQ(sim::resolveJobs(0, kVar), 1u);
    ::setenv(kVar, "5", 1);
    EXPECT_EQ(sim::resolveJobs(0, kVar), 5u);
    EXPECT_EQ(sim::resolveJobs(2, kVar), 2u);
    ::setenv(kVar, "bogus", 1);
    EXPECT_EQ(sim::resolveJobs(0, kVar), 1u);
    ::setenv(kVar, "-4", 1);
    EXPECT_EQ(sim::resolveJobs(0, kVar), 1u);
    // Only a whole-string positive integer that fits unsigned counts.
    for (const char *bad : {"4x", "99999999999", "", "0", " 4", "+4"}) {
        ::setenv(kVar, bad, 1);
        EXPECT_EQ(sim::resolveJobs(0, kVar), 1u) << "'" << bad << "'";
    }
    ::setenv(kVar, "4294967295", 1);
    EXPECT_EQ(sim::resolveJobs(0, kVar), 4294967295u);
    ::unsetenv(kVar);
}

}  // namespace
}  // namespace cubessd
