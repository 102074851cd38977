#include "src/workload/sweep.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <optional>
#include <stdexcept>

#include "src/common/logging.h"
#include "src/ftl/ftl.h"
#include "src/sim/sweep.h"
#include "src/ssd/ssd.h"

namespace cubessd::workload {

RunTrace::RunTrace(ssd::Ssd &dev, std::string path,
                   std::size_t bufferEvents, std::uint64_t sampleIntervalUs)
    : out(std::move(path))
{
    if (!out.empty()) {
        trace::TraceConfig config;
        config.capacityEvents = bufferEvents;
        session = std::make_unique<trace::TraceSession>(config);
        dev.attachTrace(session.get());
    }
    if (sampleIntervalUs > 0) {
        counters = std::make_unique<trace::CounterRegistry>();
        dev.registerCounters(*counters);
        if (prof::enabled())
            prof::registerCounters(*counters);
        counters->attachTrace(session.get());
        counters->installSampler(dev.queue(), sampleIntervalUs * 1000);
    }
}

void
RunTrace::write(std::ostream &log) const
{
    if (!session)
        return;
    std::ofstream file(out);
    if (!file)
        throw std::runtime_error("cannot open trace file '" + out + "'");
    session->writeJson(file);
    log << "trace written to " << out << " (" << session->recorded()
        << " events recorded, " << session->dropped() << " dropped)\n";
}

std::string
SweepCell::describe(std::size_t index) const
{
    char retention[32];
    std::snprintf(retention, sizeof(retention), "%g",
                  aging.retentionMonths);
    return "cell " + std::to_string(index) + " (ftl=" +
           ssd::ftlKindName(config.ftl) + ", workload=" + spec.name +
           ", pe=" + std::to_string(aging.peCycles) + ", retention=" +
           retention + ", seed=" + std::to_string(config.seed) + ")";
}

namespace {

/**
 * Do two cells feed their prefill the same inputs? Everything the
 * prefill reads before the bake: the device configuration (which
 * includes the seed of the overwrite stream), the pre-cycle P/E
 * count, the overwrite range (the workload's working set) and the
 * overwrite fraction.
 */
bool
samePrefill(const SweepCell &a, const SweepCell &b)
{
    const std::uint64_t pages = a.config.logicalPages();
    return a.config == b.config && a.aging.peCycles == b.aging.peCycles &&
           a.prefillOverwrite == b.prefillOverwrite &&
           WorkloadGenerator::workingSetPages(a.spec, pages) ==
               WorkloadGenerator::workingSetPages(b.spec, pages);
}

/** Cells grouped by prefill input, groups in order of first cell. */
std::vector<std::vector<std::size_t>>
groupByPrefill(const std::vector<SweepCell> &cells)
{
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto same = std::find_if(groups.begin(), groups.end(),
                                 [&](const auto &g) {
                                     return samePrefill(cells[g.front()],
                                                        cells[i]);
                                 });
        if (same == groups.end())
            groups.push_back({i});
        else
            same->push_back(i);
    }
    return groups;
}

/** The Sec. 6.1 procedure up to the bake: construct the device,
 *  pre-cycle it and prefill it. Every cell of `cell`'s prefill group
 *  starts from this state. */
std::unique_ptr<ssd::Ssd>
prefilledDevice(const SweepCell &cell)
{
    auto dev = std::make_unique<ssd::Ssd>(cell.config);
    dev->setAging({cell.aging.peCycles, 0.0});
    prefillDevice(*dev,
                  {{0, WorkloadGenerator::workingSetPages(
                           cell.spec, dev->logicalPages())}},
                  cell.prefillOverwrite);
    return dev;
}

/**
 * Finish one cell on its prefilled device: bake, optional trace
 * attach, measured run, stat capture, trace write. Together with
 * prefilledDevice() this is the whole Sec. 6.1 procedure, the same as
 * a standalone Driver run (construct, pre-cycle, Driver::prefill,
 * bake, Driver::run), so a 1-cell sweep is bit-identical to it.
 */
CellResult
runOneCell(const SweepCell &cell, std::unique_ptr<ssd::Ssd> device,
           bool traceThisCell, const SweepTrace &trace)
{
    // Snapshot-delta so a worker thread that runs several cells
    // attributes each cell only its own scope hits.
    const prof::ProfileData profBefore =
        prof::enabled() ? prof::snapshot() : prof::ProfileData{};

    ssd::Ssd &dev = *device;
    dev.setAging(cell.aging);
    WorkloadGenerator gen(cell.spec, dev.logicalPages(),
                          cell.config.seed + 7);
    Driver driver(dev, gen);

    std::optional<RunTrace> runTrace;
    if (traceThisCell)
        runTrace.emplace(dev, trace.out, trace.bufferEvents,
                         trace.sampleIntervalUs);

    CellResult result;
    result.run = driver.run(cell.requests);
    result.ftl = dev.ftl().stats();
    result.gc = dev.ftl().gcStats();
    result.bufferPeakPages = dev.ftl().buffer().peakSize();
    result.readOnly = dev.ftl().readOnly();
    if (prof::enabled())
        result.profile = prof::snapshot().since(profBefore);
    if (runTrace)
        runTrace->write(std::cerr);
    return result;
}

/**
 * Return the pages of freed devices to the OS. Each worker allocates
 * from its own malloc arena, and a base built on one worker is freed
 * on another, so without this every arena keeps its own high-water
 * mark resident and a pooled sweep holds more devices' worth of memory
 * than are ever alive at once (about twice the budget). A sequential
 * sweep allocates from one arena and needs no trimming.
 */
void
releaseFreedMemory()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/** Run `fn`, rethrowing any error as a SweepError naming cell `i`. */
template <typename Fn>
void
annotated(const std::vector<SweepCell> &cells, std::size_t i, Fn &&fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        throw sim::SweepError(i, cells[i].describe(i) + ": " + e.what());
    }
}

}  // namespace

std::vector<CellResult>
runCells(const std::vector<SweepCell> &cells, unsigned jobs,
         const SweepTrace &trace, sim::SweepTelemetry *telemetry)
{
    // Pre-spawn validation on the calling thread: configuration
    // errors are user errors and may fatal(); once workers are
    // running, errors must propagate instead (a worker exit() would
    // strand the other cells and truncate half-written output).
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (const std::string err = cells[i].config.validate();
            !err.empty()) {
            fatal("invalid sweep %s: %s",
                  cells[i].describe(i).c_str(), err.c_str());
        }
        if (cells[i].requests == 0)
            fatal("invalid sweep %s: requests must be > 0",
                  cells[i].describe(i).c_str());
    }

    std::vector<CellResult> results(cells.size());

    // One prefilled base per prefill group; each cell forks it (the
    // group's last cell to start takes it) into devices[i] just
    // before it runs. A group's build profile goes to its first cell.
    sim::SharedSetup setup;
    setup.groups = groupByPrefill(cells);
    std::vector<std::size_t> groupOf(cells.size());
    for (std::size_t g = 0; g < setup.groups.size(); ++g)
        for (const std::size_t i : setup.groups[g])
            groupOf[i] = g;
    std::vector<std::unique_ptr<ssd::Ssd>> bases(setup.groups.size());
    std::vector<prof::ProfileData> buildProfiles(setup.groups.size());
    std::vector<std::unique_ptr<ssd::Ssd>> devices(cells.size());

    setup.build = [&](std::size_t g) {
        const std::size_t first = setup.groups[g].front();
        annotated(cells, first, [&] {
            const prof::ProfileData before =
                prof::enabled() ? prof::snapshot() : prof::ProfileData{};
            bases[g] = prefilledDevice(cells[first]);
            if (prof::enabled())
                buildProfiles[g] = prof::snapshot().since(before);
        });
    };
    setup.fork = [&](std::size_t i, bool take) {
        annotated(cells, i, [&] {
            std::unique_ptr<ssd::Ssd> &base = bases[groupOf[i]];
            devices[i] = take ? std::move(base)
                              : std::make_unique<ssd::Ssd>(*base);
        });
    };

    // Exactly-one-tracer rule: SweepRunner runs each index exactly
    // once, so only cell `trace.cell` ever writes the trace file.
    const bool wantTrace = !trace.out.empty();

    sim::SweepRunner runner(jobs);
    runner.run(
        cells.size(),
        [&](std::size_t i) {
            const bool traceThisCell = wantTrace && i == trace.cell;
            annotated(cells, i, [&] {
                results[i] = runOneCell(cells[i], std::move(devices[i]),
                                        traceThisCell, trace);
            });
            if (jobs > 1)
                releaseFreedMemory();
        },
        telemetry, &setup);

    for (std::size_t g = 0; g < setup.groups.size(); ++g)
        results[setup.groups[g].front()].profile.merge(buildProfiles[g]);
    return results;
}

prof::ProfileData
mergeCellProfiles(const std::vector<CellResult> &results)
{
    prof::ProfileData merged;
    for (const CellResult &r : results)
        merged.merge(r.profile);
    return merged;
}

}  // namespace cubessd::workload
