#include "src/workload/sweep.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "src/common/logging.h"
#include "src/ftl/ftl_base.h"
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
 * Run one cell start to finish: prefill, optional trace attach,
 * measured run, stat capture, trace write. Mirrors the procedure the
 * benches always used (bench_util.h runWorkload), so a 1-cell sweep
 * is bit-identical to the historical sequential path.
 */
CellResult
runOneCell(const SweepCell &cell, bool traceThisCell,
           const SweepTrace &trace)
{
    // Snapshot-delta so a worker thread that runs several cells
    // attributes each cell only its own scope hits.
    const prof::ProfileData profBefore =
        prof::enabled() ? prof::snapshot() : prof::ProfileData{};

    ssd::Ssd dev(cell.config);
    WorkloadGenerator gen(cell.spec, dev.logicalPages(),
                          cell.config.seed + 7);
    Driver driver(dev, gen);
    dev.setAging({cell.aging.peCycles, 0.0});
    driver.prefill(cell.prefillOverwrite);
    dev.setAging(cell.aging);

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

    // Exactly-one-tracer rule: the designated cell claims the trace
    // via an atomic flag, so no two cells can ever race on the trace
    // file — even if a caller ever designates duplicate indices.
    std::atomic<bool> traceClaimed{false};
    const bool wantTrace = !trace.out.empty();

    sim::SweepRunner runner(jobs);
    runner.run(
        cells.size(),
        [&](std::size_t i) {
            const bool traceThisCell =
                wantTrace && i == trace.cell &&
                !traceClaimed.exchange(true, std::memory_order_acq_rel);
            try {
                results[i] = runOneCell(cells[i], traceThisCell, trace);
            } catch (const std::exception &e) {
                throw sim::SweepError(i, cells[i].describe(i) + ": " +
                                             e.what());
            }
        },
        telemetry);

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
