/**
 * @file
 * Cell-level sweep driver: run a grid of independent simulation cells
 * — each an (SsdConfig incl. FTL + seed, workload, aging, request
 * count) tuple — across a sim::SweepRunner worker pool and hand the
 * per-cell results back IN CELL ORDER.
 *
 * Cells whose prefill inputs are equal (SsdConfig, pre-cycle P/E
 * count, working-set size, prefillOverwrite) share one prefilled
 * device: it is built once, and every cell of the group runs on a
 * fork of it (Ssd's copy constructor) — the last to start on the
 * device itself. At most jobs + 1 devices are alive at once.
 *
 * Determinism contract (the reason `--jobs N` output is bit-identical
 * to `--jobs 1`):
 *
 *  1. Every cell runs its own Ssd, WorkloadGenerator, and Driver from
 *     its own seed; a fork is indistinguishable from the device it
 *     copies, and a shared base is only read while it is copied, so
 *     no cell sees another cell's work.
 *  2. Results land in a slot indexed by the cell's grid position, not
 *     by completion order.
 *  3. All merging/aggregation (histogram merges, IOPS means, JSON
 *     sidecars) happens on the calling thread after runCells returns,
 *     walking the slots in cell order.
 *
 * Error handling: cell configurations are validated on the calling
 * thread BEFORE any worker spawns (the only place fatal() is
 * appropriate); an error inside a running cell (e.g. an unwritable
 * trace file) is caught, annotated with the cell's configuration, and
 * rethrown on the calling thread as sim::SweepError after all other
 * cells finish — a worker never calls exit() and never truncates
 * another cell's output. A failed prefill fails every cell of its
 * group, annotated with the group's first cell.
 *
 * Tracing: at most ONE cell of a sweep records a trace (a sweep
 * produces one representative timeline, and two cells must never race
 * on the same trace file). SweepTrace names that one cell by index,
 * and sim::SweepRunner runs each index exactly once.
 */

#ifndef CUBESSD_WORKLOAD_SWEEP_H
#define CUBESSD_WORKLOAD_SWEEP_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/ftl/ftl_stats.h"
#include "src/nand/error_model.h"
#include "src/prof/prof.h"
#include "src/sim/sweep.h"
#include "src/ssd/config.h"
#include "src/trace/counters.h"
#include "src/trace/trace.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace cubessd::workload {

/**
 * Tracing and counter sampling of one measured window: the one way
 * every run path (cubessd_sim's modes, a sweep's traced cell) sets
 * them up. Attach it after the prefill so the ring buffer and the
 * counter series cover the measured run, not the bulk setup writes.
 * Observation only: results are identical with it on or off.
 */
struct RunTrace
{
    /** Trace into `path` (empty = no trace) through a ring of
     *  `bufferEvents`; sample the device counters (plus the profiler
     *  gauges when profiling is on) every `sampleIntervalUs` simulated
     *  microseconds (0 = no counters). */
    RunTrace(ssd::Ssd &dev, std::string path, std::size_t bufferEvents,
             std::uint64_t sampleIntervalUs);

    /**
     * Write the trace file (no-op without one) and report it on `log`.
     * @throws std::runtime_error if the file cannot be opened.
     */
    void write(std::ostream &log) const;

    std::string out;
    std::unique_ptr<trace::TraceSession> session;  ///< null: no trace
    std::unique_ptr<trace::CounterRegistry> counters;  ///< null: none
};

/** One independent simulation cell of a sweep grid. */
struct SweepCell
{
    /** Device configuration; `config.ftl` and `config.seed` select
     *  the cell's FTL and RNG streams. */
    ssd::SsdConfig config;
    WorkloadSpec spec;
    nand::AgingState aging{};
    /** Measured requests after prefill. */
    std::uint64_t requests = 0;
    /** Random-overwrite fraction of the prefill (Driver::prefill). */
    double prefillOverwrite = 0.2;

    /** "cell N (ftl=cube, workload=OLTP, pe=2000, ...)" for errors. */
    std::string describe(std::size_t index) const;
};

/** Everything one cell produced, captured before its Ssd dies. */
struct CellResult
{
    RunResult run;
    ftl::FtlStats ftl;
    ftl::GcStats gc;
    /** High-water mark of the write buffer, in pages. */
    std::uint64_t bufferPeakPages = 0;
    bool readOnly = false;
    /** Self-profile delta of this cell's run, captured on the worker
     *  that executed it (empty unless prof::enabled()); the first cell
     *  of a prefill group also carries the group's prefill. Counts are
     *  deterministic; tick times are wall-clock noise. */
    prof::ProfileData profile;
};

/** Optional tracing of exactly one cell of a sweep. */
struct SweepTrace
{
    std::string out;                    ///< empty = no tracing
    std::uint64_t sampleIntervalUs = 1000;  ///< 0 = no counter samples
    std::size_t cell = 0;               ///< which cell records
    /** Trace ring capacity in events. */
    std::size_t bufferEvents = trace::TraceConfig{}.capacityEvents;
};

/**
 * Run every cell (prefill, shared within a prefill group, + measured
 * run), farming cells onto `jobs` worker threads (1 = inline on the
 * calling thread), and return the results in cell order. See the file comment for the determinism and
 * error contracts. `telemetry`, if given, receives the worker-pool
 * load breakdown of this sweep (sim::SweepRunner::run).
 */
std::vector<CellResult>
runCells(const std::vector<SweepCell> &cells, unsigned jobs,
         const SweepTrace &trace = {},
         sim::SweepTelemetry *telemetry = nullptr);

/** Merge every cell's profile in cell order (deterministic counts). */
prof::ProfileData
mergeCellProfiles(const std::vector<CellResult> &results);

}  // namespace cubessd::workload

#endif  // CUBESSD_WORKLOAD_SWEEP_H
