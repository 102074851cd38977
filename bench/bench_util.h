/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * Every bench prints the series the paper reports plus our measured
 * values; EXPERIMENTS.md quotes these outputs. By default benches run
 * on a scaled device (128 blocks per chip, ~9 GB) so the whole suite
 * finishes in minutes; set CUBESSD_FULL=1 in the environment for the
 * paper's full 428-blocks-per-chip (~32 GB) configuration, or
 * CUBESSD_SMOKE=1 for a further-reduced CI smoke run (fewer requests
 * and seeds; the numbers are not publication-grade, only the plumbing
 * is exercised).
 *
 * The figure benches additionally write their series to a silent
 * BENCH_<figure>.json sidecar in the working directory, so CI can
 * archive machine-readable results without perturbing the quoted
 * stdout. Sidecars are written once, from the main thread, after the
 * deterministic merge — never from sweep workers.
 *
 * The system-level sweeps (fig17, fig18, ablation_techniques,
 * ext_ps_aware_ecc) accept `--jobs <n>` (or CUBESSD_JOBS=<n>) to farm
 * independent cells onto worker threads; stdout and sidecars are
 * bit-identical for any job count.
 */

#ifndef CUBESSD_BENCH_BENCH_UTIL_H
#define CUBESSD_BENCH_BENCH_UTIL_H

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "src/cubessd.h"
#include "src/sim/sweep.h"
#include "src/workload/sweep.h"

namespace cubessd::bench {

/**
 * Optional tracing for the system-level benches. Parsed from argv
 * (`--trace-out <file> [--sample-interval-us <n>]`) by the benches'
 * main(); when set, the FIRST evaluation cell is recorded into a
 * Chrome trace file. Only that one cell is traced: the benches repeat
 * runs across seeds/FTLs and one representative timeline is what a
 * reader wants to open in Perfetto — and under `--jobs N` two cells
 * must never race on the same trace file (workload::runCells traces
 * only the cell its SweepTrace names, and sim::SweepRunner runs each
 * cell once). The quoted stdout and the JSON sidecars are unaffected
 * either way.
 *
 * These options are written once by main() before any worker thread
 * exists and are read-only afterwards; keep it that way.
 */
struct TraceOptions
{
    std::string out;
    std::uint64_t sampleIntervalUs = 1000;
};

inline TraceOptions &
traceOptions()
{
    static TraceOptions options;
    return options;
}

/** `--jobs N` from the command line (0 = not given). Set once by
 *  main() before any sweep starts. */
inline unsigned &
cliJobs()
{
    static unsigned jobs = 0;
    return jobs;
}

/** Sweep worker threads: `--jobs N` wins, else CUBESSD_JOBS, else 1.
 *  Output is bit-identical whatever the value (deterministic merge). */
inline unsigned
jobs()
{
    return sim::resolveJobs(cliJobs(), "CUBESSD_JOBS");
}

/**
 * A bench's main(): parse the options, then run `body`. A negative,
 * non-numeric, trailing-junk or out-of-range number exits 2 naming the
 * option, before any simulation starts. A failing sweep cell surfaces
 * as an exception, annotated with its configuration, after the other
 * cells finish: it exits 1, and no sidecar is written.
 */
template <typename Body>
int
runMain(const char *bench, int argc, char **argv, Body &&body)
{
    auto &options = traceOptions();
    for (int i = 1; i < argc; ++i) {
        const char *option = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", option);
            return argv[++i];
        };
        // Into an unsigned `out`, whose type bounds the value, as
        // does `max`.
        const auto count = [&](auto &out,
                               std::uint64_t max = ~std::uint64_t{0}) {
            const char *text = value();
            const char *end = text + std::strlen(text);
            const auto [ptr, ec] = std::from_chars(text, end, out);
            if (ec == std::errc{} && ptr == end && out <= max)
                return;
            std::cerr << bench << ": invalid value '" << text << "' for "
                      << option << " (expected a non-negative integer)\n";
            std::exit(2);
        };
        if (std::strcmp(option, "--trace-out") == 0)
            options.out = value();
        else if (std::strcmp(option, "--sample-interval-us") == 0)
            // Sampled every sampleIntervalUs * 1000 ns, in 64 bits.
            count(options.sampleIntervalUs, ~std::uint64_t{0} / 1000);
        else if (std::strcmp(option, "--jobs") == 0)
            count(cliJobs());
        else
            fatal("unknown option '%s' (benches accept --trace-out "
                  "<file>, --sample-interval-us <n>, and --jobs <n>)",
                  option);
    }
    try {
        return body();
    } catch (const std::exception &e) {
        std::cerr << bench << ": " << e.what() << '\n';
        return 1;
    }
}

inline bool
fullScale()
{
    const char *env = std::getenv("CUBESSD_FULL");
    return env != nullptr && env[0] == '1';
}

inline bool
smokeScale()
{
    const char *env = std::getenv("CUBESSD_SMOKE");
    return env != nullptr && env[0] == '1';
}

/** Number of measured requests: the bench's full count, cut 10x for
 *  CI smoke runs. */
inline std::uint64_t
benchRequests(std::uint64_t full)
{
    return smokeScale() ? full / 10 : full;
}

/** Human tag for the active scale, recorded in the JSON sidecars. */
inline const char *
scaleName()
{
    if (smokeScale())
        return "smoke";
    return fullScale() ? "full" : "scaled";
}

/** Open the silent machine-readable sidecar for a figure bench. */
inline std::ofstream
openBenchJson(const std::string &figure)
{
    return std::ofstream("BENCH_" + figure + ".json");
}

/** Device configuration used by the system-level benches (Sec. 6.1). */
inline ssd::SsdConfig
ssdConfig(ssd::FtlKind kind, std::uint64_t seed = 42)
{
    ssd::SsdConfig config;
    config.channels = 2;
    config.chipsPerChannel = 4;
    config.chip.geometry.blocksPerChip = fullScale() ? 428 : 128;
    config.ftl = kind;
    config.seed = seed;
    return config;
}

/** Chip configuration used by the characterization benches (Sec. 3). */
inline nand::NandChipConfig
chipConfig(std::uint64_t seed = 1)
{
    nand::NandChipConfig config;
    config.geometry.blocksPerChip = fullScale() ? 128 : 32;
    config.seed = seed;
    return config;
}

/**
 * One cell of an evaluation sweep: pre-cycle, prefill, bake, measure —
 * the paper's experimental procedure (Sec. 6.1: the rig pre-cycles
 * blocks, writes, then bakes for the retention time). Executed by
 * workload::runCells.
 */
inline workload::SweepCell
makeCell(ssd::FtlKind kind, const workload::WorkloadSpec &spec,
         const nand::AgingState &aging, std::uint64_t seed,
         std::uint64_t requests)
{
    workload::SweepCell cell;
    cell.config = ssdConfig(kind, seed);
    cell.spec = spec;
    cell.aging = aging;
    cell.requests = requests;
    return cell;
}

/**
 * Run a bench's whole cell grid across jobs() worker threads; results
 * come back in cell order, so callers aggregate and print exactly as
 * the old sequential loops did — stdout and sidecars are bit-identical
 * whatever the job count. Cell 0 is the traced cell when --trace-out
 * is set (the same cell the sequential benches always traced).
 */
inline std::vector<workload::CellResult>
runSweep(const std::vector<workload::SweepCell> &cells)
{
    workload::SweepTrace trace;
    trace.out = traceOptions().out;
    trace.sampleIntervalUs = traceOptions().sampleIntervalUs;
    trace.cell = 0;
    return workload::runCells(cells, jobs(), trace);
}

/** Evaluation seeds (burst pacing is stochastic, so IOPS figures are
 *  means over these); smoke runs keep only the first two. */
inline std::vector<std::uint64_t>
benchSeeds()
{
    const std::vector<std::uint64_t> seeds = {42, 137, 999, 7, 2026};
    if (smokeScale())
        return {seeds.begin(), seeds.begin() + 2};
    return seeds;
}

inline const char *
agingName(const nand::AgingState &aging)
{
    if (aging.peCycles == 0)
        return "fresh (0K P/E, no retention)";
    if (aging.retentionMonths <= 1.0)
        return "2K P/E + 1-month retention";
    return "2K P/E + 1-year retention";
}

}  // namespace cubessd::bench

#endif  // CUBESSD_BENCH_BENCH_UTIL_H
