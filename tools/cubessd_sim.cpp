/**
 * @file
 * cubessd_sim: command-line SSD simulation driver.
 *
 * The tool a downstream user reaches for first: pick an FTL, a
 * workload, an aging state, and a device size; get IOPS, latency
 * percentiles, and the FTL statistics.
 *
 *   cubessd_sim --ftl cube --workload oltp --pe 2000 --retention 12
 *   cubessd_sim --ftl page --workload web --blocks 428 --requests 50000
 *   cubessd_sim --help
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/cubessd.h"
#include "src/ftl/ftl.h"
#include "src/prof/prof.h"
#include "src/sim/sweep.h"
#include "src/workload/sweep.h"

using namespace cubessd;

namespace {

struct Options
{
    std::string ftl = "cube";
    std::string workload = "oltp";
    PeCycles pe = 0;
    double retentionMonths = 0.0;
    std::uint32_t blocks = 128;
    std::uint64_t requests = 30000;
    std::uint64_t seed = 42;
    std::uint64_t seedCount = 1;
    unsigned jobs = 0;
    double prefillOverwrite = 0.2;
    std::uint32_t qd = 0;
    /** Multi-tenant mode: engaged when at least one tenant is given. */
    std::vector<workload::TenantSpec> tenants;
    bool openLoop = false;
    double load = 0.0;
    std::uint32_t arbBurst = 4;
    bool verbose = false;
    std::string metricsOut;
    std::string traceOut;
    std::size_t traceBuffer = std::size_t{1} << 18;
    std::optional<std::uint64_t> sampleIntervalUs;
    bool listCounters = false;
    bool profile = false;
    std::string profileOut;
    nand::FaultParams faults{};
};

void
usage()
{
    std::cout <<
        "cubessd_sim - PS-aware 3D NAND SSD simulator (MICRO-52 "
        "reproduction)\n\n"
        "options:\n"
        "  --ftl <page|vert|cube|cube->   FTL to drive (default cube)\n"
        "  --workload <mail|web|proxy|oltp|rocks|mongo>\n"
        "                                 workload (default oltp)\n"
        "  --pe <cycles>                  injected P/E wear (default 0)\n"
        "  --retention <months>           injected retention (default 0)\n"
        "  --blocks <n>                   blocks per chip (default 128;\n"
        "                                 the paper's device uses 428)\n"
        "  --requests <n>                 measured requests (default 30000)\n"
        "  --seed <n>                     simulation seed (default 42)\n"
        "  --seeds <n>                    run n independent seeds\n"
        "                                 (seed..seed+n-1) and report the\n"
        "                                 merged result: mean IOPS, merged\n"
        "                                 latency percentiles, summed FTL\n"
        "                                 counters (default 1)\n"
        "  --jobs <n>                     worker threads for a --seeds\n"
        "                                 sweep (default 1, or the\n"
        "                                 CUBESSD_JOBS environment\n"
        "                                 variable); results are merged\n"
        "                                 deterministically in seed order,\n"
        "                                 so output is bit-identical for\n"
        "                                 any job count\n"
        "  --prefill-overwrite <frac>     random-overwrite fraction of the\n"
        "                                 working set before measuring\n"
        "                                 (default 0.2)\n"
        "  --qd <n>                       closed-loop host queue depth:\n"
        "                                 keep n requests in flight through\n"
        "                                 the bounded host queue (default:\n"
        "                                 the workload's native pacing)\n"
        "  --tenants <list>               multi-tenant mode: comma-\n"
        "                                 separated tenant specs, each\n"
        "                                 <name>:<workload>[:<key>=<val>]*\n"
        "                                 with keys w= (WRR weight), slo=\n"
        "                                 (latency target, e.g. 500us/2ms),\n"
        "                                 rate= (open-loop arrivals/s),\n"
        "                                 arrival= (poisson|bursty), burst=\n"
        "                                 (mean batch of bursty arrivals),\n"
        "                                 ns= (namespace fraction), trace=\n"
        "                                 (request-content trace file);\n"
        "                                 e.g. \"A:readhot:w=3:slo=500us,\n"
        "                                 B:writeheavy:w=1:slo=2ms\"\n"
        "  --tenant <spec>                add one tenant (repeatable;\n"
        "                                 same grammar as --tenants)\n"
        "  --open-loop                    pace tenants by independent\n"
        "                                 arrival processes instead of\n"
        "                                 fixed in-flight counts; demand\n"
        "                                 does not slow down when the\n"
        "                                 device falls behind, exposing\n"
        "                                 SLO violations\n"
        "  --load <frac>                  open-loop offered load as a\n"
        "                                 fraction of the calibrated\n"
        "                                 closed-loop capacity, split\n"
        "                                 across rate-less tenants by\n"
        "                                 weight (e.g. 0.8)\n"
        "  --arb-burst <n>                WRR arbitration burst:\n"
        "                                 consecutive commands per weight\n"
        "                                 unit per round-robin visit\n"
        "                                 (default 4); --qd sets the\n"
        "                                 shared in-flight window\n"
        "                                 (default 64)\n"
        "  --metrics-out <file>           write the full run metrics as\n"
        "                                 JSON: per-IoType latency\n"
        "                                 percentiles (p50/p95/p99/p99.9),\n"
        "                                 phase decomposition, channel and\n"
        "                                 die utilization, FTL/GC stats,\n"
        "                                 per-Status completion counts and\n"
        "                                 failure-domain counters\n"
        "  --fault-program <p>            per-WL program-failure base\n"
        "                                 probability (enables injection)\n"
        "  --fault-erase <p>              per-block erase-failure base\n"
        "                                 probability (enables injection)\n"
        "  --fault-read-limit <norm>      normalized-BER ceiling beyond\n"
        "                                 which a read is uncorrectable\n"
        "                                 (0 = unlimited; enables\n"
        "                                 injection)\n"
        "  --fault-wear-scale <x>         how strongly P/E wear amplifies\n"
        "                                 fault probabilities (default 6)\n"
        "  --trace-out <file>             record a Perfetto-loadable\n"
        "                                 Chrome trace (request spans,\n"
        "                                 per-die NAND ops, bus transfers,\n"
        "                                 GC episodes, sampled counters);\n"
        "                                 open at https://ui.perfetto.dev\n"
        "  --trace-buffer <events>        trace ring-buffer capacity in\n"
        "                                 events (default 262144; oldest\n"
        "                                 events are dropped on overflow)\n"
        "  --sample-interval-us <n>       counter sampling period in\n"
        "                                 simulated microseconds (default\n"
        "                                 1000 when --trace-out is given,\n"
        "                                 else off; 0 disables)\n"
        "  --list-counters                print the sampled counter names\n"
        "                                 and units for this config, then\n"
        "                                 exit\n"
        "  --profile                      self-profile the measured run:\n"
        "                                 attribute host wall-clock time\n"
        "                                 to fixed simulator hot-path\n"
        "                                 slots (scheduler dispatch, NAND\n"
        "                                 BER/ISPP/retry models, FTL\n"
        "                                 lookups, GC, bus, host queue,\n"
        "                                 trace overhead) and print the\n"
        "                                 breakdown table; in sweep mode\n"
        "                                 also report per-worker load\n"
        "                                 telemetry on stderr. Simulation\n"
        "                                 results are bit-identical with\n"
        "                                 profiling on or off\n"
        "  --profile-out <file>           also write the profile as a\n"
        "                                 JSON sidecar (implies\n"
        "                                 --profile)\n"
        "  --verbose                      print per-chip statistics\n"
        "  --help                         this text\n";
}

ssd::FtlKind
parseFtl(const std::string &name)
{
    if (name == "page") return ssd::FtlKind::Page;
    if (name == "vert") return ssd::FtlKind::Vert;
    if (name == "cube" || name == "cube-") return ssd::FtlKind::Cube;
    fatal("unknown FTL '%s' (page|vert|cube|cube-)", name.c_str());
}

workload::WorkloadSpec
parseWorkload(const std::string &name)
{
    if (const auto spec = workload::findWorkload(name))
        return *spec;
    fatal("unknown workload '%s' (mail|web|proxy|oltp|rocks|mongo)",
          name.c_str());
}

/** Reject a bad numeric value of `option`: message, exit 2. */
[[noreturn]] void
badValue(const std::string &option, const char *text, const char *expected)
{
    std::cerr << "cubessd_sim: invalid value '" << text << "' for "
              << option << " (expected " << expected << ")\n";
    std::exit(2);
}

/** A whole non-negative integer no larger than `max`. */
std::uint64_t
parseCount(const std::string &option, const char *text, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || v > max)
        badValue(option, text, "a non-negative integer");
    return v;
}

/** A whole finite non-negative number. */
double
parseReal(const std::string &option, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (!(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '.') ||
        *end != '\0' || !std::isfinite(v))
        badValue(option, text, "a non-negative number");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        auto count = [&](std::uint64_t max = ~std::uint64_t{0}) {
            return parseCount(arg, value(), max);
        };
        auto real = [&] { return parseReal(arg, value()); };
        if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (arg == "--ftl") {
            opt.ftl = value();
        } else if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--pe") {
            opt.pe = static_cast<PeCycles>(count(kU32));
        } else if (arg == "--retention") {
            opt.retentionMonths = real();
        } else if (arg == "--blocks") {
            opt.blocks = static_cast<std::uint32_t>(count(kU32));
        } else if (arg == "--requests") {
            opt.requests = count();
        } else if (arg == "--seed") {
            opt.seed = count();
        } else if (arg == "--seeds") {
            opt.seedCount = count();
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(count(kU32));
        } else if (arg == "--prefill-overwrite") {
            opt.prefillOverwrite = real();
        } else if (arg == "--qd") {
            opt.qd = static_cast<std::uint32_t>(count(kU32));
        } else if (arg == "--tenants") {
            if (const std::string err =
                    workload::parseTenantList(value(), &opt.tenants);
                !err.empty())
                fatal("%s", err.c_str());
        } else if (arg == "--tenant") {
            workload::TenantSpec spec;
            if (const std::string err =
                    workload::parseTenantSpec(value(), &spec);
                !err.empty())
                fatal("%s", err.c_str());
            opt.tenants.push_back(std::move(spec));
        } else if (arg == "--open-loop") {
            opt.openLoop = true;
        } else if (arg == "--load") {
            opt.load = real();
        } else if (arg == "--arb-burst") {
            opt.arbBurst = static_cast<std::uint32_t>(count(kU32));
        } else if (arg == "--metrics-out") {
            opt.metricsOut = value();
        } else if (arg == "--trace-out") {
            opt.traceOut = value();
        } else if (arg == "--trace-buffer") {
            opt.traceBuffer = static_cast<std::size_t>(count());
        } else if (arg == "--sample-interval-us") {
            // Sampled every sampleIntervalUs * 1000 ns, in 64 bits.
            opt.sampleIntervalUs = count(~std::uint64_t{0} / 1000);
        } else if (arg == "--list-counters") {
            opt.listCounters = true;
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg == "--profile-out") {
            opt.profileOut = value();
            opt.profile = true;
        } else if (arg == "--fault-program") {
            opt.faults.programFailBase = real();
            opt.faults.enabled = true;
        } else if (arg == "--fault-erase") {
            opt.faults.eraseFailBase = real();
            opt.faults.enabled = true;
        } else if (arg == "--fault-read-limit") {
            opt.faults.uncorrectableNormLimit = real();
            opt.faults.enabled = true;
        } else if (arg == "--fault-wear-scale") {
            opt.faults.wearScale = real();
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    for (const auto &[option, v] :
         {std::pair<const char *, std::uint64_t>{"--requests", opt.requests},
          {"--seeds", opt.seedCount},
          {"--arb-burst", opt.arbBurst},
          {"--trace-buffer", opt.traceBuffer}}) {
        if (v == 0) {
            std::cerr << "cubessd_sim: " << option << " must be > 0\n";
            std::exit(2);
        }
    }
    return opt;
}

bool
sweepMode(const Options &opt)
{
    return opt.tenants.empty() && opt.seedCount > 1;
}

/**
 * Counter sampling defaults on (1 ms cadence) whenever a trace is
 * requested; an explicit --sample-interval-us always wins.
 */
std::uint64_t
sampleIntervalUs(const Options &opt)
{
    return opt.sampleIntervalUs.value_or(opt.traceOut.empty() ? 0 : 1000);
}

/** The first lines of every mode: the device, then the workload (or,
 *  with tenants, the tenants and their pacing). */
void
printBanner(const Options &opt, const ssd::SsdConfig &config,
            const std::string &workload)
{
    std::cout << "device: " << config.totalChips() << " chips x "
              << opt.blocks << " blocks ("
              << config.logicalPages() *
                     config.chip.geometry.pageSizeBytes / kGiB
              << " GiB logical), FTL " << ssd::ftlKindName(config.ftl)
              << (config.cubeFeatures.wam ? "" : "-") << '\n';
    if (opt.tenants.empty()) {
        std::cout << "workload: " << workload << " @ " << opt.pe
                  << " P/E + " << opt.retentionMonths
                  << " months retention\n";
        return;
    }
    std::cout << "tenants:";
    for (const auto &spec : opt.tenants) {
        std::cout << ' ' << spec.name << "("
                  << (spec.workload.name.empty() ? "trace"
                                                 : spec.workload.name)
                  << ",w=" << spec.weight << ')';
    }
    std::cout << "\npacing: "
              << (opt.openLoop ? "open loop" : "closed loop");
    if (opt.openLoop && opt.load > 0.0)
        std::cout << " @ load " << opt.load;
    std::cout << '\n';
}

/** What every mode hands the shared report tail. */
struct Report
{
    /** Writes the mode's own metrics objects (run, cells, tenants,
     *  requests, utilization) between `config` and `ftl`. */
    std::function<void(metrics::JsonWriter &)> body;
    ftl::FtlStats ftl;
    std::uint64_t bufferPeakPages = 0;
    ftl::GcStats gc;
    /** Self-profile of the measured run and the host time it is set
     *  against (empty unless --profile). */
    prof::ProfileData profile;
    double profileWallNs = 0.0;
    /** The measured window's trace and counters (empty in a sweep,
     *  whose traced cell writes its own). */
    std::optional<workload::RunTrace> trace;
};

/**
 * Prefill (pre-cycled, then baked to the retention point), attach the
 * trace, and run the measured window — the single-device modes'
 * shared sequence around `driver` (Driver or MultiTenantDriver). The
 * profile bracket covers the measured run only: a snapshot delta, so
 * the prefill's cost is excluded.
 */
template <typename AnyDriver>
auto
prefillAndRun(const Options &opt, ssd::Ssd &dev, AnyDriver &driver,
              Report &report)
{
    std::cout << "prefilling..." << std::flush;
    dev.setAging({opt.pe, 0.0});
    driver.prefill(opt.prefillOverwrite);
    dev.setAging({opt.pe, opt.retentionMonths});
    std::cout << " done\n";
    report.trace.emplace(dev, opt.traceOut, opt.traceBuffer,
                         sampleIntervalUs(opt));
    std::cout << "running " << opt.requests << " requests..."
              << std::flush;
    const prof::ProfileData before =
        opt.profile ? prof::snapshot() : prof::ProfileData{};
    const auto t0 = std::chrono::steady_clock::now();
    auto result = driver.run(opt.requests);
    report.profileWallNs = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (opt.profile)
        report.profile = prof::snapshot().since(before);
    std::cout << " done\n\n";
    return result;
}

/** Latency percentiles plus the FTL summary rows shared by the
 *  single-run and sweep tables. */
void
addRunRows(metrics::Table &table, const metrics::RequestMetrics &requests,
           const ftl::FtlStats &stats)
{
    const auto &read = requests.latency(ssd::IoType::Read);
    const auto &write = requests.latency(ssd::IoType::Write);
    for (const double p : {50.0, 90.0, 99.0}) {
        table.row({"write p" + metrics::format(p, 0) + " (ms)",
                   metrics::format(write.percentile(p) / 1e6, 3)});
        table.row({"read p" + metrics::format(p, 0) + " (ms)",
                   metrics::format(read.percentile(p) / 1e6, 3)});
    }
    table.row({"write amplification",
               metrics::format(stats.writeAmplification(), 2)});
    table.row({"avg program latency (us)",
               metrics::format(stats.avgProgramLatencyUs(), 1)});
    table.row({"leader / follower programs",
               std::to_string(stats.leaderPrograms) + " / " +
                   std::to_string(stats.followerPrograms)});
    table.row({"read retries", std::to_string(stats.readRetries)});
}

/** The run configuration: common keys plus the mode's own. */
void
writeConfig(metrics::JsonWriter &w, const Options &opt)
{
    const bool tenants = !opt.tenants.empty();
    w.key("config");
    w.beginObject();
    w.field("ftl", opt.ftl);
    if (!tenants)
        w.field("workload", opt.workload);
    w.field("pe_cycles", static_cast<std::uint64_t>(opt.pe));
    w.field("retention_months", opt.retentionMonths);
    w.field("blocks_per_chip", static_cast<std::uint64_t>(opt.blocks));
    w.field("requests", opt.requests);
    w.field("seed", opt.seed);
    if (tenants) {
        w.field("open_loop", opt.openLoop);
        w.field("load", opt.load);
        w.field("arb_burst", static_cast<std::uint64_t>(opt.arbBurst));
        w.field("window",
                static_cast<std::uint64_t>(opt.qd > 0 ? opt.qd : 64));
        w.endObject();
        return;
    }
    // NOTE: a sweep's job count is deliberately NOT recorded — the
    // metrics file must be byte-identical for any --jobs value.
    if (sweepMode(opt))
        w.field("seeds", opt.seedCount);
    w.field("queue_depth", static_cast<std::uint64_t>(opt.qd));
    if (!sweepMode(opt)) {
        w.key("faults");
        w.beginObject();
        w.field("enabled", opt.faults.enabled);
        w.field("program_fail_base", opt.faults.programFailBase);
        w.field("erase_fail_base", opt.faults.eraseFailBase);
        w.field("uncorrectable_norm_limit",
                opt.faults.uncorrectableNormLimit);
        w.field("wear_scale", opt.faults.wearScale);
        w.endObject();
    }
    w.endObject();
}

void
writeFtl(metrics::JsonWriter &w, const ftl::FtlStats &stats,
         std::uint64_t bufferPeakPages)
{
    w.key("ftl");
    w.beginObject();
    w.field("host_read_pages", stats.hostReadPages);
    w.field("host_write_pages", stats.hostWritePages);
    w.field("buffer_hits", stats.bufferHits);
    w.field("nand_reads", stats.nandReads);
    w.field("host_programs", stats.hostPrograms);
    w.field("gc_programs", stats.gcPrograms);
    w.field("relocation_programs", stats.relocationPrograms);
    w.field("leader_programs", stats.leaderPrograms);
    w.field("follower_programs", stats.followerPrograms);
    w.field("read_retries", stats.readRetries);
    w.field("safety_reprograms", stats.safetyReprograms);
    w.field("write_stalls", stats.writeStalls);
    w.field("write_amplification", stats.writeAmplification());
    w.field("avg_program_latency_us", stats.avgProgramLatencyUs());
    w.field("buffer_peak_pages", bufferPeakPages);
    w.endObject();
}

void
writeFailures(metrics::JsonWriter &w, const ftl::FtlStats &stats)
{
    w.key("failures");
    w.beginObject();
    w.field("program_failures", stats.programFailures);
    w.field("erase_failures", stats.eraseFailures);
    w.field("retired_blocks", stats.retiredBlocks);
    w.field("bad_block_relocations", stats.badBlockRelocations);
    w.field("flush_replays", stats.flushReplays);
    w.field("flush_deferrals", stats.flushDeferrals);
    w.field("uncorrectable_reads", stats.uncorrectableReads);
    w.field("read_only_rejects", stats.readOnlyRejects);
    w.field("rejected_requests", stats.rejectedRequests);
    w.endObject();
}

void
writeGc(metrics::JsonWriter &w, const ftl::GcStats &gc)
{
    w.key("gc");
    w.beginObject();
    w.field("collections", gc.collections);
    w.field("relocated_pages", gc.relocatedPages);
    w.field("erases", gc.erases);
    w.field("scan_reads", gc.scanReads);
    w.field("programs", gc.programs);
    w.field("avg_program_latency_us", gc.avgProgramLatencyUs());
    w.endObject();
}

/** Write one JSON object to `path`; `fill` writes its members. */
template <typename Fill>
void
writeJsonFile(const std::string &path, const char *what, Fill &&fill)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open %s file '%s'", what, path.c_str());
    metrics::JsonWriter w(out);
    w.beginObject();
    fill(w);
    w.endObject();
    out << '\n';
}

/**
 * The report tail of every mode: profile table, the --metrics-out
 * document (config, the mode's body, ftl, failures for a single run,
 * gc, counter timeseries, profile), the profile sidecar and the trace.
 */
void
finishReport(const Options &opt, const Report &r)
{
    if (opt.profile) {
        std::cout << '\n';
        prof::report(std::cout, r.profile, r.profileWallNs);
    }

    if (!opt.metricsOut.empty()) {
        writeJsonFile(opt.metricsOut, "metrics", [&](auto &w) {
            writeConfig(w, opt);
            r.body(w);
            writeFtl(w, r.ftl, r.bufferPeakPages);
            if (opt.tenants.empty() && !sweepMode(opt))
                writeFailures(w, r.ftl);
            writeGc(w, r.gc);
            if (r.trace && r.trace->counters) {
                w.key("timeseries");
                r.trace->counters->writeTimeseries(w);
            }
            if (opt.profile) {
                w.key("profile");
                prof::writeJson(w, r.profile, r.profileWallNs);
            }
        });
        std::cout << "\nmetrics written to " << opt.metricsOut << '\n';
    }

    if (!opt.profileOut.empty()) {
        writeJsonFile(opt.profileOut, "profile", [&](auto &w) {
            w.key("profile");
            prof::writeJson(w, r.profile, r.profileWallNs);
        });
        std::cout << "profile written to " << opt.profileOut << '\n';
    }

    if (r.trace && !opt.traceOut.empty()) {
        std::cout << '\n';
        r.trace->write(std::cout);
    }
}

/**
 * Per-worker load telemetry of a sweep, on stderr (never stdout: the
 * sweep's stdout is part of the --jobs bit-identity contract, and
 * wall times are machine noise).
 */
void
reportWorkerTelemetry(const sim::SweepTelemetry &t)
{
    std::cerr << "sweep telemetry: wall "
              << metrics::format(t.wallS, 3) << " s, " << t.workers.size()
              << " worker" << (t.workers.size() == 1 ? "" : "s")
              << ", load imbalance "
              << metrics::format(t.imbalance(), 2) << "x\n";
    for (std::size_t i = 0; i < t.workers.size(); ++i) {
        const auto &w = t.workers[i];
        std::cerr << "  worker " << i << ": " << w.jobs << " cells ("
                  << w.steals << " stolen), busy "
                  << metrics::format(w.busyS, 3) << " s, idle "
                  << metrics::format(w.idleS, 3) << " s\n";
    }
}

/**
 * Multi-tenant mode: N tenant streams through per-tenant submission
 * queues and the WRR arbiter, closed- or open-loop, with per-tenant
 * latency percentiles and SLO accounting.
 */
void
runMultiTenant(const Options &opt, const ssd::SsdConfig &config)
{
    ssd::Ssd dev(config);
    printBanner(opt, config, "");

    workload::MultiTenantOptions mtOptions;
    mtOptions.openLoop = opt.openLoop;
    mtOptions.load = opt.load;
    mtOptions.window = opt.qd > 0 ? opt.qd : 64;
    mtOptions.arbBurst = opt.arbBurst;
    workload::MultiTenantDriver driver(dev, opt.tenants, mtOptions);

    // The trace covers the measured (and calibration) window.
    Report report;
    const auto result = prefillAndRun(opt, dev, driver, report);

    metrics::Table summary({"metric", "value"});
    summary.row({"aggregate IOPS", metrics::format(result.iops, 0)});
    summary.row({"simulated time",
                 metrics::format(toSeconds(result.elapsed), 3) + " s"});
    if (result.calibratedIops > 0.0)
        summary.row({"calibrated capacity (IOPS)",
                     metrics::format(result.calibratedIops, 0)});
    summary.row({"completed requests",
                 std::to_string(result.completed)});
    summary.print(std::cout);

    std::cout << "\nper-tenant results:\n";
    metrics::Table table({"tenant", "weight", "iops", "rd p50 (us)",
                          "rd p99 (us)", "rd p99.9 (us)", "wr p99 (us)",
                          "slo", "violations"});
    for (const auto &t : result.tenants) {
        const auto &read = t.metrics.latency(ssd::IoType::Read);
        const auto &write = t.metrics.latency(ssd::IoType::Write);
        std::string slo = "-";
        std::string violations = "-";
        if (t.sloTarget > 0) {
            slo = metrics::format(
                      static_cast<double>(t.sloTarget) / 1000.0, 0) +
                  " us";
            violations =
                std::to_string(t.sloViolations) + " (" +
                metrics::format(t.sloViolationFraction() * 100.0, 2) +
                "%)";
        }
        table.row({t.name, std::to_string(t.weight),
                   metrics::format(t.iops, 0),
                   metrics::format(read.percentile(50.0) / 1000.0, 1),
                   metrics::format(read.percentile(99.0) / 1000.0, 1),
                   metrics::format(read.percentile(99.9) / 1000.0, 1),
                   metrics::format(write.percentile(99.0) / 1000.0, 1),
                   slo, violations});
    }
    table.print(std::cout);

    std::cout << "\narbitration:\n";
    metrics::Table arb({"tenant", "submitted", "dispatched",
                        "max backlog"});
    for (const auto &t : result.tenants) {
        arb.row({t.name, std::to_string(t.arbitration.submitted),
                 std::to_string(t.arbitration.dispatched),
                 std::to_string(t.arbitration.maxBacklog)});
    }
    arb.print(std::cout);

    std::cout << '\n';
    metrics::gcStatsTable(dev.ftl().gcStats()).print(std::cout);

    report.body = [&](metrics::JsonWriter &w) {
        w.key("run");
        w.beginObject();
        w.field("iops", result.iops);
        w.field("elapsed_s", toSeconds(result.elapsed));
        w.field("completed", result.completed);
        w.field("calibrated_iops", result.calibratedIops);
        w.field("read_only", dev.ftl().readOnly());
        w.endObject();

        w.key("tenants");
        w.beginArray();
        for (std::size_t i = 0; i < result.tenants.size(); ++i) {
            const auto &t = result.tenants[i];
            const auto &spec = opt.tenants[i];
            w.beginObject();
            w.field("name", t.name);
            w.field("workload", spec.workload.name.empty()
                                    ? std::string("trace")
                                    : spec.workload.name);
            w.field("weight", static_cast<std::uint64_t>(t.weight));
            w.field("arrival", std::string(workload::arrivalKindName(
                                   spec.arrival)));
            w.field("slo_target_ns",
                    static_cast<std::uint64_t>(t.sloTarget));
            w.field("offered_rate", t.offeredRate);
            w.field("submitted", t.submitted);
            w.field("completed", t.completed);
            w.field("iops", t.iops);
            w.field("slo_violations", t.sloViolations);
            w.field("slo_violation_fraction", t.sloViolationFraction());
            for (const auto type :
                 {ssd::IoType::Read, ssd::IoType::Write}) {
                const auto &h = t.metrics.latency(type);
                const std::string prefix =
                    type == ssd::IoType::Read ? "read" : "write";
                w.field(prefix + "_p50_us", h.percentile(50.0) / 1000.0);
                w.field(prefix + "_p99_us", h.percentile(99.0) / 1000.0);
                w.field(prefix + "_p999_us",
                        h.percentile(99.9) / 1000.0);
            }
            w.key("arbitration");
            w.beginObject();
            w.field("submitted", t.arbitration.submitted);
            w.field("dispatched", t.arbitration.dispatched);
            w.field("completed", t.arbitration.completed);
            w.field("max_backlog", t.arbitration.maxBacklog);
            w.endObject();
            w.key("requests");
            metrics::writeRequestMetrics(w, t.metrics);
            w.endObject();
        }
        w.endArray();

        w.key("utilization");
        metrics::writeUtilization(w, result.utilization);
    };
    report.ftl = dev.ftl().stats();
    report.bufferPeakPages = dev.ftl().buffer().peakSize();
    report.gc = dev.ftl().gcStats();
    finishReport(opt, report);
    dev.ftl().checkConsistency();
}

/**
 * --seeds N mode: N independent cells of the same configuration at
 * consecutive seeds, farmed onto --jobs worker threads, merged
 * deterministically in seed order on the main thread.
 */
void
runSeedSweep(const Options &opt, const ssd::SsdConfig &config,
             const workload::WorkloadSpec &spec)
{
    const unsigned jobs = sim::resolveJobs(opt.jobs, "CUBESSD_JOBS");

    std::vector<workload::SweepCell> cells;
    for (std::uint64_t s = 0; s < opt.seedCount; ++s) {
        workload::SweepCell cell;
        cell.config = config;
        cell.config.seed = opt.seed + s;
        cell.spec = spec;
        cell.aging = {opt.pe, opt.retentionMonths};
        cell.requests = opt.requests;
        cell.prefillOverwrite = opt.prefillOverwrite;
        cells.push_back(cell);
    }

    workload::SweepTrace trace;
    trace.out = opt.traceOut;
    trace.sampleIntervalUs = sampleIntervalUs(opt);
    trace.cell = 0;
    trace.bufferEvents = opt.traceBuffer;

    printBanner(opt, config, spec.name);
    std::cout << "sweep: " << opt.seedCount << " seeds (" << opt.seed
              << ".." << opt.seed + opt.seedCount - 1 << "), " << jobs
              << " worker" << (jobs == 1 ? "" : "s") << "\nrunning "
              << opt.seedCount << " x " << opt.requests
              << " requests..." << std::flush;

    sim::SweepTelemetry telemetry;
    const auto results =
        workload::runCells(cells, jobs, trace, &telemetry);
    std::cout << " done\n\n";

    // Deterministic merge, strictly in seed (cell) order.
    double iopsSum = 0.0;
    double iopsMin = 0.0, iopsMax = 0.0;
    std::uint64_t completed = 0, failed = 0;
    metrics::RequestMetrics requests;
    Report report;
    bool anyReadOnly = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        iopsSum += r.run.iops;
        iopsMin = i == 0 ? r.run.iops : std::min(iopsMin, r.run.iops);
        iopsMax = i == 0 ? r.run.iops : std::max(iopsMax, r.run.iops);
        completed += r.run.completedRequests;
        failed += r.run.failedRequests();
        requests.merge(r.run.requestMetrics);
        report.ftl.merge(r.ftl);
        report.gc.merge(r.gc);
        report.bufferPeakPages =
            std::max(report.bufferPeakPages, r.bufferPeakPages);
        anyReadOnly = anyReadOnly || r.readOnly;
    }
    const double iopsMean =
        iopsSum / static_cast<double>(results.size());

    metrics::Table table({"metric", "value"});
    table.row({"mean IOPS", metrics::format(iopsMean, 0)});
    table.row({"IOPS range", metrics::format(iopsMin, 0) + " - " +
                                 metrics::format(iopsMax, 0)});
    table.row({"completed requests", std::to_string(completed)});
    if (failed > 0 || opt.faults.enabled)
        table.row({"failed requests", std::to_string(failed)});
    addRunRows(table, requests, report.ftl);
    if (opt.faults.enabled)
        table.row({"any seed read-only", anyReadOnly ? "yes" : "no"});
    table.print(std::cout);

    std::cout << '\n';
    metrics::gcStatsTable(report.gc).print(std::cout);

    if (opt.profile) {
        // "% wall" is computed against the workers' aggregate CPU
        // seconds, not the run's wall clock: with --jobs N the slots
        // accumulate across N threads at once, and only the aggregate
        // makes the coverage fraction meaningful.
        report.profile = workload::mergeCellProfiles(results);
        for (const auto &w : telemetry.workers)
            report.profileWallNs += w.busyS * 1e9;
        reportWorkerTelemetry(telemetry);
    }

    report.body = [&](metrics::JsonWriter &w) {
        w.key("cells");
        w.beginArray();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            w.beginObject();
            w.field("seed", cells[i].config.seed);
            w.field("iops", r.run.iops);
            w.field("elapsed_s", toSeconds(r.run.elapsed));
            w.field("completed", r.run.completedRequests);
            w.field("failed", r.run.failedRequests());
            w.field("read_only", r.readOnly);
            w.endObject();
        }
        w.endArray();

        w.key("requests");
        metrics::writeRequestMetrics(w, requests);
    };
    finishReport(opt, report);
}

/** Single-run mode: one device, one measured window, full report. */
void
runSingle(const Options &opt, const ssd::SsdConfig &config,
          const workload::WorkloadSpec &spec)
{
    ssd::Ssd dev(config);
    printBanner(opt, config, spec.name);

    workload::WorkloadGenerator gen(spec, dev.logicalPages(),
                                    opt.seed + 7);
    workload::Driver driver(dev, gen);
    Report report;
    const auto result = prefillAndRun(opt, dev, driver, report);

    const auto &stats = dev.ftl().stats();
    metrics::Table table({"metric", "value"});
    table.row({"IOPS", metrics::format(result.iops, 0)});
    table.row({"simulated time",
               metrics::format(toSeconds(result.elapsed), 3) + " s"});
    addRunRows(table, result.requestMetrics, stats);
    table.row({"safety re-programs",
               std::to_string(stats.safetyReprograms)});
    if (opt.faults.enabled) {
        table.row({"failed requests",
                   std::to_string(result.failedRequests())});
        table.row({"retired blocks",
                   std::to_string(stats.retiredBlocks)});
        table.row({"bad-block relocations",
                   std::to_string(stats.badBlockRelocations)});
        table.row({"flush replays", std::to_string(stats.flushReplays)});
        table.row({"uncorrectable reads",
                   std::to_string(stats.uncorrectableReads)});
        table.row({"read-only mode",
                   dev.ftl().readOnly() ? "yes" : "no"});
    }
    if (opt.qd > 0) {
        // Reads and writes pooled; the histograms keep exact sums.
        const auto &m = result.requestMetrics;
        auto latency = m.latency(ssd::IoType::Read);
        latency.merge(m.latency(ssd::IoType::Write));
        auto wait = m.phases(ssd::IoType::Read).queueWait;
        wait.merge(m.phases(ssd::IoType::Write).queueWait);
        table.row({"host queue depth", std::to_string(opt.qd)});
        table.row({"mean latency (ms)",
                   metrics::format(latency.mean() / 1e6, 3)});
        table.row({"mean queue wait (ms)",
                   metrics::format(wait.mean() / 1e6, 3)});
    }
    table.print(std::cout);

    std::cout << '\n';
    metrics::gcStatsTable(dev.ftl().gcStats()).print(std::cout);

    if (config.ftl == ssd::FtlKind::Cube) {
        const auto &cube = dev.ftl();
        std::cout << "\ncubeFTL: " << cube.cubeStats().followerWithParams
                  << " followers with leader params, "
                  << cube.cubeStats().ortGuidedReads
                  << " ORT-guided reads, ORT size " << cube.ort().bytes()
                  << " B\n";
        if (cube.ort().hits() + cube.ort().misses() > 0) {
            std::cout << "\nORT hits by h-layer:\n";
            metrics::ortLayerTable(cube.ort()).print(std::cout);
        }
        std::uint64_t vfyDone = 0;
        std::uint64_t vfySkipped = 0;
        std::uint64_t vfySavedNs = 0;
        for (std::uint32_t i = 0; i < dev.chipCount(); ++i) {
            vfyDone += dev.chip(i).stats().verifiesDone;
            vfySkipped += dev.chip(i).stats().verifiesSkipped;
            vfySavedNs += dev.chip(i).vfyTimeSaved();
        }
        std::cout << "\nVFY-skip savings:\n";
        metrics::vfySavingsTable(vfyDone, vfySkipped, vfySavedNs)
            .print(std::cout);
    }

    if (opt.verbose) {
        std::cout << "\nper-chip statistics:\n";
        metrics::Table chips({"chip", "programs", "reads", "erases",
                              "retries"});
        for (std::uint32_t i = 0; i < dev.chipCount(); ++i) {
            const auto &cs = dev.chip(i).stats();
            chips.row({std::to_string(i),
                       std::to_string(cs.wlPrograms),
                       std::to_string(cs.pageReads),
                       std::to_string(cs.erases),
                       std::to_string(cs.readRetries)});
        }
        chips.print(std::cout);
    }

    report.body = [&](metrics::JsonWriter &w) {
        w.key("run");
        w.beginObject();
        w.field("iops", result.iops);
        w.field("elapsed_s", toSeconds(result.elapsed));
        w.field("completed", result.completedRequests);
        w.field("failed", result.failedRequests());
        w.field("read_only", dev.ftl().readOnly());
        w.endObject();

        w.key("requests");
        metrics::writeRequestMetrics(w, result.requestMetrics);

        w.key("utilization");
        metrics::writeUtilization(w, result.utilization);
    };
    report.ftl = stats;
    report.bufferPeakPages = dev.ftl().buffer().peakSize();
    report.gc = dev.ftl().gcStats();
    finishReport(opt, report);
    dev.ftl().checkConsistency();
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    if (opt.profile) {
        if (!prof::compiledIn()) {
            std::cerr << "cubessd_sim: warning: this binary was built "
                         "with CUBESSD_PROFILING=OFF; --profile will "
                         "report no slots\n";
        }
        // Enabled before any Ssd or worker thread exists, so every
        // thread observes the flag at creation.
        prof::setEnabled(true);
    }

    ssd::SsdConfig config;
    config.chip.geometry.blocksPerChip = opt.blocks;
    config.chip.faults = opt.faults;
    config.ftl = parseFtl(opt.ftl);
    config.cubeFeatures.wam = opt.ftl != "cube-";  // cubeFTL- has no WAM
    config.seed = opt.seed;
    // In multi-tenant mode the WRR arbiter owns the in-flight window
    // (--qd sizes it); the host queue underneath stays unbounded.
    config.hostQueueDepth = opt.tenants.empty() ? opt.qd : 0;
    if (const std::string err = config.validate(); !err.empty()) {
        std::cerr << "cubessd_sim: invalid configuration: " << err
                  << '\n';
        return 2;
    }

    if (opt.listCounters) {
        ssd::Ssd dev(config);
        trace::CounterRegistry registry;
        dev.registerCounters(registry);
        metrics::Table counters({"counter", "unit"});
        for (std::size_t i = 0; i < registry.size(); ++i)
            counters.row({registry.name(i), registry.unit(i)});
        counters.print(std::cout);
        return 0;
    }

    if (!opt.tenants.empty()) {
        if (const std::string err =
                workload::validateTenants(opt.tenants);
            !err.empty()) {
            std::cerr << "cubessd_sim: invalid tenants: " << err
                      << '\n';
            return 2;
        }
        if (opt.seedCount > 1) {
            std::cerr << "cubessd_sim: --seeds is not supported in "
                         "multi-tenant mode\n";
            return 2;
        }
        if (opt.openLoop && opt.load <= 0.0) {
            for (const auto &spec : opt.tenants) {
                if (spec.rate == 0.0) {
                    std::cerr << "cubessd_sim: --open-loop needs "
                                 "--load or an explicit rate= for "
                                 "every tenant (tenant '"
                              << spec.name << "' has neither)\n";
                    return 2;
                }
            }
        }
        if (!opt.openLoop && opt.load > 0.0) {
            std::cerr << "cubessd_sim: --load requires --open-loop\n";
            return 2;
        }
    }

    try {
        if (!opt.tenants.empty()) {
            runMultiTenant(opt, config);
            return 0;
        }
        auto spec = parseWorkload(opt.workload);
        if (opt.qd > 0) {
            // Closed-loop QD sweep: a steady stream of `qd` in-flight
            // requests through the bounded host queue, replacing the
            // workload's native burst pacing.
            spec.burstLength = 0;
            spec.queueDepth = opt.qd;
        }
        if (sweepMode(opt))
            runSeedSweep(opt, config, spec);
        else
            runSingle(opt, config, spec);
    } catch (const std::exception &e) {
        // A failing sweep cell surfaces here (annotated with its
        // configuration) after the other cells finish, as does an
        // unwritable trace file.
        std::cerr << "cubessd_sim: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
