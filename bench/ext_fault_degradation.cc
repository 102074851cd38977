/**
 * @file
 * Extension bench: graceful degradation under NAND fault injection.
 *
 * Not a paper figure — the paper's evaluation assumes fault-free
 * media. This bench exercises the failure domain the Status API adds:
 * seeded program/erase failures scaled by wear and h-layer process
 * quality, plus an uncorrectable-read ceiling on the normalized BER.
 *
 * Part 1 sweeps the per-WL program-failure base probability and
 * reports throughput and latency alongside the failure counters
 * (retired blocks, relocations, flush replays, uncorrectable reads)
 * at a mid-life aging state. The headline: the device keeps serving
 * I/O while blocks retire, paying with replay latency, until the
 * spare pool runs out.
 *
 * Part 2 drives the fault rate high enough to exhaust the spare
 * blocks: the device transitions to read-only mode and completes new
 * writes with Status::ReadOnly instead of asserting — the run
 * finishes with zero crashes by construction.
 *
 * Failure counts are deterministic per seed (the injector draws from
 * its own RNG stream); with injection disabled the run is bit-for-bit
 * the baseline.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"

using namespace cubessd;

namespace {

std::string
formatRate(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", rate);
    return buf;
}

struct DegradationResult
{
    workload::RunResult run;
    ftl::FtlStats stats;
    bool readOnly = false;
};

DegradationResult
runWithFaults(const nand::FaultParams &faults,
              const workload::WorkloadSpec &spec,
              const nand::AgingState &aging, std::uint64_t requests)
{
    ssd::SsdConfig config = bench::ssdConfig(ssd::FtlKind::Cube, 42);
    config.chip.faults = faults;
    ssd::Ssd dev(config);
    workload::WorkloadGenerator gen(spec, dev.logicalPages(), 42 + 7);
    workload::Driver driver(dev, gen);
    dev.setAging({aging.peCycles, 0.0});
    driver.prefill(0.2);
    dev.setAging(aging);
    DegradationResult out;
    out.run = driver.run(requests);
    out.stats = dev.ftl().stats();
    out.readOnly = dev.ftl().readOnly();
    dev.ftl().checkConsistency();
    return out;
}

}  // namespace

int
main()
{
    std::cout << "=== ext: graceful degradation under fault injection "
                 "===\n"
              << (bench::fullScale()
                      ? "(full-scale 32 GB configuration)\n"
                      : "(scaled device; set CUBESSD_FULL=1 for the "
                        "paper's 32 GB configuration)\n");

    const std::uint64_t requests = bench::benchRequests(20000);
    const nand::AgingState aging{2000, 1.0};
    const auto spec = workload::allWorkloads()[3];  // OLTP

    auto jsonOut = bench::openBenchJson("ext_fault_degradation");
    metrics::JsonWriter json(jsonOut);
    json.beginObject();
    json.field("figure", "ext_fault_degradation");
    json.field("scale", bench::scaleName());
    json.field("requests", requests);
    json.field("workload", spec.name);

    // -- Part 1: program-failure rate sweep ---------------------------
    std::cout << "\n-- fault-rate sweep (" << spec.name << ", "
              << bench::agingName(aging) << ") --\n";
    // Spread so the scaled device (~13 spare blocks per chip) walks
    // from fault-free through isolated retirements into read-only.
    const double rates[] = {0.0, 2e-6, 1e-5, 5e-5};

    json.key("sweep");
    json.beginArray();
    metrics::Table table({"program fail base", "IOPS", "write p99 (ms)",
                          "retired", "relocations", "replays",
                          "uncorrectable", "failed reqs", "read-only"});
    for (const double rate : rates) {
        nand::FaultParams faults;
        faults.enabled = rate > 0.0;
        faults.programFailBase = rate;
        faults.eraseFailBase = rate / 2.0;
        faults.uncorrectableNormLimit = 25.0;
        const auto r = runWithFaults(faults, spec, aging, requests);
        const double writeP99Ns =
            r.run.requestMetrics.latency(ssd::IoType::Write)
                .percentile(99.0);
        table.row({formatRate(rate),
                   metrics::format(r.run.iops, 0),
                   metrics::format(writeP99Ns / 1e6, 3),
                   std::to_string(r.stats.retiredBlocks),
                   std::to_string(r.stats.badBlockRelocations),
                   std::to_string(r.stats.flushReplays),
                   std::to_string(r.stats.uncorrectableReads),
                   std::to_string(r.run.failedRequests()),
                   r.readOnly ? "yes" : "no"});
        json.beginObject();
        json.field("program_fail_base", rate);
        json.field("iops", r.run.iops);
        json.field("write_p99_us", writeP99Ns / 1e3);
        json.field("retired_blocks", r.stats.retiredBlocks);
        json.field("bad_block_relocations",
                   r.stats.badBlockRelocations);
        json.field("flush_replays", r.stats.flushReplays);
        json.field("uncorrectable_reads", r.stats.uncorrectableReads);
        json.field("failed_requests", r.run.failedRequests());
        json.field("read_only", r.readOnly);
        json.endObject();
    }
    json.endArray();
    table.print(std::cout);

    // -- Part 2: spare exhaustion -> read-only mode -------------------
    std::cout << "\n-- spare exhaustion (program fail base 1e-2) --\n";
    nand::FaultParams heavy;
    heavy.enabled = true;
    heavy.programFailBase = 1e-2;
    heavy.eraseFailBase = 5e-3;
    heavy.uncorrectableNormLimit = 25.0;
    const auto r = runWithFaults(heavy, spec, aging, requests);
    const auto &counts = r.run.statusCounts;
    metrics::Table exhaust({"metric", "value"});
    exhaust.row({"completed requests",
                 std::to_string(r.run.completedRequests)});
    exhaust.row({"read-only mode", r.readOnly ? "yes" : "no"});
    exhaust.row({"retired blocks",
                 std::to_string(r.stats.retiredBlocks)});
    exhaust.row({"ReadOnly completions",
                 std::to_string(counts[static_cast<std::size_t>(
                     ssd::Status::ReadOnly)])});
    exhaust.row({"Uncorrectable completions",
                 std::to_string(counts[static_cast<std::size_t>(
                     ssd::Status::Uncorrectable)])});
    exhaust.row({"Ok completions",
                 std::to_string(counts[static_cast<std::size_t>(
                     ssd::Status::Ok)])});
    exhaust.print(std::cout);
    std::cout << "all requests completed with a Status — no asserts, "
                 "no silent failures\n";

    json.key("exhaustion");
    json.beginObject();
    json.field("program_fail_base", heavy.programFailBase);
    json.field("completed", r.run.completedRequests);
    json.field("read_only", r.readOnly);
    json.field("retired_blocks", r.stats.retiredBlocks);
    json.field("read_only_completions",
               counts[static_cast<std::size_t>(ssd::Status::ReadOnly)]);
    json.field("ok_completions",
               counts[static_cast<std::size_t>(ssd::Status::Ok)]);
    json.endObject();

    json.endObject();
    jsonOut << '\n';
    return 0;
}
