/**
 * @file
 * Trace record + replay: generate a workload trace, save it to a
 * file, replay it open-loop against two FTLs, and compare.
 *
 *   ./trace_replay [trace_file]
 *
 * If trace_file exists it is replayed; otherwise a Rocks-like trace
 * is generated and written there first (default: ./rocks.trace).
 */

#include <fstream>
#include <iostream>
#include <string>

#include "src/cubessd.h"
#include "src/ftl/ftl.h"

using namespace cubessd;

int
main(int argc, char **argv)
{
    const std::string path = argc > 1 ? argv[1] : "rocks.trace";

    std::vector<ssd::HostRequest> trace;
    if (std::ifstream probe(path); probe.good()) {
        std::cout << "replaying existing trace '" << path << "'\n";
        trace = workload::TraceReader::readFile(path);
    } else {
        std::cout << "generating a Rocks-like trace into '" << path
                  << "'\n";
        ssd::SsdConfig sizing;
        sizing.chip.geometry.blocksPerChip = 64;
        workload::WorkloadGenerator gen(workload::rocks(),
                                        sizing.logicalPages(), 11);
        SimTime t = 0;
        Rng rng(13);
        for (int i = 0; i < 20000; ++i) {
            auto req = gen.next();
            req.arrival = t;
            // Open-loop arrivals: ~8k requests/s with jitter, a
            // rate this small example device can sustain.
            t += static_cast<SimTime>(rng.exponential(125.0)) *
                 kMicrosecond;
            trace.push_back(req);
        }
        workload::TraceWriter::writeFile(path, trace);
    }
    std::cout << "trace: " << trace.size() << " requests spanning "
              << metrics::format(
                     toSeconds(trace.back().arrival -
                               trace.front().arrival),
                     2)
              << " s\n\n";

    metrics::Table table({"FTL", "completed", "IOPS",
                          "write p99 (ms)", "read p99 (ms)"});
    for (const auto kind : {ssd::FtlKind::Page, ssd::FtlKind::Cube}) {
        ssd::SsdConfig config;
        config.chip.geometry.blocksPerChip = 96;
        config.logicalFraction = 0.8;  // room for GC on small chips
        config.ftl = kind;
        ssd::Ssd dev(config);

        // Prefill so reads hit mapped pages.
        workload::WorkloadGenerator gen(workload::rocks(),
                                        dev.logicalPages(), 11);
        workload::Driver driver(dev, gen);
        driver.prefill(0.1);

        const auto result = workload::replayTrace(dev, trace);
        // Latencies are recorded in ns; the table prints ms.
        const auto p99Ms = [&](ssd::IoType type) {
            return result.requestMetrics.latency(type).percentile(99) /
                   1e6;
        };
        table.row({ssd::ftlKindName(kind),
                   std::to_string(result.completedRequests),
                   metrics::format(result.iops, 0),
                   metrics::format(p99Ms(ssd::IoType::Write), 2),
                   metrics::format(p99Ms(ssd::IoType::Read), 2)});
        dev.ftl().checkConsistency();
    }
    table.print(std::cout);
    return 0;
}
