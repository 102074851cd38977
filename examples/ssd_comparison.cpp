/**
 * @file
 * FTL comparison on a chosen workload and aging state — a miniature
 * version of the paper's evaluation (Sec. 6).
 *
 *   ./ssd_comparison [workload] [pe_cycles] [retention_months]
 *
 * workload: mail | web | proxy | oltp | rocks | mongo (default oltp;
 *           any workload::findWorkload name, an unknown one exits 2)
 * Runs pageFTL, vertFTL, cubeFTL-, and cubeFTL, and prints IOPS,
 * latency percentiles, and the PS-aware statistics.
 */

#include <cstdlib>
#include <iostream>

#include "src/cubessd.h"

using namespace cubessd;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "oltp";
    const auto found = workload::findWorkload(name);
    if (!found) {
        std::cerr << "ssd_comparison: unknown workload '" << name
                  << "'\n";
        return 2;
    }
    const workload::WorkloadSpec &spec = *found;
    nand::AgingState aging;
    aging.peCycles =
        argc > 2 ? static_cast<PeCycles>(std::atoi(argv[2])) : 0;
    aging.retentionMonths = argc > 3 ? std::atof(argv[3]) : 0.0;

    std::cout << "workload " << spec.name << ", " << aging.peCycles
              << " P/E + " << aging.retentionMonths
              << " months retention\n\n";

    metrics::Table table({"FTL", "IOPS", "write p90 (ms)",
                          "read p90 (ms)", "WAF", "avg tPROG (us)",
                          "retries"});
    // cubeFTL- is cubeFTL with the WAM (adaptive WL allocation) off.
    const char *const names[] = {"pageFTL", "vertFTL", "cubeFTL-",
                                 "cubeFTL"};
    const ssd::FtlKind kinds[] = {ssd::FtlKind::Page, ssd::FtlKind::Vert,
                                  ssd::FtlKind::Cube, ssd::FtlKind::Cube};
    constexpr std::size_t kCubeMinus = 2;
    double iops[4] = {};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        ssd::SsdConfig config;
        config.chip.geometry.blocksPerChip = 128;
        config.ftl = kinds[i];
        config.cubeFeatures.wam = i != kCubeMinus;
        ssd::Ssd dev(config);
        workload::WorkloadGenerator gen(spec, dev.logicalPages(), 7);
        workload::Driver driver(dev, gen);
        dev.setAging({aging.peCycles, 0.0});
        driver.prefill(0.2);
        dev.setAging(aging);
        const auto result = driver.run(20000);
        const auto &stats = dev.ftl().stats();
        // Latencies are recorded in ns; the table prints ms.
        const auto p90Ms = [&](ssd::IoType type) {
            return result.requestMetrics.latency(type).percentile(90) /
                   1e6;
        };
        table.row({names[i], metrics::format(result.iops, 0),
                   metrics::format(p90Ms(ssd::IoType::Write), 2),
                   metrics::format(p90Ms(ssd::IoType::Read), 2),
                   metrics::format(stats.writeAmplification(), 2),
                   metrics::format(stats.avgProgramLatencyUs(), 0),
                   std::to_string(stats.readRetries)});
        iops[i] = result.iops;
    }
    table.print(std::cout);
    std::cout << "\ncubeFTL vs pageFTL: "
              << metrics::formatPercent(iops[3] / iops[0] - 1.0)
              << " IOPS\n";
    return 0;
}
