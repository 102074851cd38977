/**
 * @file
 * Reproduces paper Fig. 18: write and read latency CDFs under the
 * Rocks workload at the fresh state, for pageFTL, vertFTL, cubeFTL-,
 * and cubeFTL.
 *
 * Paper observations: (a) cubeFTL's 90th-percentile write latency is
 * 0.72 ms vs pageFTL's 1.10 ms (1.53x); cubeFTL-'s 80th percentile is
 * ~42% above cubeFTL's (the WAM's contribution); (b) cubeFTL also has
 * the best read latency even at fresh state, because reads are less
 * often blocked behind slow programs.
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.h"

using namespace cubessd;

namespace {

int
runBench()
{
    std::cout << "=== Fig. 18: latency CDFs, Rocks @ fresh ===\n";
    // The paper's latency experiment runs at moderate load: commit
    // bursts overflow the write buffer (so writes genuinely wait for
    // flushes and the program-latency differences show), but the
    // device drains between bursts (so unbounded queueing does not
    // drown those differences). Pace the Rocks stream accordingly.
    auto spec = workload::rocks();
    spec.burstLength = 32;
    spec.interBurstGap = 25 * kMillisecond;
    const nand::AgingState fresh{0, 0.0};
    const std::uint64_t requests = bench::benchRequests(30000);

    // The columns; cubeFTL- is cubeFTL with the WAM off.
    const char *const names[] = {"pageFTL", "vertFTL", "cubeFTL-",
                                 "cubeFTL"};
    const ssd::FtlKind kinds[] = {ssd::FtlKind::Page, ssd::FtlKind::Vert,
                                  ssd::FtlKind::Cube, ssd::FtlKind::Cube};
    enum Column { kPage, kVert, kCubeMinus, kCube };

    // One cell per FTL; `--jobs N` runs them concurrently, and the
    // cell-order results below make the output independent of which
    // finished first. Cell 0 (pageFTL) is the traced cell, matching
    // the sequential bench's first-run-traced behaviour.
    std::vector<workload::SweepCell> cells;
    for (const auto kind : kinds)
        cells.push_back(bench::makeCell(kind, spec, fresh, 42, requests));
    cells[kCubeMinus].config.cubeFeatures.wam = false;
    const auto results = bench::runSweep(cells);

    // Machine-readable sidecar for CI artifacts, read from the same
    // histograms as stdout. Per FTL: full latency summaries (incl.
    // p99.9), the per-phase decomposition, and channel/die
    // utilization.
    {
        auto jsonOut = bench::openBenchJson("fig18_latency_cdf");
        metrics::JsonWriter json(jsonOut);
        json.beginObject();
        json.field("figure", "fig18_latency_cdf");
        json.field("scale", bench::scaleName());
        json.field("requests", requests);
        json.field("workload", spec.name);
        json.key("ftls");
        json.beginObject();
        for (std::size_t i = 0; i < std::size(names); ++i) {
            json.key(names[i]);
            json.beginObject();
            json.key("requests");
            metrics::writeRequestMetrics(json,
                                         results[i].run.requestMetrics);
            json.key("utilization");
            metrics::writeUtilization(json, results[i].run.utilization);
            json.endObject();
        }
        json.endObject();
        json.endObject();
        jsonOut << '\n';
    }

    // Latencies are recorded in ns and printed in ms.
    const auto ms = [&](std::size_t column, ssd::IoType type, double p) {
        const auto &metrics = results[column].run.requestMetrics;
        return metrics.latency(type).percentile(p) / 1e6;
    };
    for (const auto type : {ssd::IoType::Write, ssd::IoType::Read}) {
        std::cout << "\n-- "
                  << (type == ssd::IoType::Write ? "write" : "read")
                  << " latency percentiles (ms) --\n";
        metrics::Table table({"percentile", "pageFTL", "vertFTL",
                              "cubeFTL-", "cubeFTL"});
        for (const double p : {50.0, 70.0, 80.0, 90.0, 95.0, 99.0}) {
            std::vector<std::string> row{metrics::format(p, 0)};
            for (std::size_t i = 0; i < std::size(names); ++i)
                row.push_back(metrics::format(ms(i, type, p), 3));
            table.row(row);
        }
        table.print(std::cout);
    }

    // Compact CDF curves for plotting.
    std::cout << "\n-- write-latency CDF points (ms, F) --\n";
    for (std::size_t i = 0; i < std::size(names); ++i) {
        std::cout << names[i] << ":";
        for (const auto &[x, f] :
             results[i].run.requestMetrics.latency(ssd::IoType::Write)
                 .cdf(8)) {
            std::cout << "  (" << metrics::format(x / 1e6, 2) << ", "
                      << metrics::format(f, 2) << ")";
        }
        std::cout << "\n";
    }

    const double pageP90 = ms(kPage, ssd::IoType::Write, 90);
    const double cubeP90 = ms(kCube, ssd::IoType::Write, 90);
    const double cubeMinusP90 = ms(kCubeMinus, ssd::IoType::Write, 90);
    const double pageReadP50 = ms(kPage, ssd::IoType::Read, 50);
    const double cubeReadP50 = ms(kCube, ssd::IoType::Read, 50);

    metrics::PaperComparison cmp("Fig. 18 (Rocks latency CDFs)");
    cmp.add("p90 write latency, pageFTL vs cubeFTL",
            "1.10 ms vs 0.72 ms (1.53x)",
            metrics::format(pageP90, 2) + " ms vs " +
                metrics::format(cubeP90, 2) + " ms (" +
                metrics::format(pageP90 / cubeP90, 2) + "x)",
            "ordering holds; absolute values depend on buffer depth");
    cmp.add("write tail, cubeFTL- vs cubeFTL (the WAM's share)",
            "cubeFTL ~42% shorter at p80",
            metrics::formatPercent(1.0 - cubeP90 / cubeMinusP90) +
                " shorter at p90");
    cmp.add("cubeFTL reads fastest even at fresh state",
            "yes (less blocking behind programs)",
            cubeReadP50 < pageReadP50
                ? "yes (p50 " +
                      metrics::format(cubeReadP50, 2) + " ms vs " +
                      metrics::format(pageReadP50, 2) + " ms)"
                : "NO");
    cmp.print(std::cout);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    return bench::runMain("fig18_latency_cdf", argc, argv, runBench);
}
