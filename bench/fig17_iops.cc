/**
 * @file
 * Reproduces paper Fig. 17: normalized IOPS of pageFTL, vertFTL, and
 * cubeFTL under the six workloads at three aging states:
 *
 *  (a) fresh (0K P/E, no retention; no read retries),
 *  (b) 2K P/E + 1-month retention (~30% of reads retry),
 *  (c) 2K P/E + 1-year retention (~90%+ of reads retry).
 *
 * Paper headlines: cubeFTL up to +48% IOPS vs pageFTL (OLTP, fresh,
 * thanks to the WAM) and up to +36% vs vertFTL; vertFTL's gains are
 * insignificant (~8% tPROG cut); aged-state gains grow further as the
 * ORT removes the read-retry tax.
 *
 * IOPS values are means over three seeds (burst pacing is
 * stochastic). Runs use the scaled device unless CUBESSD_FULL=1.
 *
 * The full grid (3 agings x 6 workloads x 3 FTLs x seeds) is
 * embarrassingly parallel: every cell owns its RNG and SSD state, so
 * `--jobs N` (or CUBESSD_JOBS=N) farms cells onto worker threads.
 * Results are merged on the main thread in cell order — stdout and
 * the JSON sidecar are bit-identical for any job count.
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.h"

using namespace cubessd;

namespace {

int
runBench()
{
    std::cout << "=== Fig. 17: normalized IOPS under six workloads ===\n"
              << (bench::fullScale()
                      ? "(full-scale 32 GB configuration)\n"
                      : "(scaled device; set CUBESSD_FULL=1 for the "
                        "paper's 32 GB configuration)\n");

    const std::uint64_t requests = bench::benchRequests(30000);
    const nand::AgingState agings[] = {
        {0, 0.0}, {2000, 1.0}, {2000, 12.0}};
    const ssd::FtlKind kinds[] = {
        ssd::FtlKind::Page, ssd::FtlKind::Vert, ssd::FtlKind::Cube};
    const auto workloads = workload::allWorkloads();
    const auto seeds = bench::benchSeeds();

    // Build the whole grid, aging-major / workload / FTL / seed —
    // the exact nesting the sequential loops below read back, so the
    // merged means are computed in the same floating-point order the
    // strictly sequential bench always used.
    std::vector<workload::SweepCell> cells;
    for (const auto &aging : agings)
        for (const auto &spec : workloads)
            for (const auto kind : kinds)
                for (const auto seed : seeds)
                    cells.push_back(bench::makeCell(kind, spec, aging,
                                                    seed, requests));
    const auto results = bench::runSweep(cells);

    // Deterministic merge: walk results in cell order on this (the
    // main) thread; the seed-mean of each (aging, workload, FTL) cell
    // group reduces in seed order.
    std::size_t next = 0;
    auto meanIops = [&]() {
        double sum = 0.0;
        for (std::size_t s = 0; s < seeds.size(); ++s)
            sum += results[next++].run.iops;
        return sum / static_cast<double>(seeds.size());
    };

    double bestCubeGainFresh = 0.0;
    std::string bestWorkloadFresh;
    double bestCubeVsVertFresh = 0.0;
    double proxyGainEol = 0.0, bestGainEol = 0.0;
    std::string bestWorkloadEol;

    // Machine-readable sidecar for CI artifacts; stdout is unchanged.
    auto jsonOut = bench::openBenchJson("fig17_iops");
    metrics::JsonWriter json(jsonOut);
    json.beginObject();
    json.field("figure", "fig17_iops");
    json.field("scale", bench::scaleName());
    json.field("requests", requests);
    json.key("agings");
    json.beginArray();

    for (const auto &aging : agings) {
        std::cout << "\n-- " << bench::agingName(aging) << " --\n";
        json.beginObject();
        json.field("name", bench::agingName(aging));
        json.field("pe_cycles",
                   static_cast<std::uint64_t>(aging.peCycles));
        json.field("retention_months", aging.retentionMonths);
        json.key("workloads");
        json.beginArray();
        metrics::Table table({"workload", "pageFTL (IOPS)", "vertFTL",
                              "cubeFTL", "vert/page", "cube/page"});
        for (const auto &spec : workloads) {
            const double page = meanIops();
            const double vert = meanIops();
            const double cube = meanIops();
            table.row({spec.name, metrics::format(page, 0),
                       metrics::format(vert, 0),
                       metrics::format(cube, 0),
                       metrics::format(vert / page, 2),
                       metrics::format(cube / page, 2)});
            json.beginObject();
            json.field("name", spec.name);
            json.field("page_iops", page);
            json.field("vert_iops", vert);
            json.field("cube_iops", cube);
            json.endObject();

            const double gain = cube / page - 1.0;
            if (aging.peCycles == 0 && gain > bestCubeGainFresh) {
                bestCubeGainFresh = gain;
                bestWorkloadFresh = spec.name;
                bestCubeVsVertFresh = cube / vert - 1.0;
            }
            if (aging.retentionMonths > 6.0) {
                if (spec.name == "Proxy")
                    proxyGainEol = gain;
                if (gain > bestGainEol) {
                    bestGainEol = gain;
                    bestWorkloadEol = spec.name;
                }
            }
        }
        json.endArray();
        json.endObject();
        table.print(std::cout);
    }
    json.endArray();
    json.endObject();
    jsonOut << '\n';

    metrics::PaperComparison cmp("Fig. 17 (IOPS)");
    cmp.add("max cubeFTL gain vs pageFTL, fresh",
            "up to 48% (OLTP)",
            metrics::formatPercent(bestCubeGainFresh) + " (" +
                bestWorkloadFresh + ")");
    cmp.add("max cubeFTL gain vs vertFTL, fresh", "up to 36%",
            metrics::formatPercent(bestCubeVsVertFresh));
    cmp.add("vertFTL gains are insignificant", "~8% tPROG cut only",
            "see vert/page columns");
    cmp.add("gains grow at aged states", "yes (Figs. 17(b,c))",
            "largest 1-year gain: " +
                metrics::formatPercent(bestGainEol) + " (" +
                bestWorkloadEol + ")");
    cmp.add("read-heavy workloads gain most at 1 year",
            "Proxy is the largest gainer",
            "Proxy: " + metrics::formatPercent(proxyGainEol) +
                "; see table (c)");
    cmp.print(std::cout);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    return bench::runMain("fig17_iops", argc, argv, runBench);
}
