/**
 * @file
 * Extension (paper Sec. 8, future work): leader-informed ECC
 * decode-mode selection.
 *
 * LDPC controllers attempt a fast hard-decision decode first and fall
 * back to the slow soft decode on noisy pages, paying for the failed
 * hard attempt. Thanks to horizontal similarity, the first retried
 * read of an h-layer tells the controller that the *whole layer* is
 * noisy, so every later read of that layer can start directly in the
 * soft decode. cubeFTL keys this off its ORT (a non-default entry ==
 * "this layer needed retries").
 *
 * This bench measures aged-state read latency with the hint disabled
 * vs enabled (everything else equal).
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.h"

using namespace cubessd;

namespace {

int
runBench()
{
    std::cout << "=== Extension: PS-aware ECC decode-mode selection "
                 "(Web @ 2K P/E + 1 yr) ===\n\n";

    const std::uint64_t seeds[] = {42, 137, 999};
    const bool hints[] = {false, true};
    std::vector<workload::SweepCell> cells;
    for (const bool hint : hints) {
        for (const std::uint64_t seed : seeds) {
            cells.push_back(bench::makeCell(
                ssd::FtlKind::Cube, workload::web(),  // read-dominated
                {2000, 12.0}, seed, bench::benchRequests(30000)));
            cells.back().config.cubeFeatures.eccHint = hint;
        }
    }
    const auto results = bench::runSweep(cells);

    // Per configuration: the mean IOPS over the seeds and the read
    // percentiles (us) of all seeds' reads pooled.
    metrics::Table table({"configuration", "IOPS", "read p50 (us)",
                          "read p90 (us)"});
    double iops[2] = {}, p90[2] = {};
    std::size_t next = 0;
    for (std::size_t h = 0; h < std::size(hints); ++h) {
        RunningStat seedIops;
        metrics::RequestMetrics pooled;
        for (std::size_t s = 0; s < std::size(seeds); ++s) {
            const auto &run = results[next++].run;
            seedIops.add(run.iops);
            pooled.merge(run.requestMetrics);
        }
        const auto &reads = pooled.latency(ssd::IoType::Read);
        iops[h] = seedIops.mean();
        p90[h] = reads.percentile(90) / 1e3;
        table.row({hints[h] ? "cubeFTL + ECC hint" : "cubeFTL (hint off)",
                   metrics::format(iops[h], 0),
                   metrics::format(reads.percentile(50) / 1e3, 0),
                   metrics::format(p90[h], 0)});
    }
    table.print(std::cout);

    metrics::PaperComparison cmp(
        "Sec. 8 extension (leader-informed ECC)");
    cmp.add("IOPS benefit of the decode hint",
            "proposed, not quantified",
            metrics::formatPercent(iops[1] / iops[0] - 1.0),
            "bounded by the decode share of tREAD");
    cmp.add("read p90 improvement", "proposed, not quantified",
            metrics::formatPercent(1.0 - p90[1] / p90[0]));
    cmp.print(std::cout);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    return bench::runMain("ext_ps_aware_ecc", argc, argv, runBench);
}
