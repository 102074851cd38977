/**
 * @file
 * Ablation study (extension beyond the paper's figures): how much
 * does each of cubeFTL's four mechanisms contribute?
 *
 * Runs the write-intensive OLTP workload (fresh: program-path
 * techniques matter) and the read-heavy Web workload at end-of-life
 * retention (read-path techniques matter), adding one technique at a
 * time:
 *
 *   baseline     = pageFTL
 *   +vfy         = cube with only VFY skipping
 *   +window      = + V_Start/V_Final adjustment
 *   +ort         = + read-reference reuse
 *   +wam (=cube) = + adaptive WL allocation
 *
 * DESIGN.md lists this as the design-choice ablation for Sec. 4/5.
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.h"

using namespace cubessd;

namespace {

int
runBench()
{
    std::cout << "=== Ablation: per-technique contribution ===\n";

    struct Step
    {
        const char *name;
        ssd::FtlKind kind;
        ssd::CubeFeatures features;
    };
    const Step steps[] = {
        {"pageFTL (baseline)", ssd::FtlKind::Page, {}},
        {"+ VFY skipping", ssd::FtlKind::Cube,
         {true, false, false, false}},
        {"+ window adjustment", ssd::FtlKind::Cube,
         {true, true, false, false}},
        {"+ ORT (read reuse)", ssd::FtlKind::Cube,
         {true, true, true, false}},
        {"+ WAM (= cubeFTL)", ssd::FtlKind::Cube,
         {true, true, true, true}},
    };

    struct Scenario
    {
        const char *name;
        workload::WorkloadSpec spec;
        nand::AgingState aging;
    };
    const Scenario scenarios[] = {
        {"OLTP @ fresh (program path)", workload::oltp(), {0, 0.0}},
        {"Web @ 2K P/E + 1 yr (read path)", workload::web(),
         {2000, 12.0}},
    };

    // Every (scenario, step, seed) cell in one sweep; IOPS are means
    // over the seeds, summed in seed order.
    const std::uint64_t seeds[] = {42, 137, 999};
    std::vector<workload::SweepCell> cells;
    for (const auto &scenario : scenarios) {
        for (const auto &step : steps) {
            for (const std::uint64_t seed : seeds) {
                cells.push_back(bench::makeCell(
                    step.kind, scenario.spec, scenario.aging, seed,
                    bench::benchRequests(30000)));
                cells.back().config.cubeFeatures = step.features;
            }
        }
    }
    const auto results = bench::runSweep(cells);

    std::size_t next = 0;
    for (const auto &scenario : scenarios) {
        std::cout << "\n-- " << scenario.name << " --\n";
        metrics::Table table({"configuration", "IOPS", "vs baseline",
                              "step gain"});
        double baseline = 0.0, prev = 0.0;
        for (const auto &step : steps) {
            double sum = 0.0;
            for (std::size_t s = 0; s < std::size(seeds); ++s)
                sum += results[next++].run.iops;
            const double iops = sum / 3.0;
            if (baseline == 0.0)
                baseline = prev = iops;
            table.row({step.name, metrics::format(iops, 0),
                       metrics::formatPercent(iops / baseline - 1.0),
                       metrics::formatPercent(iops / prev - 1.0)});
            prev = iops;
        }
        table.print(std::cout);
    }

    std::cout << "\nReading: the program-path techniques (VFY skip + "
                 "window) carry the fresh-state gains; the ORT carries "
                 "the aged-state gains; the WAM adds burst-absorption "
                 "on top (cf. Figs. 17/18).\n";
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    return bench::runMain("ablation_techniques", argc, argv, runBench);
}
