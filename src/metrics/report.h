/**
 * @file
 * Reporting helpers shared by the benchmark harness: aligned tables,
 * CDF printing, and paper-vs-measured bookkeeping for EXPERIMENTS.md.
 */

#ifndef CUBESSD_METRICS_REPORT_H
#define CUBESSD_METRICS_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace cubessd::ftl {
struct GcStats;
class Ort;
}  // namespace cubessd::ftl

namespace cubessd::nand {
struct NandChipStats;
}

namespace cubessd::metrics {

/**
 * A simple fixed-column text table.
 *
 * @code
 *   Table t({"workload", "pageFTL", "cubeFTL"});
 *   t.row({"OLTP", format(1.0), format(1.48)});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    void row(std::vector<std::string> cells);
    void print(std::ostream &out) const;

  private:
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with `digits` fraction digits. */
std::string format(double value, int digits = 3);

/** Format a percentage ("12.3%"). */
std::string formatPercent(double fraction, int digits = 1);

/** Print a (x, F(x)) CDF as two columns. */
void printCdf(std::ostream &out, const std::string &title,
              const std::vector<std::pair<double, double>> &cdf);

/**
 * Render a device's GC counters (Ftl::gcStats(): collections,
 * relocated pages, erases, GC-induced program latency) as a
 * metric/value table.
 */
Table gcStatsTable(const ftl::GcStats &stats);

/**
 * Per-h-layer ORT hit/miss table, grouping `groupLayers` adjacent
 * layers per row ("layers 0-7 | hits | misses | hit rate"). Rows with
 * no lookups are elided. A `groupLayers` of 0 collapses to one row.
 */
Table ortLayerTable(const ftl::Ort &ort, std::uint32_t groupLayers = 8);

/**
 * VFY-skip savings summary across chips: verifies done vs skipped,
 * skip rate, and estimated program time saved (the Sec. 4.1
 * tPROG-reduction mechanism). `vfyTimeSavedNs` is the sum of
 * NandChip::vfyTimeSaved() over the devices being reported.
 */
Table vfySavingsTable(std::uint64_t verifiesDone,
                      std::uint64_t verifiesSkipped,
                      std::uint64_t vfyTimeSavedNs);

/**
 * Collects paper-reported values next to measured ones and renders
 * the comparison block each bench prints at the end (and which
 * EXPERIMENTS.md quotes).
 */
class PaperComparison
{
  public:
    explicit PaperComparison(std::string experiment);

    /**
     * @param metric     human-readable name ("IOPS gain, OLTP, fresh")
     * @param paper      the paper's reported value
     * @param measured   our value
     * @param note       optional qualifier ("shape only")
     */
    void add(const std::string &metric, const std::string &paper,
             const std::string &measured, const std::string &note = "");

    void print(std::ostream &out) const;

  private:
    std::string experiment_;
    Table table_;
};

}  // namespace cubessd::metrics

#endif  // CUBESSD_METRICS_REPORT_H
