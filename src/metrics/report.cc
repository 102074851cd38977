#include "src/metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/common/logging.h"
#include "src/ftl/ftl_stats.h"
#include "src/ftl/ort.h"

namespace cubessd::metrics {

Table::Table(std::vector<std::string> header)
{
    rows_.push_back(std::move(header));
}

void
Table::row(std::vector<std::string> cells)
{
    if (cells.size() != rows_.front().size())
        fatal("Table: row has %zu cells, header has %zu", cells.size(),
              rows_.front().size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &out) const
{
    std::vector<std::size_t> width(rows_.front().size(), 0);
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    for (std::size_t r = 0; r < rows_.size(); ++r) {
        out << "  ";
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            out << rows_[r][c];
            if (c + 1 < rows_[r].size()) {
                out << std::string(width[c] - rows_[r][c].size() + 2,
                                   ' ');
            }
        }
        out << '\n';
        if (r == 0) {
            std::size_t total = 2;
            for (std::size_t c = 0; c < width.size(); ++c)
                total += width[c] + (c + 1 < width.size() ? 2 : 0);
            out << "  " << std::string(total - 2, '-') << '\n';
        }
    }
}

std::string
format(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string
formatPercent(double fraction, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
    return buf;
}

void
printCdf(std::ostream &out, const std::string &title,
         const std::vector<std::pair<double, double>> &cdf)
{
    out << title << '\n';
    for (const auto &[x, f] : cdf)
        out << "  " << format(x, 1) << "  " << format(f, 4) << '\n';
}

Table
gcStatsTable(const ftl::GcStats &stats)
{
    Table table({"GC metric", "value"});
    table.row({"collections", std::to_string(stats.collections)});
    table.row({"relocated pages",
               std::to_string(stats.relocatedPages)});
    table.row({"erases", std::to_string(stats.erases)});
    table.row({"scan reads", std::to_string(stats.scanReads)});
    table.row({"WL programs", std::to_string(stats.programs)});
    table.row({"avg GC program latency (us)",
               format(stats.avgProgramLatencyUs(), 1)});
    return table;
}

Table
ortLayerTable(const ftl::Ort &ort, std::uint32_t groupLayers)
{
    const std::uint32_t layers = ort.layersPerBlock();
    if (groupLayers == 0)
        groupLayers = layers;

    Table table({"h-layers", "hits", "misses", "hit rate"});
    for (std::uint32_t base = 0; base < layers; base += groupLayers) {
        const std::uint32_t last =
            std::min(base + groupLayers, layers) - 1;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (std::uint32_t l = base; l <= last; ++l) {
            hits += ort.layerHits(l);
            misses += ort.layerMisses(l);
        }
        if (hits + misses == 0)
            continue;
        table.row({std::to_string(base) + "-" + std::to_string(last),
                   std::to_string(hits), std::to_string(misses),
                   formatPercent(static_cast<double>(hits) /
                                 static_cast<double>(hits + misses))});
    }
    return table;
}

Table
vfySavingsTable(std::uint64_t verifiesDone,
                std::uint64_t verifiesSkipped,
                std::uint64_t vfyTimeSavedNs)
{
    const std::uint64_t planned = verifiesDone + verifiesSkipped;
    Table table({"VFY metric", "value"});
    table.row({"verifies done", std::to_string(verifiesDone)});
    table.row({"verifies skipped", std::to_string(verifiesSkipped)});
    table.row({"skip rate",
               planned == 0
                   ? "n/a"
                   : formatPercent(static_cast<double>(verifiesSkipped) /
                                   static_cast<double>(planned))});
    table.row({"est. program time saved (ms)",
               format(static_cast<double>(vfyTimeSavedNs) / 1e6, 3)});
    return table;
}

PaperComparison::PaperComparison(std::string experiment)
    : experiment_(std::move(experiment)),
      table_({"metric", "paper", "measured", "note"})
{
}

void
PaperComparison::add(const std::string &metric, const std::string &paper,
                     const std::string &measured, const std::string &note)
{
    table_.row({metric, paper, measured, note});
}

void
PaperComparison::print(std::ostream &out) const
{
    out << "\n=== paper vs measured: " << experiment_ << " ===\n";
    table_.print(out);
}

}  // namespace cubessd::metrics
