/**
 * @file
 * Request-level observability: per-IoType latency histograms with a
 * per-phase decomposition, plus channel/die utilization snapshots.
 *
 * RequestMetrics consumes the Completion trace records the pipeline
 * emits (ssd::PhaseTimes) and keeps one log-scale histogram per
 * IoType for end-to-end latency and one per (IoType, phase) for the
 * decomposition — enough to answer "where did the p99 go" without
 * storing samples. Everything merges, so multi-seed benches can
 * aggregate before exporting.
 *
 * It is a measured run's only latency record, so stdout tables, CDFs
 * and JSON agree; its 12 histograms (~110 KB) are allocated once.
 */

#ifndef CUBESSD_METRICS_REQUEST_METRICS_H
#define CUBESSD_METRICS_REQUEST_METRICS_H

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/metrics/histogram.h"
#include "src/ssd/request.h"

namespace cubessd::metrics {

/** Histograms of one phase decomposition (all values nanoseconds). */
struct PhaseHistograms
{
    LatencyHistogram queueWait;
    LatencyHistogram buffer;
    LatencyHistogram bus;
    LatencyHistogram die;
    LatencyHistogram retry;

    void merge(const PhaseHistograms &other);
};

class RequestMetrics
{
  public:
    /** Fold one completion (with its trace record) in. */
    void record(const ssd::Completion &completion);

    /** End-to-end latency histogram of one IoType (nanoseconds). */
    const LatencyHistogram &latency(ssd::IoType type) const
    {
        return latency_[index(type)];
    }
    /** Phase decomposition of one IoType (nanoseconds). */
    const PhaseHistograms &phases(ssd::IoType type) const
    {
        return phases_[index(type)];
    }

    std::uint64_t recorded(ssd::IoType type) const
    {
        return latency_[index(type)].total();
    }

    /** Completions per ssd::Status (index with the enum value). */
    const std::array<std::uint64_t, ssd::kStatusCount> &
    statusCounts() const
    {
        return statusCounts_;
    }

    void merge(const RequestMetrics &other);

  private:
    static std::size_t index(ssd::IoType type)
    {
        return type == ssd::IoType::Read ? 0 : 1;
    }

    LatencyHistogram latency_[2];
    PhaseHistograms phases_[2];
    std::array<std::uint64_t, ssd::kStatusCount> statusCounts_{};
};

/**
 * Busy fractions of the shared resources over one measurement window
 * (busy-time delta / window length). Filled by the workload driver
 * from Channel::busyTime() and ChipUnit::busyTime().
 */
struct Utilization
{
    std::vector<double> channel;  ///< per channel, 0..1
    std::vector<double> die;      ///< per die, 0..1
    SimTime window = 0;           ///< measurement window (ns)

    double averageChannel() const;
    double averageDie() const;
};

}  // namespace cubessd::metrics

#endif  // CUBESSD_METRICS_REQUEST_METRICS_H
