/**
 * @file
 * Benchmark driver: paces a workload into an Ssd and measures IOPS
 * and latency distributions.
 *
 * Every driver (Driver, MultiTenantDriver, replayTrace) runs the same
 * procedure from three shared pieces: prefillDevice() before the
 * measured window, a MeasuredWindow around it, and RunResult::record()
 * as the per-completion fold (MultiTenantDriver folds per tenant into
 * RequestMetrics instead). Either way a completion is folded once, into
 * fixed-size histograms, so a measured run allocates nothing per
 * request.
 *
 * Two pacing modes, selected by the workload spec:
 *  - steady closed loop (burstLength == 0): `queueDepth` requests are
 *    kept in flight at all times;
 *  - bursty (burstLength > 0): bursts of `burstLength` requests are
 *    submitted back to back; when a burst fully completes, the host
 *    idles for `interBurstGap` before the next one. This is the
 *    pattern under which the WAM's leader/follower steering pays off
 *    (slow leader programs are deferred into the idle gaps).
 */

#ifndef CUBESSD_WORKLOAD_DRIVER_H
#define CUBESSD_WORKLOAD_DRIVER_H

#include <array>
#include <cstdint>
#include <vector>

#include "src/metrics/request_metrics.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace cubessd::workload {

/** A logical-page range [base, base + pages). */
struct LbaRange
{
    Lba base = 0;
    std::uint64_t pages = 0;
};

/**
 * The prefill every driver runs before measuring: write the whole
 * logical space sequentially, then overwrite `overwriteFraction` of
 * each range of `overwrite`, one range after the other, at seeded
 * random single-page LBAs, so the measured window starts on a full,
 * GC-active device. The traffic is unmeasured (it completes into the
 * prefill's own sink) and the device is drained at the end.
 */
void prefillDevice(ssd::Ssd &ssd, const std::vector<LbaRange> &overwrite,
                   double overwriteFraction);

/**
 * A measured window, opened at construction: it snapshots the clock
 * and every channel's and die's busy time, so utilization covers the
 * window only (prefill activity is excluded).
 */
class MeasuredWindow
{
  public:
    explicit MeasuredWindow(ssd::Ssd &ssd);

    /** Channel/die busy fractions since the window opened; `window`
     *  is the simulated time elapsed. */
    metrics::Utilization utilization() const;

  private:
    ssd::Ssd &ssd_;
    SimTime start_;
    std::vector<SimTime> channelBusy0_;
    std::vector<SimTime> dieBusy0_;
};

/**
 * Result of one measured run. It is also the run's completion fold:
 * submit with the result as the sink and every completion is recorded.
 */
struct RunResult final : ssd::CompletionSink
{
    std::uint64_t completedRequests = 0;
    /** Completions per ssd::Status (index with the enum value);
     *  statusCounts[0] counts the successes. */
    std::array<std::uint64_t, ssd::kStatusCount> statusCounts{};
    SimTime elapsed = 0;
    double iops = 0.0;
    /** Per-IoType latency histograms + per-phase decomposition of
     *  every completion in the measured window: the run's only latency
     *  record. */
    metrics::RequestMetrics requestMetrics;
    /** Channel/die busy fractions over the measured window. */
    metrics::Utilization utilization;

    /** Completions that did not finish with Status::Ok. */
    std::uint64_t
    failedRequests() const
    {
        std::uint64_t failed = 0;
        for (std::size_t s = 1; s < statusCounts.size(); ++s)
            failed += statusCounts[s];
        return failed;
    }

    /** Fold one completion of the measured window in. */
    void record(const ssd::Completion &completion);

    /** Close the run over `window`: elapsed time, IOPS, utilization. */
    void close(const MeasuredWindow &window);

    /** ssd::CompletionSink: record() the completion. */
    void
    onCompletion(const ssd::Completion &completion, std::uint64_t) override
    {
        record(completion);
    }
};

class Driver final : public ssd::CompletionSink, public sim::EventHandler
{
  public:
    Driver(ssd::Ssd &ssd, WorkloadGenerator &generator);

    /** prefillDevice() with the generator's working set as the
     *  overwrite range. */
    void prefill(double overwriteFraction = 0.3);

    /** Run `requests` requests and collect IOPS/latency. */
    RunResult run(std::uint64_t requests);

    /** ssd::CompletionSink: a measured request completed (ctx is the
     *  submitting thread). */
    void onCompletion(const ssd::Completion &completion,
                      std::uint64_t ctx) override;

    /** sim::EventHandler: a burst thread's think time expired. */
    void onEvent(sim::EventKind kind,
                 const sim::EventPayload &payload) override;

  private:
    struct ThreadState
    {
        std::uint64_t outstanding = 0;
        std::uint64_t burstRemaining = 0;
    };

    void submitOne(std::uint32_t thread);
    std::uint64_t sampleBurstLength();

    ssd::Ssd &ssd_;
    WorkloadGenerator &generator_;
    Rng pacingRng_;

    // live run state
    RunResult *result_ = nullptr;
    std::uint64_t toSubmit_ = 0;
    std::uint64_t outstanding_ = 0;
    std::vector<ThreadState> threads_;
};

}  // namespace cubessd::workload

#endif  // CUBESSD_WORKLOAD_DRIVER_H
