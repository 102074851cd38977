/**
 * @file
 * Multi-tenant front end: N concurrent tenant streams over one SSD.
 *
 * Each tenant owns a slice of the logical space (its namespace), its
 * own workload generator (or trace content) and RNG streams, and one
 * NVMe-style submission queue; a WrrArbiter (ssd/arbiter.h) merges
 * the queues into the shared ssd::HostQueue by weighted round-robin.
 * Two pacing modes:
 *
 *  - closed loop (default): every tenant keeps 16 requests in
 *    flight, so relative throughput under saturation is set by the
 *    arbitration weights;
 *  - open loop (--open-loop): each tenant's requests arrive by an
 *    independent arrival process (Poisson or bursty) at a configured
 *    rate — either an explicit rate= per tenant or a fraction of the
 *    device's calibrated closed-loop capacity (`load`), split across
 *    tenants by weight. Open loop is what exposes SLO violations:
 *    demand does not slow down when the device falls behind.
 *
 * Per-tenant accounting (latency histograms with p50/p99/p99.9, SLO
 * violation counts, arbitration counters) keys off Completion::tenant,
 * which the pipeline carries through untouched.
 *
 * The driver expects the Ssd to be configured with hostQueueDepth 0
 * (unbounded): the arbiter owns the in-flight window, and a bounded
 * HostQueue underneath would re-serialize its decisions through a
 * second FIFO wait line.
 */

#ifndef CUBESSD_WORKLOAD_MULTI_TENANT_H
#define CUBESSD_WORKLOAD_MULTI_TENANT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/metrics/request_metrics.h"
#include "src/ssd/arbiter.h"
#include "src/ssd/ssd.h"
#include "src/workload/tenant.h"
#include "src/workload/workload.h"

namespace cubessd::workload {

struct MultiTenantOptions
{
    /** Pace by arrival processes instead of fixed in-flight counts. */
    bool openLoop = false;
    /** Open-loop offered load as a fraction of the calibrated
     *  closed-loop IOPS; split across the tenants without an explicit
     *  rate= in proportion to their weights. 0 = every tenant must
     *  carry its own rate. */
    double load = 0.0;
    /** Shared in-flight window of the WRR arbiter. */
    std::uint32_t window = 64;
    /** WRR burst: consecutive commands per weight unit per visit. */
    std::uint32_t arbBurst = 4;
    /** Closed-loop requests used to calibrate device capacity. */
    std::uint64_t calibrationRequests = 4000;
};

/** Contiguous logical-page slice owned by one tenant. */
struct TenantNamespace
{
    Lba base = 0;
    std::uint64_t pages = 0;
};

/** Measured outcome of one tenant stream. */
struct TenantRunResult
{
    std::string name;
    std::uint32_t weight = 1;
    SimTime sloTarget = 0;          ///< 0 = no SLO configured
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    /** Completions slower than the tenant's SLO target. */
    std::uint64_t sloViolations = 0;
    /** Arrival rate the open-loop process targeted (0 closed-loop). */
    double offeredRate = 0.0;
    double iops = 0.0;
    /** Per-IoType latency histograms (p50/p99/p99.9) + phases. */
    metrics::RequestMetrics metrics;
    /** Arbitration counters over the measured window. */
    ssd::SubmissionQueueStats arbitration;

    double
    sloViolationFraction() const
    {
        return completed == 0
            ? 0.0
            : static_cast<double>(sloViolations) /
                  static_cast<double>(completed);
    }
};

/** Outcome of one multi-tenant run. */
struct MultiTenantResult
{
    SimTime elapsed = 0;
    std::uint64_t completed = 0;
    double iops = 0.0;
    /** Closed-loop capacity the open-loop rates were derived from
     *  (0 = no calibration ran). */
    double calibratedIops = 0.0;
    std::vector<TenantRunResult> tenants;
    metrics::Utilization utilization;
};

class MultiTenantDriver final : public ssd::CompletionSink,
                                public sim::EventHandler
{
  public:
    MultiTenantDriver(ssd::Ssd &ssd, std::vector<TenantSpec> specs,
                      const MultiTenantOptions &options);

    /** prefillDevice() with one overwrite range per tenant: its
     *  generator's working set, or its whole namespace for a trace. */
    void prefill(double overwriteFraction = 0.3);

    /**
     * Closed-loop calibration: run `calibrationRequests` unmeasured
     * requests through the arbiter and record the aggregate IOPS that
     * open-loop rates derive from. run() invokes this automatically
     * when it is needed and has not been done.
     * @return the calibrated aggregate IOPS.
     */
    double calibrate();

    /** Run `requests` requests (summed over tenants) and measure. */
    MultiTenantResult run(std::uint64_t requests);

    std::uint32_t tenantCount() const
    {
        return static_cast<std::uint32_t>(tenants_.size());
    }
    /** The logical-page slice tenant `tenant` issues against. */
    const TenantNamespace &nameSpace(std::uint32_t tenant) const
    {
        return tenants_[tenant].ns;
    }

    /** ssd::CompletionSink: a tenant's request completed (ctx is the
     *  tenant index). */
    void onCompletion(const ssd::Completion &completion,
                      std::uint64_t ctx) override;

    /** sim::EventHandler: an open-loop tenant reached its next
     *  arrival epoch. */
    void onEvent(sim::EventKind kind,
                 const sim::EventPayload &payload) override;

  private:
    enum class Phase { Idle, Calibrate, Measure };

    struct TenantState
    {
        TenantSpec spec;
        TenantNamespace ns;
        /** Synthetic generator sized to the namespace (null for
         *  trace-driven tenants). */
        std::unique_ptr<WorkloadGenerator> generator;
        /** Trace content for trace-driven tenants (cycled). */
        std::vector<ssd::HostRequest> traceRequests;
        std::size_t traceCursor = 0;
        /** Open-loop arrival process (built when rates resolve). */
        std::unique_ptr<ArrivalProcess> arrivals;
        double rate = 0.0;  ///< resolved arrivals/s (open loop)
        std::uint64_t outstanding = 0;
        TenantRunResult result;
        /** Arbitration counters at the start of the measured window. */
        ssd::SubmissionQueueStats statsAtStart;
    };

    ssd::HostRequest nextRequest(TenantState &tenant);
    void submitOne(std::uint32_t tenant);
    void scheduleArrival(std::uint32_t tenant);
    void resolveRates();
    void runLoop();

    ssd::Ssd &ssd_;
    MultiTenantOptions options_;
    ssd::WrrArbiter arbiter_;
    std::vector<TenantState> tenants_;

    Phase phase_ = Phase::Idle;
    std::uint64_t toSubmit_ = 0;
    std::uint64_t outstanding_ = 0;
    std::uint64_t calibrationCompleted_ = 0;
    double calibratedIops_ = 0.0;
};

}  // namespace cubessd::workload

#endif  // CUBESSD_WORKLOAD_MULTI_TENANT_H
