#include "src/workload/multi_tenant.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/workload/driver.h"
#include "src/workload/trace.h"

namespace cubessd::workload {

namespace {

/** Requests each tenant keeps in flight in closed-loop mode (and
 *  during calibration). */
constexpr std::uint32_t kClosedLoopQd = 16;

ssd::SubmissionQueueStats
statsDelta(const ssd::SubmissionQueueStats &now,
           const ssd::SubmissionQueueStats &before)
{
    ssd::SubmissionQueueStats delta;
    delta.submitted = now.submitted - before.submitted;
    delta.dispatched = now.dispatched - before.dispatched;
    delta.completed = now.completed - before.completed;
    delta.maxBacklog = now.maxBacklog;  // high-water mark, not a count
    return delta;
}

}  // namespace

MultiTenantDriver::MultiTenantDriver(ssd::Ssd &ssd,
                                     std::vector<TenantSpec> specs,
                                     const MultiTenantOptions &options)
    : ssd_(ssd), options_(options),
      arbiter_(ssd.hostQueue(),
               ssd::ArbiterConfig{options.window, options.arbBurst})
{
    const std::string err = validateTenants(specs);
    if (!err.empty())
        fatal("MultiTenantDriver: %s", err.c_str());
    if (ssd_.hostQueue().depth() != 0)
        fatal("MultiTenantDriver: the arbiter owns the in-flight "
              "window; configure hostQueueDepth 0 (got %u)",
              ssd_.hostQueue().depth());

    // Carve the logical space into per-tenant namespaces: explicit
    // fractions first, the rest shared equally by the tenants that
    // left theirs defaulted.
    const std::uint64_t total = ssd_.logicalPages();
    double explicitSum = 0.0;
    std::size_t defaulted = 0;
    for (const auto &spec : specs) {
        if (spec.namespaceFraction == 0.0)
            ++defaulted;
        explicitSum += spec.namespaceFraction;
    }
    const double defaultFraction =
        defaulted > 0 ? (1.0 - explicitSum) /
                            static_cast<double>(defaulted)
                      : 0.0;

    Lba base = 0;
    tenants_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        TenantState state;
        state.spec = std::move(specs[i]);
        const double fraction = state.spec.namespaceFraction > 0.0
                                    ? state.spec.namespaceFraction
                                    : defaultFraction;
        state.ns.base = base;
        state.ns.pages = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(total) * fraction));
        if (base + state.ns.pages > total)
            state.ns.pages = total - base;
        if (state.ns.pages == 0)
            fatal("MultiTenantDriver: namespace of tenant '%s' is "
                  "empty — device too small for this partition",
                  state.spec.name.c_str());
        base += state.ns.pages;

        const std::uint64_t seed =
            ssd_.config().seed ^
            (0x7E4A7C15u + 0x9E3779B9ull * (i + 1));
        if (!state.spec.trace.empty()) {
            state.traceRequests =
                TraceReader::readFile(state.spec.trace);
            if (state.traceRequests.empty())
                fatal("MultiTenantDriver: trace '%s' of tenant '%s' "
                      "is empty",
                      state.spec.trace.c_str(),
                      state.spec.name.c_str());
        } else {
            state.generator = std::make_unique<WorkloadGenerator>(
                state.spec.workload, state.ns.pages, seed);
        }
        state.rate = state.spec.rate;
        state.result.name = state.spec.name;
        state.result.weight = state.spec.weight;
        state.result.sloTarget = state.spec.sloTarget;
        arbiter_.addQueue(state.spec.weight);
        tenants_.push_back(std::move(state));
    }
}

void
MultiTenantDriver::prefill(double overwriteFraction)
{
    // Straight into the host queue (setup traffic does not
    // arbitrate); every namespace gets its own overwrite range, so
    // each partition starts with GC-realistic invalidation.
    std::vector<LbaRange> ranges;
    for (const auto &tenant : tenants_) {
        ranges.push_back({tenant.ns.base,
                          tenant.generator != nullptr
                              ? tenant.generator->workingSetPages()
                              : tenant.ns.pages});
    }
    prefillDevice(ssd_, ranges, overwriteFraction);
}

ssd::HostRequest
MultiTenantDriver::nextRequest(TenantState &tenant)
{
    if (tenant.generator != nullptr) {
        ssd::HostRequest req = tenant.generator->next();
        req.lba += tenant.ns.base;
        return req;
    }
    // Trace-driven content: cycle the records, folding the trace's
    // address space onto the tenant's namespace. Recorded arrival
    // times are ignored — pacing comes from the arrival process.
    const ssd::HostRequest &rec =
        tenant.traceRequests[tenant.traceCursor];
    tenant.traceCursor =
        (tenant.traceCursor + 1) % tenant.traceRequests.size();
    ssd::HostRequest req;
    req.type = rec.type;
    const Lba offset = rec.lba % tenant.ns.pages;
    req.lba = tenant.ns.base + offset;
    req.pages = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(rec.pages,
                                   tenant.ns.pages - offset)));
    return req;
}

void
MultiTenantDriver::submitOne(std::uint32_t tenant)
{
    auto &state = tenants_[tenant];
    ssd::HostRequest req = nextRequest(state);
    req.arrival = ssd_.queue().now();
    req.tenant = static_cast<ssd::TenantId>(tenant + 1);
    req.namespaceId = static_cast<std::uint16_t>(tenant + 1);

    --toSubmit_;
    ++outstanding_;
    ++state.outstanding;
    if (phase_ == Phase::Measure)
        ++state.result.submitted;
    arbiter_.submit(tenant, req, this, tenant);
}

void
MultiTenantDriver::scheduleArrival(std::uint32_t tenant)
{
    sim::EventPayload payload;
    payload.tenantArrival.tenant = tenant;
    ssd_.queue().schedule(tenants_[tenant].arrivals->nextGap(),
                          sim::EventKind::TenantArrival, this, payload);
}

void
MultiTenantDriver::onEvent(sim::EventKind,
                           const sim::EventPayload &payload)
{
    // Arrival epochs scheduled near the end of a run can fire after
    // the measured window closed (drain, or a later queue run);
    // demand simply stops then.
    if (phase_ != Phase::Measure || toSubmit_ == 0)
        return;
    const std::uint32_t tenant = payload.tenantArrival.tenant;
    auto &state = tenants_[tenant];
    const std::uint32_t batch = state.arrivals->batchSize();
    for (std::uint32_t i = 0; i < batch && toSubmit_ > 0; ++i)
        submitOne(tenant);
    if (toSubmit_ > 0)
        scheduleArrival(tenant);
}

void
MultiTenantDriver::onCompletion(const ssd::Completion &c,
                                std::uint64_t ctx)
{
    const auto tenant = static_cast<std::uint32_t>(ctx);
    auto &state = tenants_[tenant];
    --state.outstanding;
    --outstanding_;

    if (phase_ == Phase::Measure) {
        ++state.result.completed;
        state.result.metrics.record(c);
        if (state.spec.sloTarget > 0 &&
            c.latency() > state.spec.sloTarget)
            ++state.result.sloViolations;
    } else if (phase_ == Phase::Calibrate) {
        ++calibrationCompleted_;
    } else {
        panic("MultiTenantDriver: completion outside a run "
              "(id %llu)", static_cast<unsigned long long>(c.id));
    }

    // Closed loop (and calibration): replace the completed request
    // from the same tenant stream so its depth stays constant.
    const bool closedLoop =
        phase_ == Phase::Calibrate || !options_.openLoop;
    if (closedLoop && toSubmit_ > 0)
        submitOne(tenant);
}

void
MultiTenantDriver::runLoop()
{
    while ((toSubmit_ > 0 || outstanding_ > 0) && ssd_.queue().step()) {
    }
    if (toSubmit_ > 0 || outstanding_ > 0)
        panic("MultiTenantDriver: queue drained with requests pending");
}

double
MultiTenantDriver::calibrate()
{
    if (phase_ != Phase::Idle)
        panic("MultiTenantDriver::calibrate: run in progress");
    phase_ = Phase::Calibrate;
    toSubmit_ = options_.calibrationRequests;
    calibrationCompleted_ = 0;
    const SimTime start = ssd_.queue().now();

    // Interleave the initial window fill across tenants so no queue
    // gets a head start.
    for (std::uint32_t d = 0; d < kClosedLoopQd; ++d)
        for (std::uint32_t t = 0;
             t < tenantCount() && toSubmit_ > 0; ++t)
            submitOne(t);
    runLoop();

    const SimTime elapsed = ssd_.queue().now() - start;
    calibratedIops_ = elapsed > 0
        ? static_cast<double>(calibrationCompleted_) / toSeconds(elapsed)
        : 0.0;
    phase_ = Phase::Idle;
    return calibratedIops_;
}

void
MultiTenantDriver::resolveRates()
{
    double weightSum = 0.0;
    for (auto &tenant : tenants_)
        if (tenant.spec.rate == 0.0)
            weightSum += static_cast<double>(tenant.spec.weight);

    if (weightSum > 0.0) {
        if (options_.load <= 0.0)
            fatal("MultiTenantDriver: open-loop tenants without an "
                  "explicit rate need an offered-load factor");
        if (calibratedIops_ == 0.0)
            calibrate();
        const double aggregate = options_.load * calibratedIops_;
        for (auto &tenant : tenants_)
            if (tenant.spec.rate == 0.0)
                tenant.rate = aggregate *
                              static_cast<double>(tenant.spec.weight) /
                              weightSum;
    }

    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        auto &tenant = tenants_[t];
        const std::uint64_t seed =
            ssd_.config().seed ^
            (0xA11CEull + 0xD1B54A32ull * (t + 1));
        tenant.arrivals = std::make_unique<ArrivalProcess>(
            tenant.spec.arrival, tenant.rate, tenant.spec.burstMean,
            seed);
    }
}

MultiTenantResult
MultiTenantDriver::run(std::uint64_t requests)
{
    if (phase_ != Phase::Idle)
        panic("MultiTenantDriver::run: run in progress");
    if (options_.openLoop)
        resolveRates();  // may run an unmeasured calibration phase

    phase_ = Phase::Measure;
    toSubmit_ = requests;
    const MeasuredWindow window(ssd_);

    for (std::uint32_t t = 0; t < tenantCount(); ++t) {
        auto &state = tenants_[t];
        state.result.submitted = 0;
        state.result.completed = 0;
        state.result.sloViolations = 0;
        state.result.metrics = metrics::RequestMetrics{};
        state.result.offeredRate = options_.openLoop ? state.rate : 0.0;
        state.statsAtStart = arbiter_.stats(t);
    }

    if (options_.openLoop) {
        for (std::uint32_t t = 0;
             t < tenantCount() && toSubmit_ > 0; ++t)
            scheduleArrival(t);
    } else {
        for (std::uint32_t d = 0; d < kClosedLoopQd; ++d)
            for (std::uint32_t t = 0;
                 t < tenantCount() && toSubmit_ > 0; ++t)
                submitOne(t);
    }
    runLoop();

    MultiTenantResult result;
    result.utilization = window.utilization();
    result.elapsed = result.utilization.window;
    result.calibratedIops = calibratedIops_;
    const double seconds = toSeconds(result.elapsed);
    result.tenants.reserve(tenantCount());
    for (std::uint32_t t = 0; t < tenantCount(); ++t) {
        auto &state = tenants_[t];
        state.result.iops =
            seconds > 0.0
                ? static_cast<double>(state.result.completed) / seconds
                : 0.0;
        state.result.arbitration =
            statsDelta(arbiter_.stats(t), state.statsAtStart);
        result.completed += state.result.completed;
        result.tenants.push_back(state.result);
    }
    result.iops = seconds > 0.0
        ? static_cast<double>(result.completed) / seconds
        : 0.0;
    phase_ = Phase::Idle;
    return result;
}

}  // namespace cubessd::workload
