#include "src/workload/driver.h"

#include "src/common/logging.h"
#include "src/common/units.h"

namespace cubessd::workload {

namespace {

/** Counts the prefill's writes in flight. */
struct PrefillSink final : ssd::CompletionSink
{
    std::uint64_t outstanding = 0;

    void onCompletion(const ssd::Completion &, std::uint64_t) override
    {
        --outstanding;
    }
};

}  // namespace

void
prefillDevice(ssd::Ssd &ssd, const std::vector<LbaRange> &overwrite,
              double overwriteFraction)
{
    constexpr std::uint64_t kChunk = 64;  // pages per fill write
    constexpr std::uint64_t kDepth = 64;  // writes in flight
    PrefillSink sink;
    // Step the queue until fewer than `limit` writes are in flight.
    auto waitBelow = [&](std::uint64_t limit) {
        while (sink.outstanding >= limit) {
            if (!ssd.queue().step())
                panic("prefill: queue drained with I/O outstanding");
        }
    };
    auto write = [&](Lba lba, std::uint64_t pages) {
        waitBelow(kDepth);
        ssd::HostRequest req;
        req.type = ssd::IoType::Write;
        req.lba = lba;
        req.pages = static_cast<std::uint32_t>(pages);
        ++sink.outstanding;
        ssd.hostQueue().submit(req, &sink);
    };

    // Phase 1: sequential fill of the whole logical space.
    const std::uint64_t fill = ssd.logicalPages();
    for (Lba lba = 0; lba < fill; lba += kChunk)
        write(lba, std::min(kChunk, fill - lba));
    waitBelow(1);

    // Phase 2: random overwrites to reach a GC-realistic state.
    Rng rng(ssd.config().seed ^ 0xFEEDFACEull);
    for (const LbaRange &range : overwrite) {
        auto n = static_cast<std::uint64_t>(
            static_cast<double>(range.pages) * overwriteFraction);
        for (; n > 0; --n)
            write(range.base + rng.uniformInt(range.pages), 1);
        waitBelow(1);
    }
    ssd.drain();
}

MeasuredWindow::MeasuredWindow(ssd::Ssd &ssd)
    : ssd_(ssd), start_(ssd.queue().now()),
      channelBusy0_(ssd.channelCount()), dieBusy0_(ssd.chipCount())
{
    for (std::uint32_t i = 0; i < ssd.channelCount(); ++i)
        channelBusy0_[i] = ssd.channel(i).busyTime();
    for (std::uint32_t i = 0; i < ssd.chipCount(); ++i)
        dieBusy0_[i] = ssd.chipUnit(i).busyTime();
}

metrics::Utilization
MeasuredWindow::utilization() const
{
    metrics::Utilization u;
    u.window = ssd_.queue().now() - start_;
    if (u.window == 0)
        return u;
    const auto window = static_cast<double>(u.window);
    u.channel.resize(channelBusy0_.size());
    for (std::size_t i = 0; i < u.channel.size(); ++i) {
        u.channel[i] = static_cast<double>(
            ssd_.channel(i).busyTime() - channelBusy0_[i]) / window;
    }
    u.die.resize(dieBusy0_.size());
    for (std::size_t i = 0; i < u.die.size(); ++i) {
        u.die[i] = static_cast<double>(
            ssd_.chipUnit(i).busyTime() - dieBusy0_[i]) / window;
    }
    return u;
}

void
RunResult::record(const ssd::Completion &c)
{
    requestMetrics.record(c);
    ++statusCounts[static_cast<std::size_t>(c.status)];
    ++completedRequests;
}

void
RunResult::close(const MeasuredWindow &window)
{
    utilization = window.utilization();
    elapsed = utilization.window;
    iops = elapsed > 0 ? static_cast<double>(completedRequests) /
                             toSeconds(elapsed)
                       : 0.0;
}

Driver::Driver(ssd::Ssd &ssd, WorkloadGenerator &generator)
    : ssd_(ssd), generator_(generator),
      pacingRng_(ssd.config().seed ^ 0xB0B0B0B0ull)
{
}

void
Driver::prefill(double overwriteFraction)
{
    prefillDevice(ssd_, {{0, generator_.workingSetPages()}},
                  overwriteFraction);
}

std::uint64_t
Driver::sampleBurstLength()
{
    // Bursts vary around the spec's mean (uniform +-50%): real hosts
    // do not emit fixed-size bursts, and the jitter also avoids
    // phase-locking between burst cycles and the device's drain time.
    const auto mean = generator_.spec().burstLength;
    const std::uint64_t lo = std::max<std::uint64_t>(1, mean / 2);
    return lo + pacingRng_.uniformInt(mean);
}

void
Driver::submitOne(std::uint32_t thread)
{
    ssd::HostRequest req = generator_.next();
    req.arrival = ssd_.queue().now();
    --toSubmit_;
    ++outstanding_;
    ++threads_[thread].outstanding;

    ssd_.hostQueue().submit(req, this, thread);
}

void
Driver::onCompletion(const ssd::Completion &c, std::uint64_t ctx)
{
    const auto thread = static_cast<std::uint32_t>(ctx);

    // Every measured request is awaited before run() returns and
    // nulls result_; a completion arriving with result_ == nullptr
    // means a request leaked past the measured window.
    if (result_ == nullptr)
        panic("Driver: completion after the measured window "
              "(id %llu)", static_cast<unsigned long long>(c.id));
    result_->record(c);
    --outstanding_;
    auto &t = threads_[thread];
    --t.outstanding;

    const auto &spec = generator_.spec();
    if (spec.burstLength == 0) {
        // Steady closed loop: replace the completed request.
        if (toSubmit_ > 0)
            submitOne(thread);
    } else if (t.outstanding == 0 && toSubmit_ > 0) {
        // This thread's burst completed: idle (exponential think
        // time around the spec's gap), then fire its next burst.
        const SimTime gap = static_cast<SimTime>(
            pacingRng_.exponential(
                static_cast<double>(spec.interBurstGap)));
        sim::EventPayload payload;
        payload.driverTick.thread = thread;
        ssd_.queue().schedule(gap, sim::EventKind::DriverTick, this,
                              payload);
    }
}

void
Driver::onEvent(sim::EventKind, const sim::EventPayload &payload)
{
    auto &t = threads_[payload.driverTick.thread];
    t.burstRemaining = sampleBurstLength();
    while (toSubmit_ > 0 && t.burstRemaining > 0) {
        --t.burstRemaining;
        submitOne(payload.driverTick.thread);
    }
}

RunResult
Driver::run(std::uint64_t requests)
{
    RunResult result;
    result_ = &result;
    toSubmit_ = requests;
    outstanding_ = 0;
    const MeasuredWindow window(ssd_);

    const auto &spec = generator_.spec();
    if (spec.burstLength == 0) {
        threads_.assign(1, ThreadState{});
        const std::uint64_t initial =
            std::min<std::uint64_t>(spec.queueDepth, toSubmit_);
        for (std::uint64_t i = 0; i < initial; ++i)
            submitOne(0);
    } else {
        // Independent burst loops, one per host thread: a straggling
        // request only stalls its own thread, as with a real
        // multi-threaded benchmark client.
        const std::uint32_t n = std::max<std::uint32_t>(1, spec.threads);
        threads_.assign(n, ThreadState{});
        for (std::uint32_t t = 0; t < n && toSubmit_ > 0; ++t) {
            auto &ts = threads_[t];
            ts.burstRemaining = sampleBurstLength();
            while (toSubmit_ > 0 && ts.burstRemaining > 0) {
                --ts.burstRemaining;
                submitOne(t);
            }
        }
    }

    while ((toSubmit_ > 0 || outstanding_ > 0) && ssd_.queue().step()) {
    }
    if (toSubmit_ > 0 || outstanding_ > 0)
        panic("Driver::run: queue drained with requests pending");

    result.close(window);
    result_ = nullptr;
    return result;
}

}  // namespace cubessd::workload
