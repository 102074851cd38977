#include "src/ssd/host_queue.h"

#include <algorithm>

#include "src/ftl/ftl.h"
#include "src/prof/prof.h"
#include "src/trace/trace.h"

namespace cubessd::ssd {

namespace {

const char *
requestSpanName(IoType type)
{
    return type == IoType::Read ? "read" : "write";
}

}  // namespace

RequestId
HostQueue::submit(HostRequest req, CompletionSink *sink,
                  std::uint64_t ctx)
{
    PROF_SCOPE(prof::Slot::SsdHostQueue);
    if (req.id == 0)
        req.id = nextId_++;
    req.arrival = std::max(req.arrival, queue_->now());
    ++stats_.submitted;
    sim::EventPayload payload;
    payload.hostAdmit = {sink, ctx,      req.id, req.lba,
                         req.arrival,
                         req.pages,
                         static_cast<std::uint8_t>(req.type),
                         req.tenant,
                         req.namespaceId};
    queue_->scheduleAt(req.arrival, sim::EventKind::HostAdmit, this,
                      payload);
    // The read's mapping entries load while the admit event waits.
    if (req.type == IoType::Read)
        ftl_->prefetchRead(req.lba, req.pages);
    return req.id;
}

void
HostQueue::onEvent(sim::EventKind, const sim::EventPayload &payload)
{
    const auto &a = payload.hostAdmit;
    HostRequest req;
    req.id = a.id;
    req.type = static_cast<IoType>(a.type);
    req.lba = a.lba;
    req.pages = a.pages;
    req.arrival = a.arrival;
    req.tenant = a.tenant;
    req.namespaceId = a.namespaceId;
    admit(req, static_cast<CompletionSink *>(a.sink), a.sinkCtx);
}

void
HostQueue::admit(const HostRequest &req, CompletionSink *sink,
                 std::uint64_t ctx)
{
    PROF_SCOPE(prof::Slot::SsdHostQueue);
    if (trace_ != nullptr) {
        PROF_SCOPE(prof::Slot::ObsMetricsTrace);
        // One async group per request id, nested begin/end: the outer
        // span is the whole request, queue_wait and device partition
        // its lifetime. Tenant-tagged requests carry their stream id
        // so Perfetto queries can slice the timeline per tenant.
        if (req.tenant != kNoTenant) {
            trace_->asyncBegin(
                "request", requestSpanName(req.type), req.id,
                queue_->now(),
                {{"lba", static_cast<std::int64_t>(req.lba)},
                 {"pages", req.pages},
                 {"tenant", req.tenant},
                 {"namespace", req.namespaceId}});
        } else {
            trace_->asyncBegin(
                "request", requestSpanName(req.type), req.id,
                queue_->now(),
                {{"lba", static_cast<std::int64_t>(req.lba)},
                 {"pages", req.pages}});
        }
        trace_->asyncBegin("request", "queue_wait", req.id,
                           queue_->now());
    }
    if (depth_ != 0 && inFlight_ >= depth_) {
        ++stats_.blockedSubmissions;
        waiting_.push_back(Waiter{req, sink, ctx});
        stats_.maxWaiting =
            std::max<std::uint64_t>(stats_.maxWaiting, waiting_.size());
        return;
    }
    start(req, sink, ctx);
}

void
HostQueue::start(const HostRequest &req, CompletionSink *sink,
                 std::uint64_t ctx)
{
    PROF_SCOPE(prof::Slot::SsdHostQueue);
    ++inFlight_;
    const SimTime started = queue_->now();
    stats_.queueWaitSum += started - req.arrival;
    if (trace_ != nullptr) {
        PROF_SCOPE(prof::Slot::ObsMetricsTrace);
        trace_->asyncEnd("request", "queue_wait", req.id, started);
        trace_->asyncBegin("request", "device", req.id, started);
    }

    Record *record = records_.acquire();
    record->sink = sink;
    record->ctx = ctx;
    record->started = started;
    record->tenant = req.tenant;

    if (req.type == IoType::Read)
        ftl_->hostRead(req, this, reinterpret_cast<std::uint64_t>(record));
    else
        ftl_->hostWrite(req, this,
                       reinterpret_cast<std::uint64_t>(record));
}

void
HostQueue::onCompletion(const Completion &completion, std::uint64_t ctx)
{
    PROF_SCOPE(prof::Slot::SsdHostQueue);
    auto *record = reinterpret_cast<Record *>(ctx);
    Completion out = completion;
    out.start = record->started;
    out.tenant = record->tenant;
    out.phases.queueWait = out.start - out.arrival;
    CompletionSink *sink = record->sink;
    const std::uint64_t downstreamCtx = record->ctx;
    records_.release(record);

    --inFlight_;
    ++stats_.completed;
    stats_.latencySum += out.latency();
    if (trace_ != nullptr) {
        PROF_SCOPE(prof::Slot::ObsMetricsTrace);
        trace_->asyncEnd("request", "device", out.id, queue_->now());
        trace_->asyncEnd("request", requestSpanName(out.type), out.id,
                         queue_->now());
    }
    // Hand the freed slot to the oldest waiter before the host sees
    // the completion, so backpressure release is FIFO.
    drainWaiting();
    if (sink != nullptr)
        sink->onCompletion(out, downstreamCtx);
}

void
HostQueue::drainWaiting()
{
    while (!waiting_.empty() &&
           (depth_ == 0 || inFlight_ < depth_)) {
        const Waiter waiter = waiting_.front();
        waiting_.pop_front();
        start(waiter.req, waiter.sink, waiter.ctx);
    }
}

}  // namespace cubessd::ssd
