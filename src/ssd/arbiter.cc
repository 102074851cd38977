#include "src/ssd/arbiter.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/prof/prof.h"

namespace cubessd::ssd {

WrrArbiter::WrrArbiter(HostQueue &hostQueue, const ArbiterConfig &config)
    : hostQueue_(hostQueue), config_(config)
{
    if (config_.window == 0 || config_.burst == 0)
        panic("WrrArbiter: window and burst must be at least 1");
}

std::uint32_t
WrrArbiter::addQueue(std::uint32_t weight)
{
    if (weight == 0)
        panic("WrrArbiter: queue weight must be at least 1");
    queues_.push_back(SubmissionQueue{weight, {}, {}});
    return static_cast<std::uint32_t>(queues_.size() - 1);
}

void
WrrArbiter::submit(std::uint32_t queue, const HostRequest &req,
                   CompletionSink *sink, std::uint64_t ctx)
{
    PROF_SCOPE(prof::Slot::SsdArbiter);
    auto &sq = queues_[queue];
    sq.pending.push_back(Waiter{req, sink, ctx});
    ++sq.stats.submitted;
    sq.stats.maxBacklog =
        std::max<std::uint64_t>(sq.stats.maxBacklog, sq.pending.size());
    ++backlogTotal_;
    pump();
}

void
WrrArbiter::pump()
{
    PROF_SCOPE(prof::Slot::SsdArbiter);
    while (inFlight_ < config_.window && backlogTotal_ > 0) {
        if (credits_ == 0 || queues_[current_].pending.empty())
            advance();
        dispatchFrom(current_);
    }
}

void
WrrArbiter::advance()
{
    // Round-robin to the next backlogged queue; a queue's credit
    // budget per visit is weight * burst consecutive commands. The
    // scan wraps to `current_` itself, so a lone backlogged queue
    // simply refreshes its credits.
    const auto n = static_cast<std::uint32_t>(queues_.size());
    for (std::uint32_t i = 1; i <= n; ++i) {
        const std::uint32_t q = (current_ + i) % n;
        if (!queues_[q].pending.empty()) {
            current_ = q;
            credits_ = std::uint64_t{queues_[q].weight} * config_.burst;
            return;
        }
    }
    panic("WrrArbiter: no backlogged queue despite backlogTotal %llu",
          static_cast<unsigned long long>(backlogTotal_));
}

bool
WrrArbiter::dispatchFrom(std::uint32_t queue)
{
    auto &sq = queues_[queue];
    const Waiter waiter = sq.pending.front();
    sq.pending.pop_front();
    --backlogTotal_;
    ++sq.stats.dispatched;
    ++inFlight_;
    --credits_;

    Pending *record = records_.acquire();
    record->sink = waiter.sink;
    record->ctx = waiter.ctx;
    record->queue = queue;
    record->arrival = waiter.req.arrival;
    hostQueue_.submit(waiter.req, this,
                      reinterpret_cast<std::uint64_t>(record));
    return true;
}

void
WrrArbiter::onCompletion(const Completion &completion, std::uint64_t ctx)
{
    PROF_SCOPE(prof::Slot::SsdArbiter);
    auto *record = reinterpret_cast<Pending *>(ctx);
    CompletionSink *sink = record->sink;
    const std::uint64_t downstreamCtx = record->ctx;
    ++queues_[record->queue].stats.completed;

    // HostQueue stamped arrival with the dispatch instant; restore the
    // original submission time so latency() and queueWait() include
    // the time parked in the submission queue.
    Completion out = completion;
    out.arrival = record->arrival;
    out.phases.queueWait = out.start - out.arrival;
    records_.release(record);

    --inFlight_;
    // Hand the freed window slot to the backlogged queues before the
    // host sees the completion (matches HostQueue's drain-first
    // convention, so WRR order never depends on host reaction time).
    pump();
    if (sink != nullptr)
        sink->onCompletion(out, downstreamCtx);
}

}  // namespace cubessd::ssd
