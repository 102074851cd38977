/**
 * @file
 * NVMe-style submission-queue set with weighted-round-robin
 * arbitration.
 *
 * Real hosts do not share one FIFO: each tenant (VM, container,
 * namespace) owns a submission queue, and the controller arbitrates
 * between the queues — NVMe's optional WRR arbitration — before
 * commands enter the shared device. WrrArbiter reproduces that stage
 * in front of ssd::HostQueue:
 *
 *  - addQueue(weight) registers one submission queue per tenant;
 *  - submit() appends to the tenant's queue at the request's arrival
 *    time (the queue is the per-tenant backlog);
 *  - a WRR scan dispatches into the HostQueue whenever the shared
 *    in-flight window has room: the arbiter visits queues round-robin
 *    and lets the current queue issue up to `weight * burst`
 *    consecutive commands before moving on, so a weight-3 tenant gets
 *    ~3x the dispatch slots of a weight-1 tenant while both are
 *    backlogged, and an idle queue costs nothing.
 *
 * The arbiter owns the in-flight window (`ArbiterConfig::window`);
 * the underlying HostQueue should be unbounded (depth 0) so its FIFO
 * wait line never reorders what the arbiter decided. Queueing delay
 * spent in a submission queue is visible in the completion's
 * queueWait (arrival -> dispatch), exactly like HostQueue
 * backpressure. Dispatch order is deterministic: same submissions,
 * same weights => same interleaving, independent of wall-clock.
 */

#ifndef CUBESSD_SSD_ARBITER_H
#define CUBESSD_SSD_ARBITER_H

#include <cstdint>
#include <vector>

#include "src/common/pool.h"
#include "src/common/ring_deque.h"
#include "src/ssd/host_queue.h"
#include "src/ssd/request.h"

namespace cubessd::ssd {

struct ArbiterConfig
{
    /** Max requests dispatched into the device and not yet completed
     *  (the shared queue-depth window). Must be >= 1. */
    std::uint32_t window = 64;
    /** Consecutive commands a queue of weight 1 may issue per WRR
     *  visit; a queue of weight w issues up to w * burst. Must be
     *  >= 1. */
    std::uint32_t burst = 4;
};

/** Cumulative per-queue arbitration counters. */
struct SubmissionQueueStats
{
    std::uint64_t submitted = 0;   ///< requests entered the queue
    std::uint64_t dispatched = 0;  ///< requests issued to the device
    std::uint64_t completed = 0;
    std::uint64_t maxBacklog = 0;  ///< high-water mark of the queue
};

class WrrArbiter final : public CompletionSink
{
  public:
    WrrArbiter(HostQueue &hostQueue, const ArbiterConfig &config);

    WrrArbiter(const WrrArbiter &) = delete;
    WrrArbiter &operator=(const WrrArbiter &) = delete;

    /** Register one submission queue. @return its index. */
    std::uint32_t addQueue(std::uint32_t weight);

    /**
     * Append a request to submission queue `queue`. If the shared
     * window has room and the WRR scan reaches this queue, it is
     * dispatched immediately (same simulated instant); otherwise it
     * waits in the queue. The completion is delivered to `sink` with
     * `ctx` passed back verbatim, tenant tag and all timestamps
     * filled in (arrival = submission here, start = dispatch).
     */
    void submit(std::uint32_t queue, const HostRequest &req,
                CompletionSink *sink, std::uint64_t ctx = 0);

    /** Requests dispatched and not yet completed. */
    std::uint32_t inFlight() const { return inFlight_; }
    const SubmissionQueueStats &stats(std::uint32_t queue) const
    {
        return queues_[queue].stats;
    }

    /** CompletionSink: the device finished a dispatched request. */
    void onCompletion(const Completion &completion,
                      std::uint64_t ctx) override;

  private:
    /** A request parked in a submission queue. */
    struct Waiter
    {
        HostRequest req{};
        CompletionSink *sink = nullptr;
        std::uint64_t ctx = 0;
    };

    /** Pooled per-dispatch state (who to notify on completion). */
    struct Pending
    {
        CompletionSink *sink = nullptr;
        std::uint64_t ctx = 0;
        std::uint32_t queue = 0;
        /** Original submission time; HostQueue clamps arrival up to
         *  the dispatch instant, so the arbiter restores it to keep
         *  submission-queue wait inside latency() / queueWait(). */
        SimTime arrival = 0;
    };

    struct SubmissionQueue
    {
        std::uint32_t weight = 1;
        RingDeque<Waiter> pending;
        SubmissionQueueStats stats;
    };

    void pump();
    bool dispatchFrom(std::uint32_t queue);
    void advance();

    HostQueue &hostQueue_;
    ArbiterConfig config_;
    std::vector<SubmissionQueue> queues_;
    ObjectPool<Pending> records_;
    std::uint32_t inFlight_ = 0;
    std::size_t backlogTotal_ = 0;
    /** WRR scan state: current queue and its remaining credits
     *  (weight * burst needs 64 bits: both factors reach 2^32 - 1). */
    std::uint32_t current_ = 0;
    std::uint64_t credits_ = 0;
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_ARBITER_H
