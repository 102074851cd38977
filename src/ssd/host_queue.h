/**
 * @file
 * NVMe-style host submission/completion queue with a bounded queue
 * depth.
 *
 * The host queue is the first stage of the request pipeline: every
 * host request enters here, is admitted into the FTL when a device
 * slot is free, and is timestamped at three points — arrival
 * (submission), start (dispatch into the FTL), and finish
 * (completion). With depth 0 the queue is unbounded and every request
 * is dispatched at its arrival time, reproducing the original
 * fire-and-forget `Ssd::submit` path exactly; with depth N > 0 the
 * (N+1)-th in-flight submission waits (backpressure) until a
 * completion frees a slot, which is what makes closed-loop QD sweeps
 * and queueing-delay attribution possible.
 *
 * The hot path is allocation-free: admission is a typed event, FTL
 * completions come back through the CompletionSink interface with a
 * pooled per-request record, and the wait line is a flat ring.
 */

#ifndef CUBESSD_SSD_HOST_QUEUE_H
#define CUBESSD_SSD_HOST_QUEUE_H

#include <cstdint>

#include "src/common/pool.h"
#include "src/common/ring_deque.h"
#include "src/sim/event_queue.h"
#include "src/ssd/request.h"

namespace cubessd::ftl {
class Ftl;
}
namespace cubessd::trace {
class TraceSession;
}

namespace cubessd::ssd {

/** Cumulative host-queue counters. */
struct HostQueueStats
{
    std::uint64_t submitted = 0;   ///< requests entered
    std::uint64_t completed = 0;   ///< requests finished
    std::uint64_t blockedSubmissions = 0;  ///< had to wait for a slot
    std::uint64_t maxWaiting = 0;  ///< high-water mark of the wait line
    SimTime queueWaitSum = 0;      ///< total arrival -> start
    SimTime latencySum = 0;        ///< total arrival -> finish

    double
    avgQueueWaitUs() const
    {
        return completed == 0
            ? 0.0
            : static_cast<double>(queueWaitSum) / 1000.0 /
                  static_cast<double>(completed);
    }

    double
    avgLatencyUs() const
    {
        return completed == 0
            ? 0.0
            : static_cast<double>(latencySum) / 1000.0 /
                  static_cast<double>(completed);
    }
};

class HostQueue final : public sim::EventHandler, public CompletionSink
{
  public:
    /** @param depth  max in-flight requests; 0 = unbounded. wire() the
     *  queue before submitting. */
    explicit HostQueue(std::uint32_t depth) : depth_(depth) {}

    /** Link the queue to the FTL it feeds and the device's event
     *  queue. */
    void
    wire(ftl::Ftl &ftl, sim::EventQueue &queue)
    {
        ftl_ = &ftl;
        queue_ = &queue;
    }

    /**
     * Submit a request. It arrives at max(now, req.arrival), waits for
     * a free slot if the queue is at depth, and the completion is
     * delivered to `sink` (with `ctx` passed back verbatim) with all
     * three timestamps, the Status, and the request's tenant tag
     * filled in.
     * @return the request id (req.id, or a fresh id if it was 0).
     */
    RequestId submit(HostRequest req, CompletionSink *sink,
                     std::uint64_t ctx = 0);

    std::uint32_t depth() const { return depth_; }
    std::uint64_t inFlight() const { return inFlight_; }
    /** Submissions currently waiting for a slot. */
    std::size_t waiting() const { return waiting_.size(); }
    const HostQueueStats &stats() const { return stats_; }

    /** Fold the id counter, occupancy and statistics in. */
    void
    hashState(StateHash &h) const
    {
        h.add(depth_).add(inFlight_).add(nextId_).add(waiting_.size());
        h.add(stats_);
    }

    /** Record per-request async spans (cat "request", id = request
     *  id): request > queue_wait > device (observation only). */
    void setTrace(trace::TraceSession *session) { trace_ = session; }

    /** sim::EventHandler: a submitted request reached its arrival. */
    void onEvent(sim::EventKind kind,
                 const sim::EventPayload &payload) override;

    /** CompletionSink: the FTL finished a dispatched request. */
    void onCompletion(const Completion &completion,
                      std::uint64_t ctx) override;

  private:
    /** A submission parked behind the queue-depth limit. */
    struct Waiter
    {
        HostRequest req{};
        CompletionSink *sink = nullptr;
        std::uint64_t ctx = 0;
    };

    /** Pooled per-request state between dispatch and completion. */
    struct Record
    {
        CompletionSink *sink = nullptr;
        std::uint64_t ctx = 0;
        SimTime started = 0;
        TenantId tenant = kNoTenant;
    };

    void admit(const HostRequest &req, CompletionSink *sink,
               std::uint64_t ctx);
    void start(const HostRequest &req, CompletionSink *sink,
               std::uint64_t ctx);
    void drainWaiting();

    sim::EventQueue *queue_ = nullptr;  ///< link, set by wire()
    ftl::Ftl *ftl_ = nullptr;           ///< link, set by wire()
    std::uint32_t depth_;
    std::uint64_t inFlight_ = 0;
    std::uint64_t nextId_ = 1;
    RingDeque<Waiter> waiting_;
    ObjectPool<Record> records_;
    HostQueueStats stats_;
    trace::TraceSession *trace_ = nullptr;
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_HOST_QUEUE_H
