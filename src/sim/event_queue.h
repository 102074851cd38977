/**
 * @file
 * Discrete-event simulation core.
 *
 * The SSD model is driven by a single-threaded event queue: every hardware
 * latency (NAND program, bus transfer, buffer flush) is an event scheduled
 * at an absolute SimTime. Events at equal times fire in scheduling order
 * (stable FIFO tie-break) so runs are deterministic.
 *
 * Implementation: a calendar queue (Brown, CACM 1988) over pooled typed
 * event records.
 *
 *  - Events live in a free-list pool backed by chunked arrays; once the
 *    pool has warmed up, scheduling allocates nothing.
 *  - The calendar is a power-of-2 array of buckets, each a singly-linked
 *    list kept sorted by (when, seq). An event at time `t` hashes to
 *    bucket `(t >> kWidthLog2) & mask`, i.e. buckets are "days" of
 *    2^kWidthLog2 ns and the array is a repeating "year".
 *  - Dequeue walks the bucket cursor forward one day at a time; a bucket
 *    head is due when its time falls inside the cursor's current day.
 *    If a full rotation finds nothing due (all events more than a year
 *    out), the minimum head seen during the rotation — which is the
 *    global minimum — is used directly and the cursor jumps to its day.
 *  - One occupancy bit per bucket lets the walk jump over a run of
 *    empty days with one count-trailing-zeros per 64 buckets. The jump
 *    advances the cursor exactly as the day-by-day walk would, so the
 *    cursor (and hashState) never differ from it.
 *  - Two events with equal `when` always hash to the same bucket, and
 *    bucket lists are FIFO within equal times, so the seed's stable
 *    tie-break (and thus bit-identical runs) is preserved.
 *
 * Every event is typed (EventKind + EventHandler target + POD payload)
 * and dispatches via one virtual call with no heap traffic.
 */

#ifndef CUBESSD_SIM_EVENT_QUEUE_H
#define CUBESSD_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/state_hash.h"
#include "src/common/types.h"
#include "src/sim/event.h"

namespace cubessd::sim {

/** Callback type invoked at each sampling boundary (see setSampler). */
using SamplerFn = std::function<void(SimTime)>;

/**
 * A time-ordered queue of events with a simulated clock.
 *
 * Usage (alloc-free once the pool is warm):
 * @code
 *   EventPayload p;
 *   p.driverTick.thread = 3;
 *   eq.schedule(500 * kNanosecond, EventKind::DriverTick, this, p);
 *   eq.run();                  // drains all events
 * @endcode
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    /**
     * Copy an empty queue: the clock, the sequence and fired counters
     * and the calendar's shape and cursor, so the copy dequeues
     * exactly as the source would. Panics if events are pending; no
     * sampler is copied.
     */
    EventQueue(const EventQueue &other);
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule a typed event `delay` after the current time.
     * @return the absolute fire time.
     */
    SimTime
    schedule(SimTime delay, EventKind kind, EventHandler *target,
             const EventPayload &payload = EventPayload{})
    {
        const SimTime when = now_ + delay;
        scheduleAt(when, kind, target, payload);
        return when;
    }

    /** Schedule a typed event at an absolute time (must be >= now()). */
    void scheduleAt(SimTime when, EventKind kind, EventHandler *target,
                    const EventPayload &payload = EventPayload{});

    /** @return true if no events remain. */
    bool empty() const { return pending_ == 0; }

    /** @return number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Total events fired over the queue's lifetime (perf metric). */
    std::uint64_t fired() const { return fired_; }

    /**
     * Fire the earliest event, advancing the clock to its time.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * step() until the queue is empty, under one profiler scope.
     * @return number of events fired.
     */
    std::uint64_t run();

    /**
     * Install a periodic sampling hook: before each event fires, `fn`
     * is called once per elapsed `interval` boundary (clock set to the
     * boundary time), so counters are observed on a fixed simulated
     * cadence without keeping the queue alive with self-rescheduling
     * events — run() still terminates when real work runs out, and
     * sampling never fires past the last event. The hook must be
     * observation-only: it may not schedule events or mutate model
     * state, or runs would no longer be reproducible without it.
     * Boundaries coinciding with an event sample *before* the event.
     * An interval of 0 or an empty fn disables sampling.
     */
    void setSampler(SimTime interval, SamplerFn fn);

    /** Event records ever allocated (pool high-water; test/bench hook). */
    std::size_t poolCapacity() const { return poolCapacity_; }

    /** Current number of calendar buckets (test hook). */
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Fold the clock, counters and calendar cursor in. */
    void hashState(StateHash &h) const;

  private:
    /** Pooled event record; `next` doubles as bucket and free-list link. */
    struct Event
    {
        SimTime when = 0;
        std::uint64_t seq = 0;   // FIFO tie-break for equal times
        Event *next = nullptr;
        EventHandler *target = nullptr;
        EventKind kind = EventKind::Generic;
        EventPayload payload;
    };

    /** Bucket ("day") width in log2 nanoseconds. */
    static constexpr unsigned kWidthLog2 = 10;
    static constexpr SimTime kBucketWidth = SimTime{1} << kWidthLog2;
    static constexpr std::size_t kInitialBuckets = 1024;  // multiple of 64
    static constexpr std::size_t kPoolChunk = 256;

    Event *allocEvent();
    void releaseEvent(Event *e) { e->next = freeList_; freeList_ = e; }
    void addPoolChunk();

    void insert(Event *e);
    void growBuckets();

    /** Days from the cursor's bucket to the next non-empty bucket
     *  (0 if the cursor's own is), wrapping at the year's end. At
     *  least one event must be pending. */
    std::size_t daysToOccupied() const;

    /**
     * Locate (without unlinking) the earliest pending event; leaves the
     * cursor on its bucket so it is that bucket's head. Returns nullptr
     * when empty.
     */
    Event *peekMin();

    /** Advance the sampler to `when` and set the clock (pre-dispatch). */
    void advanceClock(SimTime when);

    /** Dispatch one unlinked event and release its record. */
    void dispatch(Event *e);

    std::vector<Event *> buckets_;
    /** Bit b of word b / 64 is set iff buckets_[b] is non-empty. */
    std::vector<std::uint64_t> occupied_;
    std::size_t bucketMask_ = 0;
    std::size_t curBucket_ = 0;   // next bucket the dequeue scan examines
    SimTime curTop_ = 0;          // exclusive end of curBucket_'s day
    std::size_t pending_ = 0;

    std::vector<std::unique_ptr<Event[]>> poolChunks_;
    Event *freeList_ = nullptr;
    std::size_t poolCapacity_ = 0;

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    SamplerFn sampler_;
    SimTime samplerInterval_ = 0;
    SimTime nextSample_ = 0;
};

}  // namespace cubessd::sim

#endif  // CUBESSD_SIM_EVENT_QUEUE_H
