#include "src/sim/event_queue.h"

#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/prof/prof.h"

namespace cubessd::sim {

// schedSlotFor() maps an EventKind to its dispatch slot by offset;
// pin the correspondence so reordering either enum breaks the build.
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::Generic)) ==
              prof::Slot::SchedGeneric);
static_assert(prof::schedSlotFor(static_cast<std::uint8_t>(
                  EventKind::ChipOpComplete)) == prof::Slot::SchedChipOp);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::RequestComplete)) ==
              prof::Slot::SchedRequestComplete);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::ReadPieceDone)) ==
              prof::Slot::SchedReadPiece);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::HostAdmit)) ==
              prof::Slot::SchedHostAdmit);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::DriverTick)) ==
              prof::Slot::SchedDriverTick);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::TenantArrival)) ==
              prof::Slot::SchedTenantArrival);

EventQueue::EventQueue()
    : buckets_(kInitialBuckets, nullptr),
      occupied_(kInitialBuckets / 64, 0),
      bucketMask_(kInitialBuckets - 1),
      curTop_(kBucketWidth)
{
}

EventQueue::EventQueue(const EventQueue &other)
    : buckets_(other.buckets_.size(), nullptr),
      occupied_(other.occupied_.size(), 0),
      bucketMask_(other.bucketMask_),
      curBucket_(other.curBucket_),
      curTop_(other.curTop_),
      now_(other.now_),
      nextSeq_(other.nextSeq_),
      fired_(other.fired_)
{
    if (other.pending_ != 0)
        panic("EventQueue: cannot copy a queue with %zu pending events",
              other.pending_);
}

EventQueue::~EventQueue() = default;

void
EventQueue::hashState(StateHash &h) const
{
    h.add(now_).add(nextSeq_).add(fired_).add(pending_);
    h.add(buckets_.size()).add(curBucket_).add(curTop_);
}

EventQueue::Event *
EventQueue::allocEvent()
{
    if (freeList_ == nullptr)
        addPoolChunk();
    Event *e = freeList_;
    freeList_ = e->next;
    return e;
}

void
EventQueue::addPoolChunk()
{
    auto chunk = std::make_unique<Event[]>(kPoolChunk);
    for (std::size_t i = 0; i < kPoolChunk; ++i) {
        chunk[i].next = freeList_;
        freeList_ = &chunk[i];
    }
    poolChunks_.push_back(std::move(chunk));
    poolCapacity_ += kPoolChunk;
}

void
EventQueue::insert(Event *e)
{
    if (pending_ >= buckets_.size() * 2)
        growBuckets();
    const std::size_t b = (e->when >> kWidthLog2) & bucketMask_;
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    Event **p = &buckets_[b];
    while (*p != nullptr &&
           ((*p)->when < e->when ||
            ((*p)->when == e->when && (*p)->seq < e->seq)))
        p = &(*p)->next;
    e->next = *p;
    *p = e;
    ++pending_;
}

void
EventQueue::growBuckets()
{
    std::vector<Event *> old = std::move(buckets_);
    buckets_.assign(old.size() * 2, nullptr);
    occupied_.assign(buckets_.size() / 64, 0);
    bucketMask_ = buckets_.size() - 1;
    // Relink every pending event into the wider calendar. insert()
    // re-checks the growth threshold, but pending_ restarts from zero
    // here and stays below the doubled threshold, so it cannot recurse.
    pending_ = 0;
    for (Event *head : old) {
        while (head != nullptr) {
            Event *next = head->next;
            insert(head);
            head = next;
        }
    }
    // Reset the cursor to the clock's day: every pending event has
    // when >= now_, so the dequeue invariant (no event earlier than the
    // cursor's day) is re-established.
    const SimTime day = now_ >> kWidthLog2;
    curBucket_ = day & bucketMask_;
    curTop_ = (day + 1) << kWidthLog2;
}

std::size_t
EventQueue::daysToOccupied() const
{
    const std::size_t words = occupied_.size();
    const std::size_t w0 = curBucket_ / 64;
    // The cursor's own word from its bit up, the other words in order,
    // then the cursor's word again below its bit (the year wraps).
    std::uint64_t bits =
        occupied_[w0] & (~std::uint64_t{0} << (curBucket_ % 64));
    for (std::size_t i = 0;; ++i) {
        if (bits != 0) {
            const std::size_t b = ((w0 + i) % words) * 64 +
                                  static_cast<std::size_t>(
                                      __builtin_ctzll(bits));
            return (b - curBucket_) & bucketMask_;
        }
        bits = occupied_[(w0 + i + 1) % words];
    }
}

EventQueue::Event *
EventQueue::peekMin()
{
    if (pending_ == 0)
        return nullptr;
    // Rotation scan: a bucket head is due when it lies inside the
    // cursor's current day. Heads from an earlier year of the same
    // bucket are also < curTop_ and therefore found, so the cursor can
    // never skip past a pending event. While rotating, remember the
    // smallest head seen: if a whole year passes with nothing due, that
    // head is the global minimum (each bucket was examined once).
    // Empty days are jumped over in one step, the cursor moving as
    // far as a day-by-day walk would.
    Event *minEv = nullptr;
    std::size_t minBucket = 0;
    for (std::size_t left = buckets_.size(); left != 0; --left) {
        const std::size_t skip = daysToOccupied();
        if (skip >= left)
            break;  // every occupied bucket of the year was examined
        curBucket_ = (curBucket_ + skip) & bucketMask_;
        curTop_ += skip * kBucketWidth;
        left -= skip;
        Event *head = buckets_[curBucket_];
        if (head->when < curTop_)
            return head;
        if (minEv == nullptr || head->when < minEv->when ||
            (head->when == minEv->when && head->seq < minEv->seq)) {
            minEv = head;
            minBucket = curBucket_;
        }
        curBucket_ = (curBucket_ + 1) & bucketMask_;
        curTop_ += kBucketWidth;
    }
    curBucket_ = minBucket;
    curTop_ = ((minEv->when >> kWidthLog2) + 1) << kWidthLog2;
    return minEv;
}

void
EventQueue::scheduleAt(SimTime when, EventKind kind, EventHandler *target,
                       const EventPayload &payload)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    Event *e = allocEvent();
    e->when = when;
    e->seq = nextSeq_++;
    e->kind = kind;
    e->target = target;
    e->payload = payload;
    insert(e);
}

namespace {

/** A sampling boundary past the end of SimTime: never reached. */
constexpr SimTime kNeverSample = std::numeric_limits<SimTime>::max();

/** The boundary `interval` after `t`, or kNeverSample if that wraps. */
SimTime
boundaryAfter(SimTime t, SimTime interval)
{
    return interval >= kNeverSample - t ? kNeverSample : t + interval;
}

}  // namespace

void
EventQueue::setSampler(SimTime interval, SamplerFn fn)
{
    if (interval == 0 || !fn) {
        sampler_ = nullptr;
        samplerInterval_ = 0;
        return;
    }
    sampler_ = std::move(fn);
    samplerInterval_ = interval;
    nextSample_ = boundaryAfter(now_, interval);
}

void
EventQueue::advanceClock(SimTime when)
{
    if (sampler_) {
        // Catch up on all sampling boundaries up to (and including)
        // this event's time, sampling *before* the event fires.
        while (nextSample_ <= when && nextSample_ != kNeverSample) {
            now_ = nextSample_;
            sampler_(now_);
            nextSample_ = boundaryAfter(nextSample_, samplerInterval_);
        }
    }
    now_ = when;
}

void
EventQueue::dispatch(Event *e)
{
    PROF_SCOPE(prof::schedSlotFor(static_cast<std::uint8_t>(e->kind)));
    ++fired_;
    // Copy the record out and release it before invoking, so the
    // handler can schedule into a fully consistent queue (and may even
    // reuse this record).
    const EventKind kind = e->kind;
    EventHandler *target = e->target;
    const EventPayload payload = e->payload;
    releaseEvent(e);
    target->onEvent(kind, payload);
}

bool
EventQueue::step()
{
    // No SimLoop scope here: the workload drivers call step() once per
    // event, and an umbrella scope per event would cost as much as the
    // dispatch it wraps while its self time (peekMin + unlink) is
    // negligible. run() keeps the umbrella — it is called once per
    // drain.
    Event *e = peekMin();
    if (e == nullptr)
        return false;
    buckets_[curBucket_] = e->next;
    if (e->next == nullptr)
        occupied_[curBucket_ / 64] &=
            ~(std::uint64_t{1} << (curBucket_ % 64));
    --pending_;
    advanceClock(e->when);
    dispatch(e);
    return true;
}

std::uint64_t
EventQueue::run()
{
    PROF_SCOPE(prof::Slot::SimLoop);
    std::uint64_t fired = 0;
    while (step())
        ++fired;
    return fired;
}

}  // namespace cubessd::sim
