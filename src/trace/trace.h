/**
 * @file
 * Timeline tracing: Perfetto-compatible event recording.
 *
 * TraceSession records begin/end spans, complete (known-duration)
 * spans, instant events, async (request-scoped) events, and counter
 * samples into a preallocated ring buffer, and serializes them as
 * Chrome trace-event JSON — loadable in Perfetto (ui.perfetto.dev) or
 * chrome://tracing. The recorder is zero-dependency and allocation-free
 * on the hot path: events are fixed-size PODs, names and arg keys must
 * be string literals (static lifetime), and when the ring fills the
 * oldest events are dropped (tail-biased, `dropped()` counts losses)
 * rather than growing or corrupting.
 *
 * Tracks: every duration/instant event lives on a *track* (rendered as
 * a thread row in Perfetto). Components register tracks up front with
 * addTrack() — "die/3", "bus/ch0", "gc/chip2", "ftl" — and pass the
 * returned id with each event. Async events instead group by
 * (category, id) and may overlap freely, which is how concurrent host
 * requests are traced without violating per-track begin/end nesting.
 *
 * Tracing is opt-in: components hold a `TraceSession *` that is null
 * by default, so the disabled cost is one branch per site and
 * simulated behaviour is bit-identical with tracing on or off
 * (observation only — nothing here feeds back into timing).
 */

#ifndef CUBESSD_TRACE_TRACE_H
#define CUBESSD_TRACE_TRACE_H

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace cubessd::trace {

/** One key/value annotation on an event. `key` must be a string
 *  literal (the recorder stores the pointer, not a copy). */
struct TraceArg
{
    const char *key;
    std::int64_t value;
};

struct TraceConfig
{
    /** Ring capacity in events; oldest events drop beyond this. */
    std::size_t capacityEvents = std::size_t{1} << 18;
};

/** What a recorded event is (maps onto Chrome trace-event `ph`). */
enum class EventKind : std::uint8_t
{
    Begin,       ///< "B": open a span on a track
    End,         ///< "E": close the innermost open span on a track
    Complete,    ///< "X": span with a known duration
    Instant,     ///< "i": a point in time
    AsyncBegin,  ///< "b": open an async span grouped by (cat, id)
    AsyncEnd,    ///< "e": close an async span grouped by (cat, id)
    Counter,     ///< "C": one sample of a named counter
};

class TraceSession
{
  public:
    static constexpr std::size_t kMaxArgs = 6;

    /** A recorded event. POD; see EventKind for field validity. */
    struct Event
    {
        SimTime ts = 0;
        SimTime dur = 0;              ///< Complete only
        std::uint64_t id = 0;         ///< Async only
        double number = 0.0;          ///< Counter only
        const char *name = nullptr;   ///< static lifetime
        const char *cat = nullptr;    ///< Async only; static lifetime
        std::uint32_t track = 0;
        EventKind kind = EventKind::Instant;
        std::uint8_t argCount = 0;
        TraceArg args[kMaxArgs] = {};
    };

    explicit TraceSession(const TraceConfig &config = {});

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * Register a named track (a thread row in Perfetto). Rows render
     * in registration order. @return the track id to record against.
     */
    std::uint32_t addTrack(std::string name);

    const std::string &trackName(std::uint32_t track) const
    {
        return trackNames_.at(track);
    }

    /** Open a span on `track`. Spans on one track must nest. */
    void begin(std::uint32_t track, const char *name, SimTime ts,
               std::initializer_list<TraceArg> args = {});

    /** Close the innermost open span on `track`. */
    void end(std::uint32_t track, SimTime ts);

    /** Record a span whose duration is already known. */
    void complete(std::uint32_t track, const char *name, SimTime ts,
                  SimTime dur, std::initializer_list<TraceArg> args = {});

    /** Record a point event. */
    void instant(std::uint32_t track, const char *name, SimTime ts,
                 std::initializer_list<TraceArg> args = {});

    /**
     * Open an async span. Async events with equal (cat, id) form one
     * group and nest by begin/end order; groups may overlap freely
     * (concurrent in-flight requests).
     */
    void asyncBegin(const char *cat, const char *name, std::uint64_t id,
                    SimTime ts, std::initializer_list<TraceArg> args = {});

    /** Close the innermost open async span of (cat, id). */
    void asyncEnd(const char *cat, const char *name, std::uint64_t id,
                  SimTime ts);

    /** Record one sample of a named counter series. */
    void counter(const char *name, SimTime ts, double value);

    /** Events currently held (<= capacity). */
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    /** Total events offered to the ring, dropped or not. */
    std::uint64_t recorded() const { return recorded_; }
    /** Oldest-event drops due to a full ring. */
    std::uint64_t dropped() const { return dropped_; }

    /** The i-th held event, oldest first (i < size()); for tests. */
    const Event &event(std::size_t i) const;

    /**
     * Serialize everything as a Chrome trace-event JSON object
     * ({"traceEvents": [...], ...}); timestamps become microseconds.
     */
    void writeJson(std::ostream &out) const;

  private:
    void push(const Event &e);
    static void fillArgs(Event &e, std::initializer_list<TraceArg> args);

    std::vector<Event> ring_;
    std::size_t head_ = 0;  ///< index of the oldest held event
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<std::string> trackNames_;
};

}  // namespace cubessd::trace

#endif  // CUBESSD_TRACE_TRACE_H
