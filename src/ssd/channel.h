/**
 * @file
 * Shared NAND bus (channel) occupancy model.
 *
 * Several chips share one channel; page transfers serialize on it.
 * Reservation is analytic bookkeeping: a caller asks for the bus no
 * earlier than `earliest` for `duration`, and receives the granted
 * start time. Grants are first-come-first-served in call order, which
 * follows simulated-event order.
 */

#ifndef CUBESSD_SSD_CHANNEL_H
#define CUBESSD_SSD_CHANNEL_H

#include <algorithm>
#include <cstdint>

#include "src/common/state_hash.h"
#include "src/common/types.h"
#include "src/prof/prof.h"

namespace cubessd::trace {
class TraceSession;
}

namespace cubessd::ssd {

class Channel
{
  public:
    /**
     * Reserve the bus.
     * @param traceName  span label for the transfer on the channel's
     *                   occupancy track (string literal); nullptr
     *                   suppresses the span.
     * @return the granted start time (>= earliest).
     *
     * Inline fast path: the common no-trace case is three scalar ops;
     * only the tracing tail goes out of line.
     */
    SimTime
    reserve(SimTime earliest, SimTime duration,
            const char *traceName = nullptr)
    {
        PROF_SCOPE(prof::Slot::SsdBusTransfer);
        const SimTime start = std::max(earliest, freeAt_);
        freeAt_ = start + duration;
        busyTime_ += duration;
        if (trace_ != nullptr && traceName != nullptr)
            traceTransfer(start, duration, traceName);
        return start;
    }

    /** Record bus transfers as spans on `track` (observation only). */
    void
    setTrace(trace::TraceSession *session, std::uint32_t track)
    {
        trace_ = session;
        track_ = track;
    }

    /** Time at which the bus next becomes free. */
    SimTime freeAt() const { return freeAt_; }

    /** Total time the bus has been occupied (for utilization stats). */
    SimTime busyTime() const { return busyTime_; }

    /** Fold the bus reservation state in. */
    void hashState(StateHash &h) const { h.add(freeAt_).add(busyTime_); }

  private:
    void traceTransfer(SimTime start, SimTime duration,
                       const char *traceName);

    SimTime freeAt_ = 0;
    SimTime busyTime_ = 0;
    trace::TraceSession *trace_ = nullptr;
    std::uint32_t track_ = 0;
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_CHANNEL_H
