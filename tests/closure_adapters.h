/**
 * @file
 * Closure conveniences for test bodies, built on the typed API.
 *
 * Production code schedules typed events (EventHandler) and submits
 * through CompletionSink; a test often only wants "run this lambda at
 * t" or "call this lambda on completion". Each helper here wraps the
 * closure in a heap handler or sink that fires once and then deletes
 * itself, so the simulator itself carries no std::function paths.
 * An event or request that never fires leaks its adapter: run the
 * queue to empty before a test ends.
 */

#ifndef CUBESSD_TESTS_CLOSURE_ADAPTERS_H
#define CUBESSD_TESTS_CLOSURE_ADAPTERS_H

#include <functional>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/ssd/host_queue.h"
#include "src/ssd/ssd.h"

namespace cubessd::test {

/** Runs a closure when its (Generic) event fires, then deletes itself. */
class OneShotHandler final : public sim::EventHandler
{
  public:
    explicit OneShotHandler(std::function<void()> fn) : fn_(std::move(fn))
    {
    }

    void
    onEvent(sim::EventKind, const sim::EventPayload &) override
    {
        std::function<void()> fn = std::move(fn_);
        delete this;
        fn();
    }

  private:
    std::function<void()> fn_;
};

/** Runs a closure on its request's completion, then deletes itself. */
class OneShotSink final : public ssd::CompletionSink
{
  public:
    explicit OneShotSink(std::function<void(const ssd::Completion &)> fn)
        : fn_(std::move(fn))
    {
    }

    void
    onCompletion(const ssd::Completion &completion, std::uint64_t) override
    {
        std::function<void(const ssd::Completion &)> fn = std::move(fn_);
        delete this;
        fn(completion);
    }

  private:
    std::function<void(const ssd::Completion &)> fn_;
};

/** Run `fn` `delay` after the queue's current time. */
inline SimTime
schedule(sim::EventQueue &queue, SimTime delay, std::function<void()> fn)
{
    return queue.schedule(delay, sim::EventKind::Generic,
                          new OneShotHandler(std::move(fn)));
}

/** Run `fn` at absolute time `when` (must be >= now()). */
inline void
scheduleAt(sim::EventQueue &queue, SimTime when, std::function<void()> fn)
{
    queue.scheduleAt(when, sim::EventKind::Generic,
                     new OneShotHandler(std::move(fn)));
}

/** Submit through `hq` and call `done` with the completion. */
inline ssd::RequestId
submit(ssd::HostQueue &hq, const ssd::HostRequest &req,
       std::function<void(const ssd::Completion &)> done)
{
    return hq.submit(req, new OneShotSink(std::move(done)));
}

/** Submit through the device and call `done` with the completion. */
inline ssd::RequestId
submit(ssd::Ssd &dev, const ssd::HostRequest &req,
       std::function<void(const ssd::Completion &)> done)
{
    return dev.submit(req, new OneShotSink(std::move(done)));
}

}  // namespace cubessd::test

#endif  // CUBESSD_TESTS_CLOSURE_ADAPTERS_H
