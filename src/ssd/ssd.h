/**
 * @file
 * The assembled SSD: event queue, channels, chips, and an FTL.
 *
 * This is the main entry point of the library for whole-device
 * simulation. Hosts implement ssd::CompletionSink and submit typed
 * requests:
 *
 * @code
 *   ssd::SsdConfig config;
 *   config.ftl = ssd::FtlKind::Cube;
 *   ssd::Ssd ssd(config);
 *   ssd.submit({.type = ssd::IoType::Write, .lba = 0, .pages = 8},
 *              &mySink);  // mySink.onCompletion(c, ctx) fires with
 *                         // c.status: Ok, Uncorrectable, ReadOnly, ...
 *   ssd.drain();  // flush the write buffer, run all pending events
 * @endcode
 *
 * One-shot callers (tests, setup code) use submitSync().
 *
 * A drained device can be copied: the copy (a *fork*) continues
 * exactly as the source would, so one prefilled device can seed many
 * runs (workload::runCells does this for cells that share a prefill).
 * Every part below the device is a plain value whose copy the compiler
 * writes; the links between parts are pointers that wire() sets, for
 * a new device and a fork alike.
 */

#ifndef CUBESSD_SSD_SSD_H
#define CUBESSD_SSD_SSD_H

#include <optional>
#include <vector>

#include "src/ftl/ftl.h"
#include "src/nand/chip.h"
#include "src/sim/event_queue.h"
#include "src/ssd/channel.h"
#include "src/ssd/chip_unit.h"
#include "src/ssd/config.h"
#include "src/ssd/host_queue.h"
#include "src/ssd/request.h"

namespace cubessd::trace {
class CounterRegistry;
class TraceSession;
}  // namespace cubessd::trace

namespace cubessd::ssd {

class Ssd
{
  public:
    explicit Ssd(const SsdConfig &config);

    /**
     * Fork a drained device: empty event queue, empty write buffer and
     * no request in flight (panics otherwise). The copy carries all
     * simulated state — NAND blocks and tokens, every RNG stream, the
     * term caches, mapping, block managers, GC and policy state, every
     * counter, the clock and the request ids — so it is
     * indistinguishable from the source (stateDigest() agrees) and
     * evolves exactly as the source would under the same inputs. It
     * refers to nothing of the source; no trace or counter attachment
     * is copied.
     */
    Ssd(const Ssd &other);
    Ssd &operator=(const Ssd &) = delete;

    const SsdConfig &config() const { return config_; }
    sim::EventQueue &queue() { return queue_; }
    ftl::Ftl &ftl() { return ftl_; }
    const ftl::Ftl &ftl() const { return ftl_; }
    HostQueue &hostQueue() { return hostQueue_; }
    const HostQueue &hostQueue() const { return hostQueue_; }

    std::uint32_t chipCount() const
    {
        return static_cast<std::uint32_t>(units_.size());
    }
    nand::NandChip &chip(std::uint32_t i) { return units_[i].chip(); }
    ChipUnit &chipUnit(std::uint32_t i) { return units_[i]; }
    const ChipUnit &chipUnit(std::uint32_t i) const { return units_[i]; }

    std::uint32_t channelCount() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }
    /** Shared-bus occupancy bookkeeping (utilization stats). */
    const Channel &channel(std::uint32_t i) const { return channels_[i]; }

    std::uint64_t logicalPages() const { return config_.logicalPages(); }

    /** Inject a wear/retention state into every chip (evaluation aid). */
    void setAging(const nand::AgingState &aging);

    /**
     * Submit a request through the host queue: the single typed
     * production entry point. The request arrives at max(now,
     * req.arrival), waits for a queue slot if the configured queue
     * depth is exhausted, and `sink->onCompletion(c, ctx)` fires at
     * completion with Completion::status carrying the outcome and
     * Completion::tenant echoing req.tenant (requests never fail
     * silently — check `c.status` / `c.ok()`). `ctx` is returned
     * verbatim; `sink` may be null for fire-and-forget traffic.
     * @return the id assigned to the request.
     */
    RequestId submit(HostRequest req, CompletionSink *sink,
                     std::uint64_t ctx = 0);

    /** Submit and run the queue until this request completes (built
     *  on the public typed submit path). The returned Completion
     *  carries the request's Status. */
    Completion submitSync(HostRequest req);

    /** Flush the write buffer, writes still waiting for admission
     *  included, and run all pending events. */
    void drain();

    /** Data token of a logical page, bypassing timing (tests). */
    std::optional<std::uint64_t> peek(Lba lba) const;

    /** Hash of the simulated state a fork copies: two devices with
     *  equal digests hold the same state (up to hash collisions). */
    std::uint64_t stateDigest() const;

    /**
     * Wire a trace session through the whole pipeline: per-request
     * async spans on the host queue, an "ftl" track for FTL instants,
     * one "gc/chipN" track per chip for GC episodes, one "bus/chN"
     * track per channel for bus transfers, and one "die/N" track per
     * chip for NAND operations. Pass nullptr to detach. Tracing is
     * observation-only: runs are bit-identical with it on or off.
     */
    void attachTrace(trace::TraceSession *session);

    /** Register the device-level sampled counters (IOPS, queue depth)
     *  plus the FTL's gauges. */
    void registerCounters(trace::CounterRegistry &reg);

  private:
    /** Panic unless `ssd` is drained; returns it (copy-ctor guard). */
    static const Ssd &requireDrained(const Ssd &ssd);

    /**
     * Set the device's six internal links: each chip unit's channel
     * and event queue, the FTL's chip units and event queue, and the
     * host queue's FTL and event queue. Both constructors call it.
     */
    void wire();

    SsdConfig config_;
    sim::EventQueue queue_;
    std::vector<Channel> channels_;
    std::vector<ChipUnit> units_;
    ftl::Ftl ftl_;  ///< built from units_'s chip 0, so declared after it
    HostQueue hostQueue_;
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_SSD_H
