#include "src/ssd/ssd.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/trace/counters.h"
#include "src/trace/trace.h"

namespace cubessd::ssd {

std::string
SsdConfig::validate() const
{
    if (channels == 0)
        return "channels must be at least 1";
    if (chipsPerChannel == 0)
        return "chipsPerChannel must be at least 1";

    const auto &geom = chip.geometry;
    if (geom.blocksPerChip == 0 || geom.layersPerBlock == 0 ||
        geom.wlsPerLayer == 0 || geom.pagesPerWl == 0 ||
        geom.pageSizeBytes == 0) {
        return "chip.geometry has a zero dimension (blocksPerChip, "
               "layersPerBlock, wlsPerLayer, pagesPerWl and "
               "pageSizeBytes must all be positive)";
    }

    // The FTL numbers pages and LBAs in 32 bits beside kInvalid32.
    // Each factor is below 2^32 and the product so far is below
    // kInvalid32, so no step wraps.
    std::uint64_t physicalPages = 1;
    for (const std::uint64_t factor :
         {channels, chipsPerChannel, geom.blocksPerChip,
          geom.layersPerBlock, geom.wlsPerLayer, geom.pagesPerWl}) {
        physicalPages *= factor;
        if (physicalPages >= kInvalid32)
            return "the device has 2^32 - 1 or more physical pages; the "
                   "FTL numbers pages in 32 bits (shrink blocksPerChip "
                   "or the chip count)";
    }

    if (!(logicalFraction > 0.0) || logicalFraction > 1.0)
        return "logicalFraction must be in (0, 1]";

    if (writeBufferPages < geom.pagesPerWl)
        return "writeBufferPages must hold at least one WL (" +
               std::to_string(geom.pagesPerWl) + " pages)";

    if (gcUrgentWatermark >= gcLowWatermark)
        return "gcUrgentWatermark must be below gcLowWatermark "
               "(urgent backpressure engages before normal GC)";
    if (gcLowWatermark > gcHighWatermark)
        return "gcLowWatermark must not exceed gcHighWatermark "
               "(GC hysteresis range is [low, high])";

    if (spareBlocksPerChip() < minSpareBlocks())
        return "only " + std::to_string(spareBlocksPerChip()) +
               " spare blocks per chip; need at least gcHighWatermark "
               "+ 3 = " + std::to_string(minSpareBlocks()) +
               " (lower logicalFraction or grow blocksPerChip)";

    const auto &faults = chip.faults;
    if (faults.programFailBase < 0.0 || faults.programFailBase > 1.0)
        return "chip.faults.programFailBase must be a probability "
               "in [0, 1]";
    if (faults.eraseFailBase < 0.0 || faults.eraseFailBase > 1.0)
        return "chip.faults.eraseFailBase must be a probability "
               "in [0, 1]";
    if (faults.uncorrectableNormLimit < 0.0)
        return "chip.faults.uncorrectableNormLimit must be >= 0 "
               "(0 disables the limit)";
    if (faults.wearScale < 0.0)
        return "chip.faults.wearScale must be >= 0";

    return {};
}

const char *
ftlKindName(FtlKind kind)
{
    switch (kind) {
      case FtlKind::Page:      return "pageFTL";
      case FtlKind::Vert:      return "vertFTL";
      case FtlKind::Cube:      return "cubeFTL";
    }
    return "?";
}

namespace {

/** `config`, after refusing it if it does not validate. */
const SsdConfig &
validated(const SsdConfig &config)
{
    if (const std::string err = config.validate(); !err.empty())
        fatal("Ssd: invalid configuration: %s", err.c_str());
    return config;
}

/** One chip unit per chip, each with its own seed. */
std::vector<ChipUnit>
makeUnits(const SsdConfig &config)
{
    std::vector<ChipUnit> units;
    units.reserve(config.totalChips());
    for (std::uint32_t i = 0; i < config.totalChips(); ++i) {
        nand::NandChipConfig cc = config.chip;
        cc.seed = config.seed * 0x1000193u + i + 1;
        units.emplace_back(cc);
    }
    return units;
}

}  // namespace

Ssd::Ssd(const SsdConfig &config)
    : config_(validated(config)),
      channels_(config_.channels),
      units_(makeUnits(config_)),
      ftl_(config_, units_.front().chip()),
      hostQueue_(config_.hostQueueDepth)
{
    wire();
}

Ssd::Ssd(const Ssd &other)
    : config_(requireDrained(other).config_),
      queue_(other.queue_),
      channels_(other.channels_),
      units_(other.units_),
      ftl_(other.ftl_),
      hostQueue_(other.hostQueue_)
{
    wire();
    attachTrace(nullptr);
}

void
Ssd::wire()
{
    for (std::uint32_t i = 0; i < units_.size(); ++i)
        units_[i].wire(channels_[i / config_.chipsPerChannel], queue_);
    ftl_.wire(units_, queue_);
    hostQueue_.wire(ftl_, queue_);
}

const Ssd &
Ssd::requireDrained(const Ssd &ssd)
{
    const bool diesIdle =
        std::all_of(ssd.units_.begin(), ssd.units_.end(),
                    [](const ChipUnit &unit) { return unit.idle(); });
    if (!ssd.queue_.empty() || !diesIdle || !ssd.ftl_.idle() ||
        ssd.hostQueue_.inFlight() != 0 || ssd.hostQueue_.waiting() != 0)
        panic("Ssd: only a drained device can be copied (%zu events "
              "pending, dies %s, FTL %s, %llu host requests in flight)",
              ssd.queue_.pending(), diesIdle ? "idle" : "busy",
              ssd.ftl_.idle() ? "idle" : "busy",
              static_cast<unsigned long long>(
                  ssd.hostQueue_.inFlight() + ssd.hostQueue_.waiting()));
    return ssd;
}

std::uint64_t
Ssd::stateDigest() const
{
    StateHash h;
    queue_.hashState(h);
    for (const auto &ch : channels_)
        ch.hashState(h);
    for (const auto &unit : units_)
        unit.hashState(h);
    ftl_.hashState(h);
    hostQueue_.hashState(h);
    return h.value();
}

void
Ssd::setAging(const nand::AgingState &aging)
{
    for (auto &unit : units_)
        unit.chip().setAging(aging);
}

RequestId
Ssd::submit(HostRequest req, CompletionSink *sink, std::uint64_t ctx)
{
    return hostQueue_.submit(std::move(req), sink, ctx);
}

namespace {

/** Stack-local sink for submitSync: captures the one completion. */
struct SyncSink final : CompletionSink
{
    Completion result{};
    bool finished = false;

    void
    onCompletion(const Completion &completion, std::uint64_t) override
    {
        result = completion;
        finished = true;
    }
};

}  // namespace

Completion
Ssd::submitSync(HostRequest req)
{
    SyncSink sink;
    submit(std::move(req), &sink);
    while (!sink.finished && queue_.step()) {
    }
    if (!sink.finished)
        panic("Ssd::submitSync: request never completed");
    return sink.result;
}

void
Ssd::drain()
{
    // Writes submitted but not yet admitted reach the buffer while the
    // queue runs, possibly after the flush has found it empty and left
    // drain mode: flush again until nothing is buffered.
    do {
        ftl_.flushAll();
        queue_.run();
    } while (!ftl_.buffer().empty());
}

std::optional<std::uint64_t>
Ssd::peek(Lba lba) const
{
    return ftl_.peek(lba);
}

void
Ssd::attachTrace(trace::TraceSession *session)
{
    hostQueue_.setTrace(session);
    if (session == nullptr) {
        ftl_.setTrace(nullptr, 0, {});
        for (auto &ch : channels_)
            ch.setTrace(nullptr, 0);
        for (auto &unit : units_)
            unit.setTrace(nullptr, 0);
        return;
    }

    // Track order fixes the Perfetto row order: FTL events on top,
    // then GC episodes, bus occupancy, and the individual dies.
    const std::uint32_t ftlTrack = session->addTrack("ftl");
    std::vector<std::uint32_t> gcTracks;
    gcTracks.reserve(units_.size());
    for (std::uint32_t i = 0; i < units_.size(); ++i)
        gcTracks.push_back(
            session->addTrack("gc/chip" + std::to_string(i)));
    ftl_.setTrace(session, ftlTrack, std::move(gcTracks));

    for (std::uint32_t i = 0; i < channels_.size(); ++i)
        channels_[i].setTrace(
            session, session->addTrack("bus/ch" + std::to_string(i)));
    for (std::uint32_t i = 0; i < units_.size(); ++i)
        units_[i].setTrace(session,
                           session->addTrack("die/" + std::to_string(i)));
}

void
Ssd::registerCounters(trace::CounterRegistry &reg)
{
    // Completion rate over the sampling window: the probe keeps the
    // previous sample point and differentiates the cumulative count.
    reg.add("iops", "req/s",
            [this, prev = std::pair<SimTime, std::uint64_t>{0, 0}](
                SimTime now) mutable {
                const std::uint64_t completed =
                    hostQueue_.stats().completed;
                const SimTime dt = now - prev.first;
                const std::uint64_t delta = completed - prev.second;
                prev = {now, completed};
                return dt == 0
                    ? 0.0
                    : static_cast<double>(delta) * 1e9 /
                          static_cast<double>(dt);
            });
    reg.add("queue_depth", "requests", [this](SimTime) {
        return static_cast<double>(hostQueue_.inFlight() +
                                   hostQueue_.waiting());
    });
    reg.add("nand.term_cache_hit_rate", "percent", [this](SimTime) {
        std::uint64_t hits = 0;
        std::uint64_t lookups = 0;
        for (const auto &unit : units_) {
            const auto &c = unit.chip().termCache().counters();
            hits += c.wlHits;
            lookups += c.wlHits + c.wlMisses;
        }
        return lookups == 0 ? 0.0
                            : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(lookups);
    });
    ftl_.registerCounters(reg);
}

}  // namespace cubessd::ssd
