#include "src/ftl/gc.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/prof/prof.h"
#include "src/trace/trace.h"

namespace cubessd::ftl {

GcEngine::GcEngine(const ssd::SsdConfig &config,
                   std::vector<ssd::ChipUnit> &chips,
                   std::vector<BlockManager> &blockMgrs,
                   MappingTable &mapping, GcHost &host,
                   FtlStats &mirror)
    : config_(config),
      chips_(chips),
      blockMgrs_(blockMgrs),
      mapping_(mapping),
      host_(host),
      geom_(config.chip.geometry),
      codec_(geom_),
      gc_(chips.size()),
      mirror_(mirror)
{
    // Worst case per collection: every page of the victim is valid.
    for (auto &gc : gc_)
        gc.pending.reserve(geom_.pagesPerBlock());
    batchScratch_.reserve(geom_.pagesPerWl);
}

GcEngine::GcEngine(const GcEngine &other, const ssd::SsdConfig &config,
                   std::vector<ssd::ChipUnit> &chips,
                   std::vector<BlockManager> &blockMgrs,
                   MappingTable &mapping, GcHost &host, FtlStats &mirror)
    : config_(config),
      chips_(chips),
      blockMgrs_(blockMgrs),
      mapping_(mapping),
      host_(host),
      geom_(other.geom_),
      codec_(other.codec_),
      gc_(other.gc_),
      stats_(other.stats_),
      mirror_(mirror)
{
    // A vector copy does not keep capacity; restore the reservations.
    for (auto &gc : gc_)
        gc.pending.reserve(geom_.pagesPerBlock());
    batchScratch_.reserve(geom_.pagesPerWl);
}

void
GcEngine::hashState(StateHash &h) const
{
    for (const ChipState &gc : gc_) {
        h.add(gc.active).add(gc.victim).add(gc.scanIndex);
        h.add(gc.outstandingReads).add(gc.outstandingPrograms);
        h.add(gc.scanDone).add(gc.erasing).add(gc.pending);
    }
    h.add(stats_);
}

Ppa
GcEngine::encodePpa(std::uint32_t chip, const nand::PageAddr &addr) const
{
    return static_cast<Ppa>(chip) * geom_.pagesPerChip() +
           codec_.encode(addr);
}

void
GcEngine::setTrace(trace::TraceSession *session,
                   std::vector<std::uint32_t> tracks,
                   const sim::EventQueue *clock)
{
    if (session != nullptr &&
        (tracks.size() != chips_.size() || clock == nullptr))
        fatal("GcEngine::setTrace: need one track per chip and a clock");
    trace_ = session;
    tracks_ = std::move(tracks);
    clock_ = clock;
}

void
GcEngine::traceCollectionBegin(std::uint32_t chip)
{
    if (trace_ == nullptr)
        return;
    const auto &gc = gc_[chip];
    trace_->begin(
        tracks_[chip], "gc", clock_->now(),
        {{"victim", gc.victim},
         {"valid_pages", blockMgrs_[chip].info(gc.victim).validCount},
         {"free_blocks",
          static_cast<std::int64_t>(blockMgrs_[chip].freeCount())}});
}

void
GcEngine::maybeStart(std::uint32_t chip)
{
    // The scope opens only past the early-outs: maybeStart is polled
    // on every host program, and profiling the two-compare idle check
    // would cost more than the check itself.
    auto &gc = gc_.at(chip);
    if (gc.active)
        return;
    if (blockMgrs_[chip].freeCount() >= config_.gcLowWatermark)
        return;
    PROF_SCOPE(prof::Slot::FtlGc);
    const auto victim = blockMgrs_[chip].pickVictim();
    if (!victim)
        return;
    startCollection(chip, *victim);
}

void
GcEngine::startCollection(std::uint32_t chip, std::uint32_t victim)
{
    auto &gc = gc_[chip];
    gc.reset();
    gc.active = true;
    gc.victim = victim;
    ++stats_.collections;
    ++mirror_.gcCollections;
    traceCollectionBegin(chip);
    continueOn(chip);
}

void
GcEngine::noteProgramIssued(std::uint32_t chip)
{
    ++gc_.at(chip).outstandingPrograms;
}

void
GcEngine::noteProgramComplete(std::uint32_t chip, SimTime tProg)
{
    --gc_.at(chip).outstandingPrograms;
    ++stats_.programs;
    stats_.programLatencySum += tProg;
}

void
GcEngine::resume(std::uint32_t chip)
{
    continueOn(chip);
}

void
GcEngine::continueOn(std::uint32_t chip)
{
    auto &gc = gc_[chip];
    if (!gc.active)
        return;  // resume() polls here on every program completion
    PROF_SCOPE(prof::Slot::FtlGc);
    auto &mgr = blockMgrs_[chip];
    const auto &info = mgr.info(gc.victim);

    // Issue the next scan read (one outstanding at a time, so host
    // reads can interleave).
    while (!gc.scanDone && gc.outstandingReads == 0) {
        while (gc.scanIndex < geom_.pagesPerBlock() &&
               !info.valid[gc.scanIndex]) {
            ++gc.scanIndex;
        }
        if (gc.scanIndex >= geom_.pagesPerBlock()) {
            gc.scanDone = true;
            break;
        }
        const std::uint32_t pageIdx = gc.scanIndex++;
        const nand::PageAddr addr =
            codec_.decode(static_cast<std::uint64_t>(gc.victim) *
                              geom_.pagesPerBlock() + pageIdx);
        ssd::NandOp op;
        op.kind = ssd::NandOp::Kind::Read;
        op.page = addr;
        op.readShiftMv = host_.gcReadShift(chip, addr);
        op.readSoftHint = host_.gcReadSoftHint(chip, addr);
        op.listener = this;
        op.ctx = pageIdx;
        op.chip = chip;
        ++gc.outstandingReads;
        ++stats_.scanReads;
        ++mirror_.nandReads;
        chips_[chip].enqueue(op);
    }

    maybeDispatchProgram(chip, /*force=*/gc.scanDone &&
                                   gc.outstandingReads == 0);

    if (gc.scanDone && gc.outstandingReads == 0 && gc.pending.empty() &&
        gc.outstandingPrograms == 0 && !gc.erasing) {
        eraseVictim(chip);
    }
}

void
GcEngine::finishScanPage(std::uint32_t chip,
                         std::uint32_t pageInBlockIdx)
{
    // Called only from onNandOpComplete, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    const auto &info = blockMgrs_[chip].info(gc.victim);
    if (!info.valid[pageInBlockIdx])
        return;  // invalidated by a racing host write: nothing to move
    const Lba lba = info.p2l[pageInBlockIdx];
    const nand::PageAddr addr =
        codec_.decode(static_cast<std::uint64_t>(gc.victim) *
                          geom_.pagesPerBlock() + pageInBlockIdx);
    FlushEntry entry;
    entry.lba = lba;
    entry.token = chips_[chip].chip().pageToken(addr);
    entry.version = mapping_.mappedVersion(lba);
    entry.sourcePpa = encodePpa(chip, addr);
    gc.pending.push_back(entry);
    ++stats_.relocatedPages;
    ++mirror_.gcRelocatedPages;
}

void
GcEngine::maybeDispatchProgram(std::uint32_t chip, bool force)
{
    // Called only from continueOn, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    while (gc.pending.size() >= geom_.pagesPerWl ||
           (force && !gc.pending.empty())) {
        const std::size_t take =
            std::min<std::size_t>(gc.pending.size(), geom_.pagesPerWl);
        batchScratch_.assign(
            gc.pending.begin(),
            gc.pending.begin() + static_cast<long>(take));
        gc.pending.erase(gc.pending.begin(),
                         gc.pending.begin() + static_cast<long>(take));
        while (batchScratch_.size() < geom_.pagesPerWl)
            batchScratch_.push_back(FlushEntry{});
        host_.gcProgram(chip, batchScratch_);
    }
}

void
GcEngine::eraseVictim(std::uint32_t chip)
{
    // Called only from continueOn, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    gc.erasing = true;
    ssd::NandOp op;
    op.kind = ssd::NandOp::Kind::Erase;
    op.block = gc.victim;
    op.listener = this;
    op.chip = chip;
    chips_[chip].enqueue(op);
}

void
GcEngine::onNandOpComplete(const ssd::NandOp &op,
                           const ssd::NandOpResult &result)
{
    PROF_SCOPE(prof::Slot::FtlGc);
    if (op.kind == ssd::NandOp::Kind::Read) {
        const auto pageIdx = static_cast<std::uint32_t>(op.ctx);
        mirror_.readRetries +=
            static_cast<std::uint64_t>(result.read.numRetries);
        --gc_[op.chip].outstandingReads;
        finishScanPage(op.chip, pageIdx);
        continueOn(op.chip);
        return;
    }
    handleEraseComplete(op.chip, result);
}

void
GcEngine::handleEraseComplete(std::uint32_t chip,
                              const ssd::NandOpResult &result)
{
    // Called only from onNandOpComplete, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    const std::uint32_t victim = gc.victim;
    ++stats_.erases;
    ++mirror_.erases;
    if (result.eraseFailed) {
        // Erase-status fail: the block never returns to the free
        // pool. All its pages were already relocated (GC erases
        // only fully-invalid victims), so retirement is clean.
        blockMgrs_[chip].retire(victim);
        ++mirror_.eraseFailures;
        ++mirror_.retiredBlocks;
        if (trace_ != nullptr)
            trace_->instant(tracks_[chip], "gc_erase_fail",
                            clock_->now(), {{"block", victim}});
        host_.gcBlockRetired(chip, victim);
    } else {
        blockMgrs_[chip].release(victim);
        host_.gcBlockErased(chip, victim);
    }
    gc.active = false;
    gc.erasing = false;
    if (trace_ != nullptr)
        trace_->end(tracks_[chip], clock_->now());
    // Hysteresis: keep collecting until the high watermark.
    if (blockMgrs_[chip].freeCount() < config_.gcHighWatermark) {
        const auto next = blockMgrs_[chip].pickVictim();
        if (next)
            startCollection(chip, *next);
    }
    host_.gcBackpressureReleased();
}

}  // namespace cubessd::ftl
