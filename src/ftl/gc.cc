#include "src/ftl/gc.h"

#include <algorithm>
#include <utility>

#include "src/ftl/ftl.h"
#include "src/prof/prof.h"
#include "src/trace/trace.h"

namespace cubessd::ftl {

GcEngine::GcEngine(std::uint32_t chips, std::uint32_t pagesPerBlock)
    : gc_(chips)
{
    for (auto &gc : gc_)
        gc.pending.resize(pagesPerBlock);
}

GcStats
GcEngine::stats(const Ftl &ftl) const
{
    const FtlStats &s = ftl.stats_;
    return {s.gcCollections, s.gcRelocatedPages, s.erases,
            scanReads_,      programs_,          programLatencySum_};
}

void
GcEngine::hashState(StateHash &h) const
{
    for (const ChipState &gc : gc_) {
        h.add(gc.active).add(gc.victim).add(gc.scanIndex);
        h.add(gc.outstandingReads).add(gc.outstandingPrograms);
        h.add(gc.scanDone).add(gc.erasing).add(gc.head).add(gc.tail);
        for (const FlushEntry &e : gc.waiting())
            h.add(e);
    }
    h.add(scanReads_).add(programs_).add(programLatencySum_);
}

void
GcEngine::setTracks(std::vector<std::uint32_t> tracks)
{
    tracks_ = std::move(tracks);
}

void
GcEngine::traceCollectionBegin(Ftl &ftl, std::uint32_t chip)
{
    if (ftl.trace_ == nullptr)
        return;
    const auto &gc = gc_[chip];
    const auto &mgr = ftl.blockMgrs_[chip];
    ftl.trace_->begin(
        tracks_[chip], "gc", ftl.queue_->now(),
        {{"victim", gc.victim},
         {"valid_pages", mgr.info(gc.victim).validCount},
         {"free_blocks", static_cast<std::int64_t>(mgr.freeCount())}});
}

void
GcEngine::maybeStart(Ftl &ftl, std::uint32_t chip)
{
    // The scope opens only past the early-outs: maybeStart is polled
    // on every host program, and profiling the two-compare idle check
    // would cost more than the check itself.
    auto &gc = gc_.at(chip);
    if (gc.active)
        return;
    auto &mgr = ftl.blockMgrs_[chip];
    if (mgr.freeCount() >= ftl.config_.gcLowWatermark)
        return;
    PROF_SCOPE(prof::Slot::FtlGc);
    const auto victim = mgr.pickVictim();
    if (!victim)
        return;
    startCollection(ftl, chip, *victim);
}

void
GcEngine::startCollection(Ftl &ftl, std::uint32_t chip,
                          std::uint32_t victim)
{
    auto &gc = gc_[chip];
    gc.reset();
    gc.active = true;
    gc.victim = victim;
    ++ftl.stats_.gcCollections;
    traceCollectionBegin(ftl, chip);
    continueOn(ftl, chip);
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
    ++programs_;
    programLatencySum_ += tProg;
}

void
GcEngine::resume(Ftl &ftl, std::uint32_t chip)
{
    continueOn(ftl, chip);
}

void
GcEngine::continueOn(Ftl &ftl, std::uint32_t chip)
{
    auto &gc = gc_[chip];
    if (!gc.active)
        return;  // resume() polls here on every program completion
    PROF_SCOPE(prof::Slot::FtlGc);
    const auto &info = ftl.blockMgrs_[chip].info(gc.victim);
    const std::uint32_t pagesPerBlock = ftl.geom_.pagesPerBlock();

    // Issue the next scan read (one outstanding at a time, so host
    // reads can interleave).
    while (!gc.scanDone && gc.outstandingReads == 0) {
        while (gc.scanIndex < pagesPerBlock && !info.isValid(gc.scanIndex))
            ++gc.scanIndex;
        if (gc.scanIndex >= pagesPerBlock) {
            gc.scanDone = true;
            break;
        }
        const std::uint32_t pageIdx = gc.scanIndex++;
        const nand::PageAddr addr = ftl.pageAddr(gc.victim, pageIdx);
        ssd::NandOp op;
        op.kind = ssd::NandOp::Kind::Read;
        op.page = addr;
        op.readShiftMv = ftl.readShiftFor(chip, addr);
        op.readSoftHint = ftl.readSoftHint(chip, addr);
        op.listener = &ftl;
        op.ctx = pageIdx;
        op.chip = chip;
        op.tagGc = true;
        ++gc.outstandingReads;
        ++scanReads_;
        ++ftl.stats_.nandReads;
        ftl.units_[chip].enqueue(op);
    }

    maybeDispatchProgram(ftl, chip, /*force=*/gc.scanDone &&
                                        gc.outstandingReads == 0);

    if (gc.scanDone && gc.outstandingReads == 0 && gc.head == gc.tail &&
        gc.outstandingPrograms == 0 && !gc.erasing) {
        eraseVictim(ftl, chip);
    }
}

void
GcEngine::finishScanPage(Ftl &ftl, std::uint32_t chip,
                         std::uint32_t pageInBlockIdx)
{
    // Called only from onNandOpComplete, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    if (!ftl.blockMgrs_[chip].info(gc.victim).isValid(pageInBlockIdx))
        return;  // invalidated by a racing host write: nothing to move
    gc.pending[gc.tail++] =
        ftl.relocationEntry(chip, gc.victim, pageInBlockIdx);
    ++ftl.stats_.gcRelocatedPages;
}

void
GcEngine::maybeDispatchProgram(Ftl &ftl, std::uint32_t chip,
                               bool force)
{
    // Called only from continueOn, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    const std::uint32_t pagesPerWl = ftl.geom_.pagesPerWl;
    while (gc.tail - gc.head >= pagesPerWl ||
           (force && gc.head != gc.tail)) {
        const std::uint32_t take = std::min(gc.tail - gc.head, pagesPerWl);
        const std::span<const FlushEntry> batch =
            gc.waiting().first(take);
        gc.head += take;
        ftl.gcProgram(chip, batch);
    }
}

void
GcEngine::eraseVictim(Ftl &ftl, std::uint32_t chip)
{
    // Called only from continueOn, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    gc.erasing = true;
    ssd::NandOp op;
    op.kind = ssd::NandOp::Kind::Erase;
    op.block = gc.victim;
    op.listener = &ftl;
    op.chip = chip;
    op.tagGc = true;
    ftl.units_[chip].enqueue(op);
}

void
GcEngine::onNandOpComplete(Ftl &ftl, const ssd::NandOp &op,
                           const ssd::NandOpResult &result)
{
    PROF_SCOPE(prof::Slot::FtlGc);
    if (op.kind == ssd::NandOp::Kind::Read) {
        const auto pageIdx = static_cast<std::uint32_t>(op.ctx);
        ftl.stats_.readRetries +=
            static_cast<std::uint64_t>(result.read.numRetries);
        --gc_[op.chip].outstandingReads;
        finishScanPage(ftl, op.chip, pageIdx);
        continueOn(ftl, op.chip);
        return;
    }
    handleEraseComplete(ftl, op.chip, result);
}

void
GcEngine::handleEraseComplete(Ftl &ftl, std::uint32_t chip,
                              const ssd::NandOpResult &result)
{
    // Called only from onNandOpComplete, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    auto &mgr = ftl.blockMgrs_[chip];
    trace::TraceSession *trace = ftl.trace_;
    const std::uint32_t victim = gc.victim;
    ++ftl.stats_.erases;
    if (result.eraseFailed) {
        // Erase-status fail: the block never returns to the free
        // pool. All its pages were already relocated (GC erases
        // only fully-invalid victims), so retirement is clean.
        mgr.retire(victim);
        ++ftl.stats_.eraseFailures;
        ++ftl.stats_.retiredBlocks;
        if (trace != nullptr)
            trace->instant(tracks_[chip], "gc_erase_fail",
                           ftl.queue_->now(), {{"block", victim}});
        ftl.onBlockRetired(chip, victim);
        ftl.checkReadOnly(chip);
    } else {
        mgr.release(victim);
        ftl.onBlockErased(chip, victim);
        ftl.retryDeferredFlushes(chip);
    }
    gc.active = false;
    gc.erasing = false;
    if (trace != nullptr)
        trace->end(tracks_[chip], ftl.queue_->now());
    // Hysteresis: keep collecting until the high watermark.
    if (mgr.freeCount() < ftl.config_.gcHighWatermark) {
        const auto next = mgr.pickVictim();
        if (next)
            startCollection(ftl, chip, *next);
    }
    // Free blocks were reclaimed: retry any held-back host flushes.
    ftl.maybeFlush();
}

}  // namespace cubessd::ftl
