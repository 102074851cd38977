#include "src/ftl/gc.h"

#include <algorithm>
#include <utility>

#include "src/ftl/ftl_base.h"
#include "src/prof/prof.h"
#include "src/trace/trace.h"

namespace cubessd::ftl {

GcEngine::GcEngine(FtlBase &ftl)
    : ftl_(ftl),
      gc_(ftl.chips_.size())
{
    reserveScratch();
}

GcEngine::GcEngine(const GcEngine &other, FtlBase &ftl)
    : ftl_(ftl),
      gc_(other.gc_),
      scanReads_(other.scanReads_),
      programs_(other.programs_),
      programLatencySum_(other.programLatencySum_)
{
    // A vector copy does not keep capacity; restore the reservations.
    reserveScratch();
}

void
GcEngine::reserveScratch()
{
    // Worst case per collection: every page of the victim is valid.
    for (auto &gc : gc_)
        gc.pending.reserve(ftl_.geom_.pagesPerBlock());
    batchScratch_.reserve(ftl_.geom_.pagesPerWl);
}

GcStats
GcEngine::stats() const
{
    const FtlStats &s = ftl_.stats_;
    return {s.gcCollections, s.gcRelocatedPages, s.erases,
            scanReads_,      programs_,          programLatencySum_};
}

void
GcEngine::hashState(StateHash &h) const
{
    for (const ChipState &gc : gc_) {
        h.add(gc.active).add(gc.victim).add(gc.scanIndex);
        h.add(gc.outstandingReads).add(gc.outstandingPrograms);
        h.add(gc.scanDone).add(gc.erasing).add(gc.pending);
    }
    h.add(scanReads_).add(programs_).add(programLatencySum_);
}

void
GcEngine::setTracks(std::vector<std::uint32_t> tracks)
{
    tracks_ = std::move(tracks);
}

void
GcEngine::traceCollectionBegin(std::uint32_t chip)
{
    if (ftl_.trace_ == nullptr)
        return;
    const auto &gc = gc_[chip];
    const auto &mgr = ftl_.blockMgrs_[chip];
    ftl_.trace_->begin(
        tracks_[chip], "gc", ftl_.queue_.now(),
        {{"victim", gc.victim},
         {"valid_pages", mgr.info(gc.victim).validCount},
         {"free_blocks", static_cast<std::int64_t>(mgr.freeCount())}});
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
    auto &mgr = ftl_.blockMgrs_[chip];
    if (mgr.freeCount() >= ftl_.config_.gcLowWatermark)
        return;
    PROF_SCOPE(prof::Slot::FtlGc);
    const auto victim = mgr.pickVictim();
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
    ++ftl_.stats_.gcCollections;
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
    ++programs_;
    programLatencySum_ += tProg;
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
    const auto &info = ftl_.blockMgrs_[chip].info(gc.victim);
    const std::uint32_t pagesPerBlock = ftl_.geom_.pagesPerBlock();

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
        const nand::PageAddr addr = ftl_.pageAddr(gc.victim, pageIdx);
        ssd::NandOp op;
        op.kind = ssd::NandOp::Kind::Read;
        op.page = addr;
        op.readShiftMv = ftl_.readShiftFor(chip, addr);
        op.readSoftHint = ftl_.readSoftHint(chip, addr);
        op.listener = this;
        op.ctx = pageIdx;
        op.chip = chip;
        ++gc.outstandingReads;
        ++scanReads_;
        ++ftl_.stats_.nandReads;
        ftl_.chips_[chip].enqueue(op);
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
    if (!ftl_.blockMgrs_[chip].info(gc.victim).isValid(pageInBlockIdx))
        return;  // invalidated by a racing host write: nothing to move
    gc.pending.push_back(
        ftl_.relocationEntry(chip, gc.victim, pageInBlockIdx));
    ++ftl_.stats_.gcRelocatedPages;
}

void
GcEngine::maybeDispatchProgram(std::uint32_t chip, bool force)
{
    // Called only from continueOn, whose FtlGc scope is open.
    auto &gc = gc_[chip];
    const std::uint32_t pagesPerWl = ftl_.geom_.pagesPerWl;
    while (gc.pending.size() >= pagesPerWl ||
           (force && !gc.pending.empty())) {
        const std::size_t take =
            std::min<std::size_t>(gc.pending.size(), pagesPerWl);
        batchScratch_.assign(
            gc.pending.begin(),
            gc.pending.begin() + static_cast<long>(take));
        gc.pending.erase(gc.pending.begin(),
                         gc.pending.begin() + static_cast<long>(take));
        while (batchScratch_.size() < pagesPerWl)
            batchScratch_.push_back(FlushEntry{});
        ftl_.gcProgram(chip, batchScratch_);
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
    ftl_.chips_[chip].enqueue(op);
}

void
GcEngine::onNandOpComplete(const ssd::NandOp &op,
                           const ssd::NandOpResult &result)
{
    PROF_SCOPE(prof::Slot::FtlGc);
    if (op.kind == ssd::NandOp::Kind::Read) {
        const auto pageIdx = static_cast<std::uint32_t>(op.ctx);
        ftl_.stats_.readRetries +=
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
    auto &mgr = ftl_.blockMgrs_[chip];
    trace::TraceSession *trace = ftl_.trace_;
    const std::uint32_t victim = gc.victim;
    ++ftl_.stats_.erases;
    if (result.eraseFailed) {
        // Erase-status fail: the block never returns to the free
        // pool. All its pages were already relocated (GC erases
        // only fully-invalid victims), so retirement is clean.
        mgr.retire(victim);
        ++ftl_.stats_.eraseFailures;
        ++ftl_.stats_.retiredBlocks;
        if (trace != nullptr)
            trace->instant(tracks_[chip], "gc_erase_fail",
                           ftl_.queue_.now(), {{"block", victim}});
        ftl_.onBlockRetired(chip, victim);
        ftl_.checkReadOnly(chip);
    } else {
        mgr.release(victim);
        ftl_.onBlockErased(chip, victim);
        ftl_.retryDeferredFlushes(chip);
    }
    gc.active = false;
    gc.erasing = false;
    if (trace != nullptr)
        trace->end(tracks_[chip], ftl_.queue_.now());
    // Hysteresis: keep collecting until the high watermark.
    if (mgr.freeCount() < ftl_.config_.gcHighWatermark) {
        const auto next = mgr.pickVictim();
        if (next)
            startCollection(chip, *next);
    }
    // Free blocks were reclaimed: retry any held-back host flushes.
    ftl_.maybeFlush();
}

}  // namespace cubessd::ftl
