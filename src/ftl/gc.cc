/**
 * @file
 * Garbage collection: each chip's collection state machine, part of
 * the FTL like its policy (src/ftl/policy.cc).
 *
 * A collection reads its victim's valid pages, programs them a WL at a
 * time through the flush path, so program-target policy (leader/follower
 * steering, safety checks) applies to GC traffic exactly as to host
 * traffic, then erases the victim. Collections start below the low
 * free-block watermark and continue up to the high one (hysteresis).
 * Victims are picked greedily: the closed block with the fewest valid
 * pages (BlockManager::pickVictim).
 */

#include <algorithm>

#include "src/ftl/ftl.h"
#include "src/prof/prof.h"
#include "src/trace/trace.h"

namespace cubessd::ftl {

GcStats
Ftl::gcStats() const
{
    return {stats_.gcCollections, stats_.gcRelocatedPages, stats_.erases,
            gcScanReads_, gcProgramsRun_, gcProgramLatencySum_};
}

bool
Ftl::collecting(std::uint32_t chip) const
{
    return chips_.at(chip).gc != GcPhase::Idle;
}

void
Ftl::maybeStartGc(std::uint32_t chip)
{
    // The scope opens only past the early-outs: this is polled on
    // every program completion, and profiling the two-compare idle
    // check would cost more than the check itself.
    Chip &c = chips_[chip];
    if (c.gc != GcPhase::Idle ||
        c.blocks.freeCount() >= config_.gcLowWatermark)
        return;
    PROF_SCOPE(prof::Slot::FtlGc);
    if (const auto victim = c.blocks.pickVictim())
        startCollection(chip, *victim);
}

void
Ftl::startCollection(std::uint32_t chip, std::uint32_t victim)
{
    Chip &c = chips_[chip];
    c.gc = GcPhase::Scan;
    c.victim = victim;
    c.scanIndex = 0;
    c.head = 0;
    c.tail = 0;
    ++stats_.gcCollections;
    if (trace_ != nullptr)
        trace_->begin(
            c.gcTrack, "gc", queue_->now(),
            {{"victim", victim},
             {"valid_pages", c.blocks.info(victim).validCount},
             {"free_blocks", static_cast<std::int64_t>(c.blocks.freeCount())}});
    continueCollection(chip);
}

void
Ftl::continueCollection(std::uint32_t chip)
{
    Chip &c = chips_[chip];
    if (c.gc == GcPhase::Idle)
        return;  // polled on every GC program completion
    PROF_SCOPE(prof::Slot::FtlGc);

    // Issue the next scan read (one outstanding at a time, so host
    // reads can interleave).
    if (c.gc == GcPhase::Scan && c.readsInFlight == 0) {
        c.scanIndex = c.blocks.nextValid(c.victim, c.scanIndex);
        if (c.scanIndex < geom_.pagesPerBlock()) {
            const std::uint32_t pageIdx = c.scanIndex++;
            const nand::PageAddr addr = pageAddr(c.victim, pageIdx);
            // relocationEntry reads its token when this read completes.
            units_[chip].chip().prefetchToken(addr);
            ssd::NandOp op;
            op.kind = ssd::NandOp::Kind::Read;
            op.page = addr;
            const ReadHint hint = readHintFor(chip, addr);
            op.readShiftMv = hint.shiftMv;
            op.readSoftHint = hint.soft;
            op.listener = this;
            op.ctx = pageIdx;
            op.chip = chip;
            op.tagGc = true;
            ++c.readsInFlight;
            ++gcScanReads_;
            ++stats_.nandReads;
            units_[chip].enqueue(op);
        } else {
            c.gc = GcPhase::Move;
        }
    }

    // Program every whole WL of relocations, and the remainder once
    // the scan is done.
    const std::uint32_t pagesPerWl = geom_.pagesPerWl;
    while (c.tail - c.head >= pagesPerWl ||
           (c.gc != GcPhase::Scan && c.head != c.tail)) {
        const std::uint32_t take = std::min(c.tail - c.head, pagesPerWl);
        const std::span<const FlushEntry> wl(c.pending.data() + c.head,
                                             take);
        c.head += take;
        dispatchEntries(chip, wl, /*forGc=*/true);
    }

    if (c.gc == GcPhase::Move && c.head == c.tail &&
        c.programsInFlight == 0) {
        c.gc = GcPhase::Erase;
        ssd::NandOp op;
        op.kind = ssd::NandOp::Kind::Erase;
        op.block = c.victim;
        op.listener = this;
        op.chip = chip;
        op.tagGc = true;
        units_[chip].enqueue(op);
    }
}

void
Ftl::onGcOpComplete(const ssd::NandOp &op, const ssd::NandOpResult &result)
{
    PROF_SCOPE(prof::Slot::FtlGc);
    if (op.kind == ssd::NandOp::Kind::Erase) {
        onVictimErased(op.chip, result);
        return;
    }
    Chip &c = chips_[op.chip];
    const auto pageIdx = static_cast<std::uint32_t>(op.ctx);
    stats_.readRetries += static_cast<std::uint64_t>(result.read.numRetries);
    --c.readsInFlight;
    // A racing host write may have invalidated the page: nothing to move.
    if (c.blocks.isValid(c.victim, pageIdx)) {
        c.pending[c.tail++] = relocationEntry(op.chip, c.victim, pageIdx);
        ++stats_.gcRelocatedPages;
    }
    continueCollection(op.chip);
}

void
Ftl::onVictimErased(std::uint32_t chip, const ssd::NandOpResult &result)
{
    // Called only from onGcOpComplete, whose FtlGc scope is open.
    Chip &c = chips_[chip];
    const std::uint32_t victim = c.victim;
    ++stats_.erases;
    if (result.eraseFailed) {
        // Erase-status fail: the block never returns to the free
        // pool. All its pages were already relocated (GC erases
        // only fully-invalid victims), so retirement is clean.
        c.blocks.retire(victim);
        ++stats_.eraseFailures;
        ++stats_.retiredBlocks;
        if (trace_ != nullptr)
            trace_->instant(c.gcTrack, "gc_erase_fail", queue_->now(),
                            {{"block", victim}});
        onBlockRetired(chip, victim);
        checkReadOnly(chip);
    } else {
        c.blocks.release(victim);
        onBlockErased(chip, victim);
        retryDeferredFlushes(chip);
    }
    c.gc = GcPhase::Idle;
    if (trace_ != nullptr)
        trace_->end(c.gcTrack, queue_->now());
    // Hysteresis: keep collecting until the high watermark.
    if (c.blocks.freeCount() < config_.gcHighWatermark) {
        if (const auto next = c.blocks.pickVictim())
            startCollection(chip, *next);
    }
    // Free blocks were reclaimed: retry any held-back host flushes.
    maybeFlush();
}

}  // namespace cubessd::ftl
