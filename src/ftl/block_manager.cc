#include "src/ftl/block_manager.h"

#include <algorithm>

#include "src/common/logging.h"

namespace cubessd::ftl {

BlockManager::BlockManager(const nand::NandGeometry &geom)
    : geom_(geom)
{
    blocks_.resize(geom_.blocksPerChip);
    for (std::uint32_t b = 0; b < geom_.blocksPerChip; ++b) {
        blocks_[b].p2l.assign(geom_.pagesPerBlock(), kInvalid32);
        freeList_.push_back(b);
    }
}

std::uint32_t
BlockManager::allocate()
{
    if (freeList_.empty())
        fatal("BlockManager: out of free blocks (GC watermarks too low "
              "or over-provisioning exhausted)");
    // Dynamic wear leveling: take the least-worn free block (the free
    // list is short, so a linear scan is fine).
    auto best = freeList_.begin();
    for (auto it = freeList_.begin(); it != freeList_.end(); ++it) {
        if (blocks_[*it].eraseCount < blocks_[*best].eraseCount)
            best = it;
    }
    const std::uint32_t block = *best;
    freeList_.erase(best);
    auto &info = blocks_[block];
    if (!info.isFree)
        panic("BlockManager: block %u on free list but not free", block);
    info.isFree = false;
    info.isActive = true;
    return block;
}

void
BlockManager::release(std::uint32_t block)
{
    auto &info = blocks_.at(block);
    if (info.isBad)
        panic("BlockManager: releasing retired block %u", block);
    if (info.validCount != 0)
        panic("BlockManager: releasing block %u with %u valid pages",
              block, info.validCount);
    info.p2l.assign(geom_.pagesPerBlock(), kInvalid32);
    info.programmedWls = 0;
    ++info.eraseCount;
    info.isFree = true;
    info.isActive = false;
    freeList_.push_back(block);
}

void
BlockManager::close(std::uint32_t block)
{
    auto &info = blocks_.at(block);
    if (info.isFree)
        panic("BlockManager: closing free block %u", block);
    info.isActive = false;
}

void
BlockManager::retire(std::uint32_t block)
{
    auto &info = blocks_.at(block);
    if (info.isBad)
        panic("BlockManager: block %u already retired", block);
    if (info.isFree)
        panic("BlockManager: retiring free block %u", block);
    info.isBad = true;
    info.isActive = false;
    ++retired_;
}

void
BlockManager::markValid(std::uint32_t block, std::uint32_t pageInBlock,
                        Lba lba)
{
    auto &info = blocks_.at(block);
    std::uint32_t &entry = info.p2l.at(pageInBlock);
    if (entry != kInvalid32)
        panic("BlockManager: page %u of block %u already valid",
              pageInBlock, block);
    if (lba >= kInvalid32)
        panic("BlockManager: LBA %llu does not fit the reverse map",
              static_cast<unsigned long long>(lba));
    entry = static_cast<std::uint32_t>(lba);
    ++info.validCount;
}

void
BlockManager::markInvalid(std::uint32_t block, std::uint32_t pageInBlock)
{
    auto &info = blocks_.at(block);
    std::uint32_t &entry = info.p2l.at(pageInBlock);
    if (entry == kInvalid32)
        return;  // idempotent: racing invalidations are benign
    entry = kInvalid32;
    --info.validCount;
}

void
BlockManager::noteWlProgrammed(std::uint32_t block)
{
    auto &info = blocks_.at(block);
    ++info.programmedWls;
    if (info.programmedWls > geom_.wlsPerBlock())
        panic("BlockManager: block %u over-programmed", block);
}

std::optional<std::uint32_t>
BlockManager::pickVictim() const
{
    std::optional<std::uint32_t> best;
    std::uint32_t bestValid = 0;
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
        const auto &info = blocks_[b];
        if (info.isFree || info.isActive || info.isBad)
            continue;
        if (info.programmedWls != geom_.wlsPerBlock())
            continue;  // only fully written blocks are GC candidates
        // A collection's own partial-WL padding can waste up to
        // pagesPerWl-1 pages, so a victim must reclaim more than that
        // or GC feeds on its own leftovers and never converges.
        if (info.validCount + geom_.pagesPerWl > geom_.pagesPerBlock())
            continue;
        // Greedy by reclaimable space; ties broken toward the
        // least-worn block so GC churn spreads across the chip.
        if (!best || info.validCount < bestValid ||
            (info.validCount == bestValid &&
             info.eraseCount < blocks_[*best].eraseCount)) {
            best = b;
            bestValid = info.validCount;
        }
    }
    return best;
}

std::uint64_t
BlockManager::totalValid() const
{
    std::uint64_t total = 0;
    for (const auto &info : blocks_)
        total += info.validCount;
    return total;
}

std::uint32_t
BlockManager::wearSpread() const
{
    std::uint32_t lo = ~0u, hi = 0;
    for (const auto &info : blocks_) {
        lo = std::min(lo, info.eraseCount);
        hi = std::max(hi, info.eraseCount);
    }
    return hi - lo;
}

void
BlockManager::checkConsistency(std::uint64_t logicalPages) const
{
    std::vector<std::uint32_t> listed(blocks_.size(), 0);
    for (const std::uint32_t block : freeList_)
        ++listed.at(block);
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
        const BlockInfo &info = blocks_[b];
        std::uint32_t valid = 0;
        for (const std::uint32_t lba : info.p2l) {
            if (lba == kInvalid32)
                continue;
            if (lba >= logicalPages)
                panic("consistency: block %u holds LBA %u beyond the "
                      "%llu logical pages",
                      b, lba, static_cast<unsigned long long>(logicalPages));
            ++valid;
        }
        if (valid != info.validCount)
            panic("consistency: block %u counts %u valid pages but "
                  "holds %u",
                  b, info.validCount, valid);
        if (info.isFree && valid != 0)
            panic("consistency: free block %u holds %u valid pages", b,
                  valid);
        if (listed[b] != (info.isFree ? 1u : 0u))
            panic("consistency: %s block %u is on the free list %u "
                  "times",
                  info.isFree ? "free" : info.isBad ? "retired" : "used",
                  b, listed[b]);
    }
}

void
BlockManager::hashState(StateHash &h) const
{
    for (const BlockInfo &b : blocks_) {
        h.add(b.p2l).add(b.validCount).add(b.programmedWls);
        h.add(b.eraseCount).add(b.isFree).add(b.isActive).add(b.isBad);
    }
    h.add(freeList_.size());
    for (const std::uint32_t block : freeList_)
        h.add(block);
    h.add(retired_);
}

}  // namespace cubessd::ftl
