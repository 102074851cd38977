#include "src/ftl/block_manager.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"

namespace cubessd::ftl {

BlockManager::BlockManager(const nand::NandGeometry &geom)
    : geom_(geom),
      blocks_(geom.blocksPerChip),
      wordsPerBlock_((geom.pagesPerBlock() + 63) / 64)
{
    valid_.assign(std::size_t{wordsPerBlock_} * geom_.blocksPerChip, 0);
    freeList_.reserve(geom_.blocksPerChip);
    for (std::uint32_t b = 0; b < geom_.blocksPerChip; ++b)
        freeList_.push_back(b);
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
    std::fill_n(valid_.begin() + wordOf(block, 0), wordsPerBlock_, 0);
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

std::size_t
BlockManager::wordOf(std::uint32_t block, std::uint32_t pageInBlock) const
{
    if (block >= geom_.blocksPerChip || pageInBlock >= geom_.pagesPerBlock())
        panic("BlockManager: page %u of block %u is outside the chip",
              pageInBlock, block);
    return std::size_t{block} * wordsPerBlock_ + pageInBlock / 64;
}

bool
BlockManager::isValid(std::uint32_t block, std::uint32_t pageInBlock) const
{
    return (valid_[wordOf(block, pageInBlock)] >> (pageInBlock % 64)) & 1;
}

std::uint32_t
BlockManager::nextValid(std::uint32_t block, std::uint32_t from) const
{
    const std::uint32_t pages = geom_.pagesPerBlock();
    if (from >= pages)
        return pages;
    const std::size_t base = wordOf(block, 0);
    std::uint32_t w = from / 64;
    std::uint64_t bits = valid_[base + w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
        if (++w == wordsPerBlock_)
            return pages;
        bits = valid_[base + w];
    }
    return w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
}

void
BlockManager::markValid(std::uint32_t block, std::uint32_t pageInBlock)
{
    std::uint64_t &word = valid_[wordOf(block, pageInBlock)];
    const std::uint64_t bit = std::uint64_t{1} << (pageInBlock % 64);
    if (word & bit)
        panic("BlockManager: page %u of block %u already valid",
              pageInBlock, block);
    word |= bit;
    ++blocks_[block].validCount;
}

void
BlockManager::markInvalid(std::uint32_t block, std::uint32_t pageInBlock)
{
    std::uint64_t &word = valid_[wordOf(block, pageInBlock)];
    const std::uint64_t bit = std::uint64_t{1} << (pageInBlock % 64);
    if (!(word & bit))
        return;  // idempotent: racing invalidations are benign
    word &= ~bit;
    --blocks_[block].validCount;
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
BlockManager::checkConsistency() const
{
    std::vector<std::uint32_t> listed(blocks_.size(), 0);
    for (const std::uint32_t block : freeList_)
        ++listed.at(block);
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
        const BlockInfo &info = blocks_[b];
        std::uint32_t valid = 0;
        for (std::uint32_t w = 0; w < wordsPerBlock_; ++w)
            valid += static_cast<std::uint32_t>(
                std::popcount(valid_[std::size_t{b} * wordsPerBlock_ + w]));
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
    h.add(valid_);
    for (const BlockInfo &b : blocks_) {
        h.add(b.validCount).add(b.programmedWls);
        h.add(b.eraseCount).add(b.isFree).add(b.isActive).add(b.isBad);
    }
    h.add(freeList_.size());
    for (const std::uint32_t block : freeList_)
        h.add(block);
    h.add(retired_);
}

}  // namespace cubessd::ftl
