/**
 * @file
 * Per-chip physical block bookkeeping: free list, valid-page counts,
 * one validity bit per page, and greedy victim selection for GC.
 *
 * Which LBA a valid page holds is not kept here: the page's data token
 * carries it (ftl::tokenLba), as a real SSD keeps the LBA in the page's
 * spare area.
 */

#ifndef CUBESSD_FTL_BLOCK_MANAGER_H
#define CUBESSD_FTL_BLOCK_MANAGER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/state_hash.h"
#include "src/nand/geometry.h"

namespace cubessd::ftl {

/** State of one physical block within a chip. */
struct BlockInfo
{
    std::uint32_t validCount = 0;
    std::uint32_t programmedWls = 0;
    std::uint32_t eraseCount = 0;  ///< wear (for wear leveling)
    bool isFree = true;
    bool isActive = false;       ///< open as a write point (not a victim)
    bool isBad = false;          ///< retired after a program/erase fail
};

class BlockManager
{
  public:
    explicit BlockManager(const nand::NandGeometry &geom);

    const nand::NandGeometry &geometry() const { return geom_; }

    std::size_t freeCount() const { return freeList_.size(); }

    /**
     * Pop the *least-worn* free block and mark it active (dynamic
     * wear leveling: new data always lands on the youngest block).
     * Fatal if the free list is empty (the FTL's GC watermarks are
     * supposed to prevent this).
     */
    std::uint32_t allocate();

    /** Return an erased block to the free list, counting the wear. */
    void release(std::uint32_t block);

    /** Mark a fully written active block as closed (GC-eligible). */
    void close(std::uint32_t block);

    /**
     * Move a block to the bad-block list after a program or erase
     * status fail. The block leaves circulation permanently: it is
     * never allocated, picked as a GC victim, or released again. Any
     * pages still valid at retirement stay readable (the NAND keeps
     * their data) until the caller relocates them and the relocations
     * invalidate them one by one.
     */
    void retire(std::uint32_t block);

    /** Blocks retired to the bad-block list so far. */
    std::size_t retiredCount() const { return retired_; }

    BlockInfo &info(std::uint32_t block) { return blocks_.at(block); }
    const BlockInfo &
    info(std::uint32_t block) const
    {
        return blocks_.at(block);
    }

    /** Does `pageInBlock` of `block` hold the current data of an LBA? */
    bool isValid(std::uint32_t block, std::uint32_t pageInBlock) const;

    /** The first valid page of `block` at or after `from`, or
     *  pagesPerBlock() if there is none. */
    std::uint32_t nextValid(std::uint32_t block, std::uint32_t from) const;

    /** Record that `pageInBlock` of `block` now holds an LBA's
     *  current data. */
    void markValid(std::uint32_t block, std::uint32_t pageInBlock);

    /** Invalidate one physical page (old version or discarded data). */
    void markInvalid(std::uint32_t block, std::uint32_t pageInBlock);

    /** Account one WL of `block` as programmed. */
    void noteWlProgrammed(std::uint32_t block);

    /**
     * Greedy victim selection: the closed block with the fewest valid
     * pages. Fully-valid blocks are never returned — collecting them
     * cannot free space (relocation consumes exactly what the erase
     * reclaims) and would livelock the GC.
     * @return nullopt if no profitable victim exists.
     */
    std::optional<std::uint32_t> pickVictim() const;

    /** Total valid pages across all blocks (consistency checks). */
    std::uint64_t totalValid() const;

    /** Wear imbalance: max - min erase count across all blocks. */
    std::uint32_t wearSpread() const;

    /**
     * Verify each block's bookkeeping against its own pages; panics on
     * violation. Each validCount equals the block's validity bits, a
     * free block holds no valid page and is on the free list exactly
     * once, and no other block (retired ones included) is on it.
     */
    void checkConsistency() const;

    /** Fold the validity bits, every block's wear and status, and the
     *  free-list order in. */
    void hashState(StateHash &h) const;

  private:
    /** Index into valid_ of the word holding `pageInBlock`'s bit;
     *  panics on a page outside the chip. */
    std::size_t wordOf(std::uint32_t block, std::uint32_t pageInBlock) const;

    nand::NandGeometry geom_;
    std::vector<BlockInfo> blocks_;
    /** Validity bits, wordsPerBlock_ words per block: bit p % 64 of
     *  word p / 64 is page p. The bits past pagesPerBlock() stay 0. */
    std::vector<std::uint64_t> valid_;
    std::uint32_t wordsPerBlock_ = 0;
    /** Free blocks in release order. A vector: the list is short, an
     *  erase keeps the order (so allocate picks the same block a
     *  deque did), and freeCount() is two loads. */
    std::vector<std::uint32_t> freeList_;
    std::size_t retired_ = 0;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_BLOCK_MANAGER_H
