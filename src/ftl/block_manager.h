/**
 * @file
 * Per-chip physical block bookkeeping: free list, valid-page counts,
 * reverse (P2L) mapping, and greedy victim selection for GC.
 */

#ifndef CUBESSD_FTL_BLOCK_MANAGER_H
#define CUBESSD_FTL_BLOCK_MANAGER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/state_hash.h"
#include "src/common/types.h"
#include "src/nand/geometry.h"

namespace cubessd::ftl {

/** State of one physical block within a chip. */
struct BlockInfo
{
    /** Reverse map: the LBA whose current data each page holds, or
     *  kInvalid32. A page is valid exactly when it has an entry. */
    std::vector<std::uint32_t> p2l;
    std::uint32_t validCount = 0;
    std::uint32_t programmedWls = 0;
    std::uint32_t eraseCount = 0;  ///< wear (for wear leveling)
    bool isFree = true;
    bool isActive = false;       ///< open as a write point (not a victim)
    bool isBad = false;          ///< retired after a program/erase fail

    bool isValid(std::uint32_t page) const { return p2l[page] != kInvalid32; }

    /** LBA whose data `page` holds, or kInvalidLba if it is invalid. */
    Lba lbaAt(std::uint32_t page) const
    {
        return isValid(page) ? p2l[page] : kInvalidLba;
    }
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

    /** Record that `pageInBlock` of `block` now holds `lba`'s data
     *  (`lba` must be below kInvalid32). */
    void markValid(std::uint32_t block, std::uint32_t pageInBlock,
                   Lba lba);

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
     * violation. Each validCount equals the block's reverse entries,
     * every entry is below `logicalPages`, a free block holds no valid
     * page and is on the free list exactly once, and no other block
     * (retired ones included) is on it.
     */
    void checkConsistency(std::uint64_t logicalPages) const;

    /** Fold every block's reverse map, wear and status plus the
     *  free-list order in. */
    void hashState(StateHash &h) const;

  private:
    nand::NandGeometry geom_;
    std::vector<BlockInfo> blocks_;
    /** Free blocks in release order. A vector: the list is short, an
     *  erase keeps the order (so allocate picks the same block a
     *  deque did), and freeCount() is two loads. */
    std::vector<std::uint32_t> freeList_;
    std::size_t retired_ = 0;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_BLOCK_MANAGER_H
