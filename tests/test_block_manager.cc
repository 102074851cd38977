/**
 * @file
 * Unit tests for the per-chip block manager: free-list lifecycle,
 * valid-page accounting, and greedy victim selection.
 */

#include <gtest/gtest.h>

#include "src/ftl/block_manager.h"

namespace cubessd::ftl {
namespace {

nand::NandGeometry
tinyGeom()
{
    nand::NandGeometry g;
    g.blocksPerChip = 4;
    g.layersPerBlock = 2;
    g.wlsPerLayer = 2;
    g.pagesPerWl = 3;
    return g;
}

class BlockManagerTest : public ::testing::Test
{
  protected:
    BlockManagerTest() : mgr_(tinyGeom()) {}

    /** Fully program a block and mark `valid` pages valid. */
    void
    fillBlock(std::uint32_t block, std::uint32_t valid)
    {
        const auto geom = tinyGeom();
        for (std::uint32_t w = 0; w < geom.wlsPerBlock(); ++w)
            mgr_.noteWlProgrammed(block);
        for (std::uint32_t p = 0; p < valid; ++p)
            mgr_.markValid(block, p, p);
        mgr_.close(block);
    }

    BlockManager mgr_;
};

TEST_F(BlockManagerTest, AllocateDrainsFreeList)
{
    EXPECT_EQ(mgr_.freeCount(), 4u);
    const auto b = mgr_.allocate();
    EXPECT_EQ(mgr_.freeCount(), 3u);
    EXPECT_FALSE(mgr_.info(b).isFree);
    EXPECT_TRUE(mgr_.info(b).isActive);
}

TEST_F(BlockManagerTest, ReleaseReturnsToFreeList)
{
    const auto b = mgr_.allocate();
    mgr_.close(b);
    mgr_.release(b);
    EXPECT_EQ(mgr_.freeCount(), 4u);
    EXPECT_TRUE(mgr_.info(b).isFree);
}

TEST_F(BlockManagerTest, ValidAccounting)
{
    const auto b = mgr_.allocate();
    mgr_.markValid(b, 0, 100);
    mgr_.markValid(b, 5, 105);
    EXPECT_EQ(mgr_.info(b).validCount, 2u);
    EXPECT_EQ(mgr_.info(b).lbaAt(5), 105u);
    mgr_.markInvalid(b, 0);
    EXPECT_EQ(mgr_.info(b).validCount, 1u);
    EXPECT_EQ(mgr_.info(b).lbaAt(0), kInvalidLba);
    // Idempotent double-invalidation.
    mgr_.markInvalid(b, 0);
    EXPECT_EQ(mgr_.info(b).validCount, 1u);
    EXPECT_EQ(mgr_.totalValid(), 1u);
    EXPECT_FALSE(mgr_.info(b).isValid(0));
    EXPECT_TRUE(mgr_.info(b).isValid(5));
    mgr_.markInvalid(b, 5);
    mgr_.close(b);
    mgr_.release(b);
    for (std::uint32_t p = 0; p < tinyGeom().pagesPerBlock(); ++p) {
        EXPECT_FALSE(mgr_.info(b).isValid(p));
        EXPECT_EQ(mgr_.info(b).lbaAt(p), kInvalidLba);
    }
    mgr_.checkConsistency(1000);
}

TEST(BlockManagerDeathTest, ConsistencyCheckCatchesCorruptBookkeeping)
{
    BlockManager mgr(tinyGeom());
    const auto b = mgr.allocate();
    mgr.markValid(b, 2, 9);
    mgr.retire(mgr.allocate());
    mgr.checkConsistency(10);
    EXPECT_DEATH(mgr.checkConsistency(9), "LBA 9 beyond the 9 logical");
    ++mgr.info(b).validCount;
    EXPECT_DEATH(mgr.checkConsistency(10), "counts 2 valid pages");
    --mgr.info(b).validCount;
    mgr.info(mgr.allocate()).isFree = true;
    EXPECT_DEATH(mgr.checkConsistency(10),
                 "free block 2 is on the free list 0 times");
}

TEST(BlockManagerDeathTest, MarkValidRejectsAnLbaTooWideForTheMap)
{
    BlockManager mgr(tinyGeom());
    EXPECT_DEATH(mgr.markValid(mgr.allocate(), 0, kInvalid32),
                 "does not fit");
}

TEST_F(BlockManagerTest, VictimIsLeastValid)
{
    const auto b0 = mgr_.allocate();
    const auto b1 = mgr_.allocate();
    fillBlock(b0, 5);
    fillBlock(b1, 2);
    const auto victim = mgr_.pickVictim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, b1);
}

TEST_F(BlockManagerTest, ActiveAndPartialBlocksAreNotVictims)
{
    const auto b0 = mgr_.allocate();  // active, stays open
    mgr_.markValid(b0, 0, 1);
    EXPECT_FALSE(mgr_.pickVictim().has_value());
}

TEST_F(BlockManagerTest, NearlyFullBlocksAreNotVictims)
{
    // A victim must reclaim more than one WL of padding waste.
    const auto geom = tinyGeom();
    const auto b = mgr_.allocate();
    fillBlock(b, geom.pagesPerBlock() - 1);  // only 1 invalid page
    EXPECT_FALSE(mgr_.pickVictim().has_value());
}

TEST_F(BlockManagerTest, ProfitableVictimFound)
{
    const auto geom = tinyGeom();
    const auto b = mgr_.allocate();
    fillBlock(b, geom.pagesPerBlock() - geom.pagesPerWl);
    const auto victim = mgr_.pickVictim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, b);
}

TEST_F(BlockManagerTest, ReleaseWithValidPagesPanics)
{
    const auto b = mgr_.allocate();
    mgr_.markValid(b, 0, 1);
    mgr_.close(b);
    EXPECT_DEATH(mgr_.release(b), "valid pages");
}

TEST_F(BlockManagerTest, DoubleMarkValidPanics)
{
    const auto b = mgr_.allocate();
    mgr_.markValid(b, 0, 1);
    EXPECT_DEATH(mgr_.markValid(b, 0, 2), "already valid");
}

TEST_F(BlockManagerTest, ReleaseCountsWear)
{
    const auto b = mgr_.allocate();
    mgr_.close(b);
    mgr_.release(b);
    EXPECT_EQ(mgr_.info(b).eraseCount, 1u);
    const auto again = mgr_.allocate();  // least-worn: a fresh block
    mgr_.close(again);
    mgr_.release(again);
    // Two blocks have wear 1, two have wear 0.
    EXPECT_EQ(mgr_.wearSpread(), 1u);
}

TEST_F(BlockManagerTest, AllocatePrefersLeastWorn)
{
    // Cycle block X twice so it is the most worn, then check that a
    // fresh allocation picks a different (unworn) block first.
    const auto worn = mgr_.allocate();
    mgr_.close(worn);
    mgr_.release(worn);
    const auto next = mgr_.allocate();
    EXPECT_NE(next, worn);  // three unworn blocks still exist
}

TEST_F(BlockManagerTest, VictimTieBreaksTowardLeastWorn)
{
    // Two equally-invalid victims; the less-worn one must be chosen.
    const auto b0 = mgr_.allocate();
    const auto b1 = mgr_.allocate();
    // Pre-wear b0 by cycling it once through the free list.
    mgr_.close(b0);
    mgr_.release(b0);
    const auto b0Again = mgr_.allocate();  // least-worn picks another
    EXPECT_NE(b0Again, b0);
    fillBlock(b1, 2);
    // Re-grab b0 explicitly to fill it too (it has wear 1 now).
    std::uint32_t b0Refetched = b0Again;
    while (b0Refetched != b0 && mgr_.freeCount() > 0)
        b0Refetched = mgr_.allocate();
    ASSERT_EQ(b0Refetched, b0);
    fillBlock(b0, 2);
    fillBlock(b0Again, 2);
    const auto victim = mgr_.pickVictim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_NE(*victim, b0);  // b0 is the worn one
}

TEST_F(BlockManagerTest, ExhaustedFreeListIsFatal)
{
    for (int i = 0; i < 4; ++i)
        mgr_.allocate();
    EXPECT_EXIT(mgr_.allocate(), ::testing::ExitedWithCode(1),
                "out of free blocks");
}

}  // namespace
}  // namespace cubessd::ftl
