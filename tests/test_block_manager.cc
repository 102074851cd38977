/**
 * @file
 * Unit tests for the per-chip block manager: free-list lifecycle,
 * valid-page accounting and validity bits, and greedy victim
 * selection.
 */

#include <gtest/gtest.h>

#include <vector>

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
            mgr_.markValid(block, p);
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
    mgr_.markValid(b, 0);
    mgr_.markValid(b, 5);
    EXPECT_EQ(mgr_.info(b).validCount, 2u);
    EXPECT_TRUE(mgr_.isValid(b, 5));
    mgr_.markInvalid(b, 0);
    EXPECT_EQ(mgr_.info(b).validCount, 1u);
    EXPECT_FALSE(mgr_.isValid(b, 0));
    // Idempotent double-invalidation.
    mgr_.markInvalid(b, 0);
    EXPECT_EQ(mgr_.info(b).validCount, 1u);
    EXPECT_EQ(mgr_.totalValid(), 1u);
    EXPECT_FALSE(mgr_.isValid(b, 0));
    EXPECT_TRUE(mgr_.isValid(b, 5));
    mgr_.markInvalid(b, 5);
    mgr_.close(b);
    mgr_.release(b);
    for (std::uint32_t p = 0; p < tinyGeom().pagesPerBlock(); ++p)
        EXPECT_FALSE(mgr_.isValid(b, p));
    mgr_.checkConsistency();
}

TEST(BlockManager, NextValidWalksTheBitsOfOneBlockOnly)
{
    // 96 pages per block: two words each, the second half used, so
    // block 0's last word is followed directly by block 1's bits.
    nand::NandGeometry g = tinyGeom();
    g.layersPerBlock = 8;
    g.wlsPerLayer = 4;
    const std::uint32_t pages = g.pagesPerBlock();
    ASSERT_EQ(pages, 96u);
    BlockManager mgr(g);
    const auto b0 = mgr.allocate();
    const auto b1 = mgr.allocate();
    ASSERT_EQ(b1, b0 + 1);
    EXPECT_EQ(mgr.nextValid(b0, 0), pages);
    for (const std::uint32_t p : {3u, 63u, 64u, 95u})
        mgr.markValid(b0, p);
    mgr.markValid(b1, 0);

    // Bounded, so a nextValid that fails to advance fails the test
    // instead of growing `walked` without end.
    std::vector<std::uint32_t> walked;
    for (std::uint32_t p = mgr.nextValid(b0, 0);
         p < pages && walked.size() < pages; p = mgr.nextValid(b0, p + 1))
        walked.push_back(p);
    EXPECT_EQ(walked, (std::vector<std::uint32_t>{3, 63, 64, 95}));
    EXPECT_EQ(mgr.nextValid(b0, 4), 63u);
    EXPECT_EQ(mgr.nextValid(b0, pages), pages);
    EXPECT_EQ(mgr.nextValid(b1, 0), 0u);
    EXPECT_EQ(mgr.nextValid(b1, 1), pages);

    for (const std::uint32_t p : {3u, 63u, 64u, 95u})
        mgr.markInvalid(b0, p);
    EXPECT_EQ(mgr.nextValid(b0, 0), pages);
    EXPECT_TRUE(mgr.isValid(b1, 0));
    mgr.close(b0);
    mgr.release(b0);
    EXPECT_TRUE(mgr.isValid(b1, 0));
    mgr.checkConsistency();
}

TEST(BlockManagerDeathTest, PagesOutsideTheChipPanic)
{
    BlockManager mgr(tinyGeom());
    const auto b = mgr.allocate();
    const std::uint32_t pages = tinyGeom().pagesPerBlock();
    EXPECT_DEATH(mgr.markValid(b, pages), "outside the chip");
    EXPECT_DEATH(mgr.markInvalid(b, pages), "outside the chip");
    EXPECT_DEATH(mgr.isValid(tinyGeom().blocksPerChip, 0),
                 "outside the chip");
}

TEST(BlockManagerDeathTest, ConsistencyCheckCatchesCorruptBookkeeping)
{
    BlockManager mgr(tinyGeom());
    const auto b = mgr.allocate();
    mgr.markValid(b, 2);
    mgr.retire(mgr.allocate());
    mgr.checkConsistency();
    ++mgr.info(b).validCount;
    EXPECT_DEATH(mgr.checkConsistency(), "counts 2 valid pages");
    --mgr.info(b).validCount;
    mgr.info(mgr.allocate()).isFree = true;
    EXPECT_DEATH(mgr.checkConsistency(),
                 "free block 2 is on the free list 0 times");
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
    mgr_.markValid(b0, 0);
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
    mgr_.markValid(b, 0);
    mgr_.close(b);
    EXPECT_DEATH(mgr_.release(b), "valid pages");
}

TEST_F(BlockManagerTest, DoubleMarkValidPanics)
{
    const auto b = mgr_.allocate();
    mgr_.markValid(b, 0);
    EXPECT_DEATH(mgr_.markValid(b, 0), "already valid");
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
