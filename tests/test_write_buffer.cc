/**
 * @file
 * Unit tests for the DRAM write buffer and its per-LBA records.
 */

#include <gtest/gtest.h>

#include "src/ftl/write_buffer.h"

namespace cubessd::ftl {
namespace {

std::vector<FlushEntry>
popOldest(WriteBuffer &buf, std::uint32_t n)
{
    std::vector<FlushEntry> out;
    buf.popOldest(n, out);
    return out;
}

TEST(WriteBuffer, InsertLookup)
{
    WriteBuffer buf(4);
    EXPECT_TRUE(buf.insert(10, 111, 1));
    EXPECT_TRUE(buf.insert(20, 222, 2));
    EXPECT_EQ(buf.lookup(10).value(), 111u);
    EXPECT_EQ(buf.lookup(20).value(), 222u);
    EXPECT_FALSE(buf.lookup(30).has_value());
}

TEST(WriteBuffer, CoalescesRewrites)
{
    WriteBuffer buf(2);
    EXPECT_TRUE(buf.insert(10, 111, 1));
    EXPECT_TRUE(buf.insert(10, 999, 2));
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.lookup(10).value(), 999u);
}

TEST(WriteBuffer, FullRejectsNewAcceptsCoalesce)
{
    WriteBuffer buf(2);
    EXPECT_TRUE(buf.insert(1, 1, 1));
    EXPECT_TRUE(buf.insert(2, 2, 2));
    EXPECT_TRUE(buf.full());
    EXPECT_FALSE(buf.insert(3, 3, 3));
    EXPECT_TRUE(buf.insert(1, 11, 4));  // coalesce still works
    // LBA 1 is then only in flight: a full buffer refuses it too.
    popOldest(buf, 1);
    EXPECT_TRUE(buf.insert(3, 3, 5));
    EXPECT_FALSE(buf.insert(1, 12, 6));
    EXPECT_EQ(buf.lookup(1).value(), 11u);
}

TEST(WriteBuffer, UtilizationTracksOccupancy)
{
    WriteBuffer buf(10);
    EXPECT_DOUBLE_EQ(buf.utilization(), 0.0);
    for (Lba l = 0; l < 9; ++l)
        buf.insert(l, l, l + 1);
    EXPECT_DOUBLE_EQ(buf.utilization(), 0.9);
}

TEST(WriteBuffer, PopOldestIsFifo)
{
    WriteBuffer buf(8);
    for (Lba l = 0; l < 5; ++l)
        buf.insert(l, 100 + l, l + 1);
    const auto popped = popOldest(buf, 3);
    ASSERT_EQ(popped.size(), 3u);
    EXPECT_EQ(popped[0].lba, 0u);
    EXPECT_EQ(popped[1].lba, 1u);
    EXPECT_EQ(popped[2].lba, 2u);
    EXPECT_EQ(buf.size(), 2u);
    // A popped page is served until its flush lands.
    EXPECT_EQ(buf.lookup(0).value(), 100u);
    EXPECT_TRUE(buf.land(0, popped[0].version));
    EXPECT_FALSE(buf.lookup(0).has_value());
    EXPECT_TRUE(buf.lookup(4).has_value());
    // Refilling wraps the ring; the order holds across the wrap.
    for (Lba l = 5; l < 11; ++l)
        ASSERT_TRUE(buf.insert(l, 100 + l, l + 1));
    EXPECT_TRUE(buf.full());
    const auto rest = popOldest(buf, 8);
    ASSERT_EQ(rest.size(), 8u);
    for (std::size_t i = 0; i < rest.size(); ++i)
        EXPECT_EQ(rest[i].lba, 3 + i);
}

TEST(WriteBuffer, PopMoreThanAvailable)
{
    WriteBuffer buf(8);
    buf.insert(1, 1, 1);
    const auto popped = popOldest(buf, 5);
    EXPECT_EQ(popped.size(), 1u);
    EXPECT_TRUE(buf.empty());
}

TEST(WriteBuffer, CoalesceDoesNotChangeFifoPosition)
{
    WriteBuffer buf(8);
    buf.insert(1, 1, 1);
    buf.insert(2, 2, 2);
    buf.insert(1, 11, 3);  // rewrite of the oldest entry
    const auto popped = popOldest(buf, 1);
    ASSERT_EQ(popped.size(), 1u);
    EXPECT_EQ(popped[0].lba, 1u);
    EXPECT_EQ(popped[0].token, 11u);
    EXPECT_EQ(popped[0].version, 3u);
}

TEST(WriteBuffer, OlderLandingAfterANewerOneIsNotCurrent)
{
    // Three flushes of one LBA land out of order: 2, 1, 3.
    WriteBuffer buf(4);
    for (std::uint64_t v = 1; v <= 3; ++v) {
        buf.insert(7, 70 + v, v);
        popOldest(buf, 1);
    }
    EXPECT_TRUE(buf.land(7, 2));
    EXPECT_EQ(buf.lookup(7).value(), 73u);  // the newest is not on NAND
    EXPECT_FALSE(buf.land(7, 1));
    EXPECT_EQ(buf.lookup(7).value(), 73u);
    EXPECT_TRUE(buf.land(7, 3));
    EXPECT_FALSE(buf.lookup(7).has_value());
}

TEST(WriteBuffer, RecordLastsUntilTheLastFlushLands)
{
    WriteBuffer buf(4);
    buf.insert(7, 71, 1);
    popOldest(buf, 1);
    buf.insert(7, 72, 2);
    popOldest(buf, 1);
    EXPECT_TRUE(buf.land(7, 1));
    EXPECT_EQ(buf.lookup(7).value(), 72u);
    buf.checkConsistency(true);
    EXPECT_TRUE(buf.land(7, 2));
    EXPECT_FALSE(buf.lookup(7).has_value());
    buf.checkConsistency(false);  // the record went with the landing
}

TEST(WriteBuffer, RewriteWhileInFlightIsBufferedAgain)
{
    WriteBuffer buf(4);
    buf.insert(7, 71, 1);
    popOldest(buf, 1);
    EXPECT_TRUE(buf.insert(7, 72, 2));
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.lookup(7).value(), 72u);
    EXPECT_TRUE(buf.land(7, 1));
    // The LBA's last flush landed, but its record stays buffered.
    ASSERT_EQ(buf.lookup(7).value(), 72u);
    buf.checkConsistency(false);
    const auto popped = popOldest(buf, 1);
    ASSERT_EQ(popped.size(), 1u);
    EXPECT_EQ(popped[0].token, 72u);
    EXPECT_EQ(popped[0].version, 2u);
    EXPECT_TRUE(buf.land(7, 2));
    EXPECT_FALSE(buf.lookup(7).has_value());
}

TEST(WriteBufferDeathTest, ZeroCapacityRejected)
{
    EXPECT_EXIT(WriteBuffer{0}, ::testing::ExitedWithCode(1),
                "capacity");
}

TEST(WriteBufferDeathTest, LandingWithNoFlushInFlightPanics)
{
    WriteBuffer buf(4);
    EXPECT_DEATH(buf.land(7, 1), "no flush in flight");
    buf.insert(7, 71, 1);  // buffered, not popped
    EXPECT_DEATH(buf.land(7, 1), "no flush in flight");
    popOldest(buf, 1);
    EXPECT_TRUE(buf.land(7, 1));
    EXPECT_DEATH(buf.land(7, 1), "no flush in flight");
}

TEST(WriteBufferDeathTest, ConsistencyCheckSeesAnOutstandingFlush)
{
    WriteBuffer buf(4);
    buf.insert(7, 71, 1);
    buf.checkConsistency(false);
    popOldest(buf, 1);
    buf.checkConsistency(true);
    EXPECT_DEATH(buf.checkConsistency(false),
                 "LBA 7 counts 1 flushes in flight, the FTL none");
}

}  // namespace
}  // namespace cubessd::ftl
