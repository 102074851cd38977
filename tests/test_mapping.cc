/**
 * @file
 * Unit tests for the L2P mapping table.
 */

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "src/ftl/mapping.h"

namespace cubessd::ftl {
namespace {

TEST(Mapping, StartsUnmapped)
{
    MappingTable map(100);
    for (Lba l = 0; l < 100; ++l)
        EXPECT_EQ(map.lookup(l), std::nullopt);
    EXPECT_EQ(map.mappedCount(), 0u);
}

TEST(Mapping, MapReturnsOldPpa)
{
    MappingTable map(10);
    EXPECT_EQ(map.map(3, 777), std::nullopt);
    EXPECT_EQ(map.lookup(3), 777u);
    EXPECT_EQ(map.map(3, 888), 777u);
    EXPECT_EQ(map.lookup(3), 888u);
    // The overload the benchmark calls ignores its version.
    EXPECT_EQ(map.map(3, 999, 1), 888u);
    EXPECT_EQ(map.lookup(3), 999u);
}

TEST(Mapping, MappedCountTracksFirstMapping)
{
    MappingTable map(10);
    map.map(1, 100);
    map.map(1, 200);
    map.map(2, 300);
    EXPECT_EQ(map.mappedCount(), 2u);
}

TEST(Mapping, LargestPpaRoundTrip)
{
    // The entry is the 32-bit PPA; the largest one sits just below
    // the kInvalid32 sentinel.
    MappingTable map(10);
    const Ppa ppa = kInvalid32 - 1;
    EXPECT_EQ(map.map(4, ppa), std::nullopt);
    EXPECT_EQ(map.lookup(4), ppa);
    EXPECT_EQ(map.map(4, 5), ppa);
    EXPECT_EQ(map.lookup(4), Ppa{5});
    EXPECT_TRUE(map.relocate(4, 5, ppa));
    EXPECT_EQ(map.lookup(4), ppa);
}

TEST(Mapping, RelocateMovesOnlyFromTheExpectedSource)
{
    MappingTable map(10);
    EXPECT_FALSE(map.relocate(2, 20, 21));  // never written
    EXPECT_EQ(map.lookup(2), std::nullopt);
    map.map(2, 20);
    EXPECT_FALSE(map.relocate(2, 19, 21));  // moved on since the copy
    EXPECT_EQ(map.lookup(2), Ppa{20});
    EXPECT_TRUE(map.relocate(2, 20, 21));
    EXPECT_EQ(map.lookup(2), Ppa{21});
    EXPECT_FALSE(map.relocate(2, 20, 22));  // a second copy of page 20
    EXPECT_EQ(map.lookup(2), Ppa{21});
    EXPECT_EQ(map.mappedCount(), 1u);
}

TEST(Mapping, PrefetchStaysInsideTheTableAndChangesNothing)
{
    // Under _GLIBCXX_ASSERTIONS (CI's sanitizer job) forming an entry
    // address past the end aborts, so this also pins the clipping.
    MappingTable map(10);
    map.map(3, 30);
    StateHash before;
    map.hashState(before);
    map.prefetch(0, 10);
    map.prefetch(9, 1000);   // clipped to the last entry
    map.prefetch(10, 1);     // past the end: ignored
    map.prefetch(4, 0);
    map.prefetch(kInvalidLba, 1);
    map.prefetch(5, std::numeric_limits<std::uint64_t>::max());
    StateHash after;
    map.hashState(after);
    EXPECT_EQ(before.value(), after.value());
    EXPECT_EQ(map.lookup(3), Ppa{30});
}

TEST(MappingDeathTest, OutOfRangePanics)
{
    MappingTable map(10);
    EXPECT_DEATH(map.lookup(10), "out of range");
    EXPECT_DEATH(map.map(11, 0), "out of range");
    EXPECT_DEATH(map.relocate(10, 0, 1), "out of range");
}

TEST(MappingDeathTest, PpaTooWideForAnEntryPanics)
{
    MappingTable map(10);
    EXPECT_DEATH(map.map(1, kInvalid32), "does not fit 32 bits");
    EXPECT_DEATH(map.map(1, Ppa{1} << 32), "does not fit 32 bits");
    EXPECT_DEATH(map.relocate(1, 0, kInvalid32), "does not fit 32 bits");
}

}  // namespace
}  // namespace cubessd::ftl
