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
    for (Lba l = 0; l < 100; ++l) {
        EXPECT_EQ(map.lookup(l), std::nullopt);
        EXPECT_EQ(map.mappedVersion(l), 0u);
    }
    EXPECT_EQ(map.mappedCount(), 0u);
}

TEST(Mapping, MapReturnsOldPpa)
{
    MappingTable map(10);
    EXPECT_EQ(map.map(3, 777, 1), std::nullopt);
    EXPECT_EQ(map.lookup(3), 777u);
    EXPECT_EQ(map.mappedVersion(3), 1u);
    EXPECT_EQ(map.map(3, 888, 2), 777u);
    EXPECT_EQ(map.lookup(3), 888u);
    EXPECT_EQ(map.mappedVersion(3), 2u);
}

TEST(Mapping, MappedCountTracksFirstMapping)
{
    MappingTable map(10);
    map.map(1, 100, 1);
    map.map(1, 200, 2);
    map.map(2, 300, 3);
    EXPECT_EQ(map.mappedCount(), 2u);
}

TEST(Mapping, WideVersionAndLargestPpaRoundTrip)
{
    // The entry keeps the version in two 32-bit halves and the PPA in
    // 32 bits beside the sentinel.
    MappingTable map(10);
    const std::uint64_t version = (std::uint64_t{1} << 40) + 7;
    const Ppa ppa = kInvalid32 - 1;
    EXPECT_EQ(map.map(4, ppa, version), std::nullopt);
    EXPECT_EQ(map.lookup(4), ppa);
    EXPECT_EQ(map.mappedVersion(4), version);
    EXPECT_EQ(map.map(4, 5, version + 1), ppa);
    EXPECT_EQ(map.mappedVersion(4), version + 1);
}

TEST(Mapping, PrefetchStaysInsideTheTableAndChangesNothing)
{
    // Under _GLIBCXX_ASSERTIONS (CI's sanitizer job) forming an entry
    // address past the end aborts, so this also pins the clipping.
    MappingTable map(10);
    map.map(3, 30, 1);
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
    EXPECT_DEATH(map.map(11, 0, 1), "out of range");
}

TEST(MappingDeathTest, PpaTooWideForAnEntryPanics)
{
    MappingTable map(10);
    EXPECT_DEATH(map.map(1, kInvalid32, 1), "does not fit 32 bits");
    EXPECT_DEATH(map.map(1, Ppa{1} << 32, 1), "does not fit 32 bits");
}

}  // namespace
}  // namespace cubessd::ftl
