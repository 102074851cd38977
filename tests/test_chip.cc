/**
 * @file
 * Unit tests for the behavioural chip model: command semantics,
 * data-token storage, wear accounting, stats, and the horizontal
 * similarity of tPROG (Fig. 5(d)).
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/nand/chip.h"

namespace cubessd::nand {
namespace {

NandChipConfig
smallConfig()
{
    NandChipConfig config;
    config.geometry.blocksPerChip = 8;
    config.seed = 11;
    return config;
}

class ChipTest : public ::testing::Test
{
  protected:
    ChipTest() : chip_(smallConfig()) {}

    std::vector<std::uint64_t>
    tokens(std::uint64_t base)
    {
        std::vector<std::uint64_t> t;
        for (std::uint32_t p = 0; p < chip_.geometry().pagesPerWl; ++p)
            t.push_back(base + p);
        return t;
    }

    NandChip chip_;
};

TEST_F(ChipTest, ProgramThenReadReturnsTokens)
{
    chip_.eraseBlock(0);
    const WlAddr wl{0, 10, 2};
    chip_.programWl(wl, ProgramCommand{}, tokens(100));
    for (std::uint32_t p = 0; p < chip_.geometry().pagesPerWl; ++p) {
        const PageAddr addr{0, 10, 2, p};
        EXPECT_TRUE(chip_.isPageProgrammed(addr));
        EXPECT_EQ(chip_.pageToken(addr), 100 + p);
        const auto out = chip_.readPage(addr, 0);
        EXPECT_FALSE(out.uncorrectable);
    }
}

TEST_F(ChipTest, EraseClearsState)
{
    chip_.eraseBlock(1);
    chip_.programWl({1, 0, 0}, ProgramCommand{}, tokens(7));
    EXPECT_TRUE(chip_.isWlProgrammed({1, 0, 0}));
    chip_.eraseBlock(1);
    EXPECT_FALSE(chip_.isWlProgrammed({1, 0, 0}));
    EXPECT_EQ(chip_.pageToken({1, 0, 0, 0}), 0u);
}

TEST_F(ChipTest, EraseCountsWear)
{
    EXPECT_EQ(chip_.eraseCount(2), 0u);
    chip_.eraseBlock(2);
    chip_.eraseBlock(2);
    EXPECT_EQ(chip_.eraseCount(2), 2u);
    EXPECT_EQ(chip_.blockAging(2).peCycles, 2u);
}

TEST_F(ChipTest, InjectedAgingAddsToRuntimeWear)
{
    chip_.setAging({1000, 3.0});
    chip_.eraseBlock(3);
    const auto aging = chip_.blockAging(3);
    EXPECT_EQ(aging.peCycles, 1001u);
    EXPECT_DOUBLE_EQ(aging.retentionMonths, 3.0);
}

TEST_F(ChipTest, InjectedWearSaturatesInsteadOfWrapping)
{
    // cubessd_sim --pe takes any 32-bit count; runtime erases on top
    // of one near the limit must not wrap the block back to fresh.
    constexpr PeCycles kMax = std::numeric_limits<PeCycles>::max();
    chip_.setAging({kMax - 1, 0.0});
    chip_.eraseBlock(4);
    EXPECT_EQ(chip_.blockAging(4).peCycles, kMax);
    chip_.eraseBlock(4);
    chip_.eraseBlock(4);
    EXPECT_EQ(chip_.eraseCount(4), 3u);
    EXPECT_EQ(chip_.blockAging(4).peCycles, kMax);
    EXPECT_EQ(chip_.blockAging(5).peCycles, kMax - 1);
}

TEST_F(ChipTest, DoubleProgramPanics)
{
    chip_.eraseBlock(0);
    chip_.programWl({0, 0, 0}, ProgramCommand{}, tokens(1));
    EXPECT_DEATH(chip_.programWl({0, 0, 0}, ProgramCommand{},
                                 tokens(2)),
                 "without erase");
}

TEST_F(ChipTest, ReadUnprogrammedPanics)
{
    chip_.eraseBlock(0);
    EXPECT_DEATH(chip_.readPage({0, 5, 1, 0}, 0), "not programmed");
}

TEST_F(ChipTest, WrongTokenCountPanics)
{
    chip_.eraseBlock(0);
    std::vector<std::uint64_t> wrong(2, 1);
    EXPECT_DEATH(chip_.programWl({0, 0, 0}, ProgramCommand{}, wrong),
                 "tokens");
}

TEST_F(ChipTest, TprogEqualWithinLayerDifferentAcrossLayers)
{
    // Fig. 5(d): all WLs on an h-layer share tPROG; layers may differ.
    chip_.eraseBlock(4);
    const auto &process = chip_.process();
    std::vector<SimTime> best, worst;
    for (std::uint32_t w = 0; w < chip_.geometry().wlsPerLayer; ++w) {
        best.push_back(
            chip_.programWl({4, process.layerBeta(), w},
                            ProgramCommand{}, tokens(w))
                .tProg);
        worst.push_back(
            chip_.programWl({4, process.layerOmega(), w},
                            ProgramCommand{}, tokens(w))
                .tProg);
    }
    for (std::uint32_t w = 1; w < best.size(); ++w) {
        EXPECT_NEAR(static_cast<double>(best[w]),
                    static_cast<double>(best[0]),
                    static_cast<double>(best[0]) * 0.05);
        EXPECT_NEAR(static_cast<double>(worst[w]),
                    static_cast<double>(worst[0]),
                    static_cast<double>(worst[0]) * 0.05);
    }
}

TEST_F(ChipTest, FeatureSetOverheadCharged)
{
    chip_.eraseBlock(5);
    const auto plain =
        chip_.programWl({5, 20, 0}, ProgramCommand{}, tokens(1));
    ProgramCommand cmd;
    cmd.vFinalAdjMv = 100;
    const auto tuned =
        chip_.programWl({5, 20, 1}, cmd, tokens(2));
    EXPECT_EQ(chip_.stats().featureSets, 1u);
    EXPECT_LT(tuned.tProg, plain.tProg);
}

TEST_F(ChipTest, StatsAccumulate)
{
    chip_.eraseBlock(6);
    chip_.programWl({6, 0, 0}, ProgramCommand{}, tokens(1));
    chip_.readPage({6, 0, 0, 0}, 0);
    const auto &stats = chip_.stats();
    EXPECT_EQ(stats.erases, 1u);
    EXPECT_EQ(stats.wlPrograms, 1u);
    EXPECT_EQ(stats.pageReads, 1u);
    EXPECT_GT(stats.totalProgramTime, 0u);
    EXPECT_GT(stats.totalReadTime, 0u);
    EXPECT_GT(stats.totalEraseTime, 0u);
    chip_.resetStats();
    EXPECT_EQ(chip_.stats().erases, 0u);
}

TEST_F(ChipTest, ProgramBerPenaltyAffectsLaterReads)
{
    // A WL programmed with an abusive skip plan stores its penalty;
    // reads of that WL see the elevated BER once the chip ages.
    chip_.setAging({2000, 6.0});
    chip_.eraseBlock(7);
    const auto clean =
        chip_.programWl({7, 30, 0}, ProgramCommand{}, tokens(1));
    ProgramCommand bad;
    bad.useSkipPlan = true;
    for (auto &s : bad.skipVfy)
        s = 14;  // skip everything: heavy over-programming
    const auto dirty = chip_.programWl({7, 30, 1}, bad, tokens(2));
    EXPECT_GT(dirty.berMultiplier, clean.berMultiplier);

    const auto cleanRead = chip_.readPage({7, 30, 0, 0}, 0);
    const auto dirtyRead = chip_.readPage({7, 30, 1, 0}, 0);
    EXPECT_GT(dirtyRead.rawBerNorm, cleanRead.rawBerNorm);
}

TEST(ChipConfigTest, MlcChipEndToEnd)
{
    // A 2-bit MLC chip: 2 pages per WL, 3 program states.
    NandChipConfig config;
    config.geometry.blocksPerChip = 4;
    config.geometry.pagesPerWl = 2;
    config.ispp.programStates = 3;
    config.ispp.windowMv = 1050;
    config.ispp.deltaVMv = 150;
    config.ispp.firstStateOffsetMv = 350;
    config.ispp.stateSpacingMv = 300;
    config.ispp.cellSigmaMv = 30.0;
    NandChip chip(config);
    chip.eraseBlock(0);
    std::vector<std::uint64_t> tokens{11, 22};
    const auto r = chip.programWl({0, 5, 0}, ProgramCommand{}, tokens);
    EXPECT_EQ(r.loopsUsed, 7);
    EXPECT_EQ(r.verifiesDone, 15);
    EXPECT_LT(r.tProg, 700u * kMicrosecond);  // MLC programs faster
    EXPECT_EQ(chip.pageToken({0, 5, 0, 0}), 11u);
    EXPECT_EQ(chip.pageToken({0, 5, 0, 1}), 22u);
    const auto out = chip.readPage({0, 5, 0, 1}, 0);
    EXPECT_FALSE(out.uncorrectable);
}

TEST(ChipConfigTest, SameSeedSameBehaviour)
{
    NandChip a(smallConfig()), b(smallConfig());
    a.eraseBlock(0);
    b.eraseBlock(0);
    std::vector<std::uint64_t> toks(a.geometry().pagesPerWl, 9);
    const auto ra = a.programWl({0, 12, 1}, ProgramCommand{}, toks);
    const auto rb = b.programWl({0, 12, 1}, ProgramCommand{}, toks);
    EXPECT_EQ(ra.tProg, rb.tProg);
    EXPECT_EQ(ra.loopsUsed, rb.loopsUsed);
    EXPECT_DOUBLE_EQ(ra.berEp1Norm, rb.berEp1Norm);
}

}  // namespace
}  // namespace cubessd::nand
