/**
 * @file
 * Property-based sweeps across geometries, seeds, and aging states:
 * the paper's invariants must hold for *every* configuration, not
 * just the defaults.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/ftl/ftl.h"
#include "src/ftl/program_order.h"
#include "src/nand/chip.h"
#include "src/ssd/ssd.h"

namespace cubessd {
namespace {

/** Horizontal similarity must hold for any chip seed and any aging. */
class SimilarityProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, PeCycles, double>>
{
};

TEST_P(SimilarityProperty, DeltaHNearOne)
{
    const auto [seed, pe, months] = GetParam();
    nand::NandChipConfig config;
    config.geometry.blocksPerChip = 6;
    config.seed = seed;
    nand::NandChip chip(config);
    chip.setAging({pe, months});

    std::vector<std::uint64_t> tokens(chip.geometry().pagesPerWl, 1);
    for (std::uint32_t block = 0; block < 6; block += 2) {
        chip.eraseBlock(block);
        for (std::uint32_t layer = 0;
             layer < chip.geometry().layersPerBlock; layer += 11) {
            // Compare the calibrated BER measurement of the WLs on
            // one h-layer (the paper's N_ret procedure).
            double lo = 1e30, hi = 0.0;
            for (std::uint32_t w = 0; w < chip.geometry().wlsPerLayer;
                 ++w) {
                chip.programWl({block, layer, w},
                               nand::ProgramCommand{}, tokens);
                const double ber =
                    chip.measureBerNorm({block, layer, w, 0});
                lo = std::min(lo, ber);
                hi = std::max(hi, ber);
            }
            // DeltaH ~= 1: within the paper's 3% RTN bound plus
            // measurement-noise allowance.
            EXPECT_LT(hi / lo, 1.08)
                << "seed " << seed << " pe " << pe << " block "
                << block << " layer " << layer;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAging, SimilarityProperty,
    ::testing::Combine(::testing::Values(1ull, 17ull, 5003ull),
                       ::testing::Values(0u, 2000u),
                       ::testing::Values(0.0, 12.0)));

/** The leader-derived follower command must be safe and faster across
 *  every layer of a block. */
class LeaderFollowerProperty
    : public ::testing::TestWithParam<PeCycles>
{
};

TEST_P(LeaderFollowerProperty, FollowersFasterNeverUncorrectable)
{
    nand::NandChipConfig config;
    config.geometry.blocksPerChip = 2;
    config.seed = 31;
    nand::NandChip chip(config);
    chip.setAging({GetParam(), 0.0});
    ftl::Opm opm(ftl::OpmConfig{}, chip.errors(), chip.ecc(),
                 chip.ispp().config().deltaVMv);

    std::vector<std::uint64_t> tokens(chip.geometry().pagesPerWl, 1);
    chip.eraseBlock(0);
    for (std::uint32_t layer = 0;
         layer < chip.geometry().layersPerBlock; layer += 3) {
        const auto leader = chip.programWl(
            {0, layer, 0}, nand::ProgramCommand{}, tokens);
        const auto params =
            opm.derive(leader, chip.blockAging(0));
        const auto follower = chip.programWl(
            {0, layer, 1}, params.followerCommand(), tokens);
        EXPECT_LE(follower.tProg, leader.tProg);
        // After full retention at this wear, the follower page must
        // still decode (possibly with retries, never uncorrectable).
        const auto out = chip.readPage({0, layer, 1, 0}, 0);
        EXPECT_FALSE(out.uncorrectable)
            << "pe " << GetParam() << " layer " << layer;
    }
}

INSTANTIATE_TEST_SUITE_P(WearSweep, LeaderFollowerProperty,
                         ::testing::Values(0u, 1000u, 2000u));

/** The FTLs under test; cubeFTL- is Cube with the WAM off. The values
 *  keep the parameter names the suite prints stable. */
enum class FtlVariant { Page, Vert, Cube, CubeMinus };

/** End-to-end data integrity for random operation sequences across
 *  FTLs and geometries. */
class FtlFuzzProperty
    : public ::testing::TestWithParam<
          std::tuple<FtlVariant, std::uint32_t, std::uint64_t>>
{
};

TEST_P(FtlFuzzProperty, RandomOpsPreserveLatestData)
{
    const auto [variant, wlsPerLayer, seed] = GetParam();
    ssd::SsdConfig config;
    config.channels = 1;
    config.chipsPerChannel = 2;
    config.chip.geometry.blocksPerChip = 12;
    config.chip.geometry.layersPerBlock = 6;
    config.chip.geometry.wlsPerLayer = wlsPerLayer;
    config.writeBufferPages = 16;
    config.logicalFraction = 0.45;
    config.gcLowWatermark = 2;
    config.gcHighWatermark = 3;
    config.gcUrgentWatermark = 1;
    config.ftl = variant == FtlVariant::Page   ? ssd::FtlKind::Page
                 : variant == FtlVariant::Vert ? ssd::FtlKind::Vert
                                               : ssd::FtlKind::Cube;
    config.cubeFeatures.wam = variant != FtlVariant::CubeMinus;
    config.seed = seed;
    ssd::Ssd dev(config);

    const Lba span = std::min<Lba>(dev.logicalPages(), 400);
    Rng rng(seed * 7 + 1);
    std::vector<bool> written(span, false);
    for (int i = 0; i < 3000; ++i) {
        ssd::HostRequest req;
        req.lba = rng.uniformInt(span);
        req.pages = 1 + static_cast<std::uint32_t>(rng.uniformInt(3));
        req.pages = static_cast<std::uint32_t>(
            std::min<Lba>(req.pages, span - req.lba));
        req.type = rng.bernoulli(0.6) ? ssd::IoType::Write
                                      : ssd::IoType::Read;
        if (req.type == ssd::IoType::Write) {
            for (Lba l = req.lba; l < req.lba + req.pages; ++l)
                written[l] = true;
        }
        dev.submitSync(req);
        if (i % 500 == 0)
            dev.ftl().checkConsistency();
    }
    dev.drain();
    dev.ftl().checkConsistency();
    for (Lba l = 0; l < span; ++l)
        EXPECT_EQ(dev.peek(l).has_value(), written[l]) << "LBA " << l;
}

INSTANTIATE_TEST_SUITE_P(
    FtlGeometrySeeds, FtlFuzzProperty,
    ::testing::Combine(
        ::testing::Values(FtlVariant::Page, FtlVariant::Cube,
                          FtlVariant::CubeMinus, FtlVariant::Vert),
        ::testing::Values(2u, 4u),
        ::testing::Values(11ull, 23ull)));

/** Program-order reliability equivalence (Fig. 13) as a property:
 *  whole-block BER must agree across orders within a few percent. */
class OrderBerProperty
    : public ::testing::TestWithParam<ftl::ProgramOrderKind>
{
};

TEST_P(OrderBerProperty, OrderDoesNotChangeBlockBer)
{
    nand::NandChipConfig config;
    config.geometry.blocksPerChip = 4;
    config.seed = 3;
    nand::NandChip chip(config);
    std::vector<std::uint64_t> tokens(chip.geometry().pagesPerWl, 1);

    auto blockBer = [&](std::uint32_t block,
                        ftl::ProgramOrderKind kind) {
        chip.eraseBlock(block);
        double sum = 0.0;
        int n = 0;
        for (const auto &wl :
             ftl::programSequence(kind, chip.geometry(), block)) {
            chip.programWl(wl, nand::ProgramCommand{}, tokens);
        }
        for (std::uint32_t l = 0; l < chip.geometry().layersPerBlock;
             l += 5) {
            for (std::uint32_t w = 0; w < chip.geometry().wlsPerLayer;
                 ++w) {
                sum += chip.readPage({block, l, w, 0}, 0).rawBerNorm;
                ++n;
            }
        }
        return sum / n;
    };

    const double reference =
        blockBer(0, ftl::ProgramOrderKind::HorizontalFirst);
    const double measured = blockBer(1, GetParam());
    // Paper Fig. 13: max difference below 3% (plus RTN noise).
    EXPECT_NEAR(measured / reference, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, OrderBerProperty,
    ::testing::Values(ftl::ProgramOrderKind::HorizontalFirst,
                      ftl::ProgramOrderKind::VerticalFirst,
                      ftl::ProgramOrderKind::Mixed));

}  // namespace
}  // namespace cubessd
