/**
 * @file
 * Bit-identity and invalidation tests for the model-term memoization
 * layer (ErrorTermCache).
 *
 * The cache's contract is exact: a cached term must be the *same
 * double*, bit for bit, as the direct model evaluation — the fig17/
 * fig18 reproduction outputs are byte-compared in CI, so even one ULP
 * of drift is a failure. EXPECT_EQ on doubles checks exact equality
 * (not near-equality), which is precisely the contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/nand/chip.h"
#include "src/nand/term_cache.h"

namespace cubessd::nand {
namespace {

class TermCacheTest : public ::testing::Test
{
  protected:
    TermCacheTest()
        : process_(geom_, ProcessParams{}, kSeed),
          errors_(ErrorParams{}),
          vth_(VthParams{}, kSeed),
          ispp_(IsppConfig{}, errors_),
          cache_(geom_, process_, errors_, vth_)
    {
    }

    /** A cache lookup against the fixture's own chip models. */
    WlTerms
    lookup(const WlAddr &addr, PeCycles eraseCount, const AgingState &aging)
    {
        return cache_.terms(addr, eraseCount, aging, process_, ispp_);
    }

    static constexpr std::uint64_t kSeed = 17;
    NandGeometry geom_{8, 8, 4, 3, 16 * 1024};
    ProcessModel process_;
    ErrorModel errors_;
    VthModel vth_;
    IsppEngine ispp_;
    ErrorTermCache cache_;
};

TEST_F(TermCacheTest, TermsAreBitIdenticalToDirectEvaluation)
{
    // Sweep WL positions (varying q) x erase counts x retention: every
    // cached term must equal its direct evaluation exactly. Each point
    // is looked up twice so both the miss-fill and the hit path are
    // checked against the same reference.
    const double chipFactor = process_.chipFactor();
    for (const PeCycles pe : {0u, 300u, 2000u}) {
        for (const double ret : {0.0, 1.0, 12.0}) {
            cache_.bumpRetentionGen();  // new (pe, ret) epoch
            for (std::uint32_t block : {0u, 3u, 7u}) {
                for (std::uint32_t layer : {0u, 2u, 7u}) {
                    const WlAddr addr{block, layer, 1};
                    const AgingState aging{pe, ret};
                    const double q = process_.wlQuality(addr);
                    for (int pass = 0; pass < 2; ++pass) {
                        const WlTerms t = lookup(addr, pe, aging);
                        EXPECT_EQ(t.q, q);
                        EXPECT_EQ(t.severity, errors_.severity(aging));
                        EXPECT_EQ(t.sigma, ispp_.effectiveSigma(
                                               errors_.severity(aging)));
                        EXPECT_EQ(t.shiftBase,
                                  vth_.optimalShiftMv(block, q, aging,
                                                      errors_));
                        EXPECT_EQ(t.normBase,
                                  errors_.normalizedBer(q, aging,
                                                        chipFactor));
                    }
                }
            }
        }
    }
}

TEST_F(TermCacheTest, EraseAdvancesEpochAndRecomputes)
{
    // An erase bumps the block's erase count; the next lookup must
    // recompute against the new aging state, not serve the stale
    // entry — and the recomputed values must equal direct evaluation.
    const WlAddr addr{2, 4, 0};
    const double q = process_.wlQuality(addr);
    const AgingState aging0{0, 0.0};
    const WlTerms before = lookup(addr, 0, aging0);

    const AgingState aging1{1, 0.0};  // one more P/E cycle
    const WlTerms after = lookup(addr, 1, aging1);
    EXPECT_NE(cache_.epochOf(0), cache_.epochOf(1));
    EXPECT_EQ(after.normBase,
              errors_.normalizedBer(q, aging1, process_.chipFactor()));
    EXPECT_GT(after.normBase, before.normBase);  // wear raises BER
}

TEST_F(TermCacheTest, RetentionGenerationInvalidatesAllBlocks)
{
    const WlAddr addr{5, 1, 2};
    const double q = process_.wlQuality(addr);
    const AgingState fresh{100, 0.0};
    lookup(addr, 100, fresh);

    // Retention advance at unchanged erase count: same low 32 epoch
    // bits, new generation — the stale entry must not survive.
    cache_.bumpRetentionGen();
    const AgingState baked{100, 6.0};
    const WlTerms t = lookup(addr, 100, baked);
    EXPECT_EQ(t.severity, errors_.severity(baked));
    EXPECT_EQ(t.shiftBase,
              vth_.optimalShiftMv(addr.block, q, baked, errors_));
    EXPECT_EQ(t.normBase,
              errors_.normalizedBer(q, baked, process_.chipFactor()));
    EXPECT_GT(t.shiftBase, 0.0);  // retention drift demands a shift
}

TEST_F(TermCacheTest, CountersTrackHitsAndMisses)
{
    const AgingState aging{0, 0.0};
    const WlAddr a{0, 0, 0};
    const WlAddr b{0, 0, 1};  // same block: shares the aging entry

    lookup(a, 0, aging);  // aging miss
    lookup(a, 0, aging);  // hit
    lookup(b, 0, aging);  // hit: the WL terms are not cached

    const TermCacheCounters &c = cache_.counters();
    EXPECT_EQ(c.agingMisses, 1u);
    EXPECT_EQ(c.agingHits, 2u);
    EXPECT_EQ(c.wlMisses, 0u);  // there is no per-WL level
    EXPECT_EQ(c.wlHits, 0u);
    EXPECT_DOUBLE_EQ(cache_.hitRate(), 2.0 / 3.0);

    // A retention bump forces a refill of the block's entry.
    cache_.bumpRetentionGen();
    lookup(b, 0, aging);
    EXPECT_EQ(cache_.counters().agingMisses, 2u);
    EXPECT_EQ(cache_.counters().wlMisses, 0u);
}

TEST(TermCacheChipTest, ChipReadsAndProgramsMatchDirectModels)
{
    // End-to-end equivalence at chip level: a chip whose hot paths run
    // through the cache must produce the same outcomes as the direct
    // model entry points fed the same RNG stream. The direct entry
    // points (ReadModel::read, IsppEngine::program) delegate to the
    // same *FromTerms implementations, so any divergence here means
    // the cache returned a different double than direct evaluation.
    NandChipConfig config;
    config.geometry.blocksPerChip = 4;
    config.geometry.layersPerBlock = 6;
    config.seed = 29;
    NandChip chip(config);

    const std::uint64_t tokens[3] = {7, 8, 9};
    chip.setAging({500, 2.0});
    Rng shadow(config.seed ^ 0xC0FFEE123456789ull);  // chip's rng seed

    for (std::uint32_t l = 0; l < 3; ++l) {
        const WlAddr wl{1, l, 0};
        const WlProgramResult got =
            chip.programWl(wl, ProgramCommand{}, tokens);

        // Replay the same program with the direct (uncached) engine
        // on a shadow RNG that mirrors the chip's draw sequence.
        const AgingState aging = chip.blockAging(1);
        const WlProgramResult want = chip.ispp().program(
            chip.wlQuality(wl), chip.process().programSpeedMv(wl),
            aging, chip.process().chipFactor(), ProgramCommand{},
            shadow);
        EXPECT_EQ(got.tProg, want.tProg);
        EXPECT_EQ(got.loopsUsed, want.loopsUsed);
        EXPECT_EQ(got.verifiesDone, want.verifiesDone);
        EXPECT_EQ(got.berEp1Norm, want.berEp1Norm);
        EXPECT_EQ(got.berMultiplier, want.berMultiplier);
    }
}

}  // namespace
}  // namespace cubessd::nand
