/**
 * @file
 * Behavioural model of one 3D TLC NAND chip.
 *
 * NandChip owns the per-chip process instance and all per-block state
 * (erase counts, programmed pages, program-time BER penalties) and
 * exposes the three NAND operations at command level:
 *
 *  - eraseBlock()  : erase, wear accounting
 *  - programWl()   : one-shot TLC program of a word line (3 pages)
 *                    through the ISPP engine, honoring PS-aware knobs
 *  - readPage()    : sense + read-retry loop + ECC verdict
 *
 * plus an ONFI-like feature interface cost model (a non-default
 * ProgramCommand or read shift implies one Set-Feature, < 1 us).
 *
 * The chip stores a 64-bit *data token* per page instead of real data:
 * enough to verify end-to-end data integrity in tests while keeping a
 * 32 GB simulated SSD in a few MB of host memory. The chip treats
 * tokens as opaque; the FTL's carry the page's LBA, as a real page's
 * spare area does (ftl::dataToken).
 */

#ifndef CUBESSD_NAND_CHIP_H
#define CUBESSD_NAND_CHIP_H

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/ecc/ecc.h"
#include "src/nand/error_model.h"
#include "src/nand/fault_injector.h"
#include "src/nand/geometry.h"
#include "src/nand/ispp.h"
#include "src/nand/process_model.h"
#include "src/nand/read_model.h"
#include "src/nand/term_cache.h"
#include "src/nand/timing.h"
#include "src/nand/vth_model.h"

namespace cubessd::nand {

/** Full configuration of one chip (all sub-model parameters). */
struct NandChipConfig
{
    NandGeometry geometry{};
    ProcessParams process{};
    ErrorParams errors{};
    VthParams vth{};
    IsppConfig ispp{};
    ReadParams read{};
    NandTiming timing{};
    ecc::EccConfig ecc{};
    FaultParams faults{};
    /** Chip identity: chips with different seeds are different dies. */
    std::uint64_t seed = 1;

    bool operator==(const NandChipConfig &) const = default;
};

/** Cumulative operation counters of a chip. */
struct NandChipStats
{
    std::uint64_t erases = 0;
    std::uint64_t wlPrograms = 0;
    std::uint64_t pageReads = 0;
    std::uint64_t readRetries = 0;
    std::uint64_t uncorrectableReads = 0;
    std::uint64_t programFailures = 0;  ///< injected program-status fails
    std::uint64_t eraseFailures = 0;    ///< injected erase-status fails
    std::uint64_t verifiesDone = 0;
    std::uint64_t verifiesSkipped = 0;
    std::uint64_t featureSets = 0;
    SimTime totalProgramTime = 0;
    SimTime totalReadTime = 0;
    SimTime totalEraseTime = 0;
};

class NandChip
{
  public:
    explicit NandChip(const NandChipConfig &config);

    /** @name Sub-model access (read-only) @{ */
    const NandGeometry &geometry() const { return config_.geometry; }
    const AddressCodec &codec() const { return codec_; }
    const ProcessModel &process() const { return process_; }
    const ErrorModel &errors() const { return errors_; }
    const VthModel &vth() const { return vth_; }
    const IsppEngine &ispp() const { return ispp_; }
    const ecc::EccModel &ecc() const { return ecc_; }
    const NandTiming &timing() const { return config_.timing; }
    /** @} */

    /**
     * Inject a wear/retention condition for the whole chip, as the
     * characterization rig does with pre-cycling and bake (Sec. 3.1).
     * Runtime erases add on top of the injected P/E count (the sum
     * saturates at the largest PeCycles).
     */
    void
    setAging(const AgingState &aging)
    {
        baseAging_ = aging;
        // Every block's effective aging changed: advance the cache's
        // retention generation so all epoch-tagged terms recompute.
        terms_.bumpRetentionGen();
    }
    const AgingState &baseAging() const { return baseAging_; }

    /** Aging epoch of a block (retention generation + erase count);
     *  changes exactly when the block's cached model terms change. */
    std::uint64_t
    blockEpoch(std::uint32_t block) const
    {
        return terms_.epochOf(blocks_.at(block).eraseCount);
    }

    /** Model-term memoization layer (counters for metrics/tests). */
    const ErrorTermCache &termCache() const { return terms_; }

    /** Effective aging of one block (injected + runtime erases). */
    AgingState blockAging(std::uint32_t block) const;

    /**
     * Erase a block. @return the erase latency.
     * @param failed if non-null, receives the erase status (true =
     *        status fail: the block kept its contents and must be
     *        retired; only possible with fault injection enabled).
     */
    SimTime eraseBlock(std::uint32_t block, bool *failed = nullptr);

    /**
     * One-shot program of all pages of a word line.
     *
     * @param addr    target WL; must be erased and not yet programmed
     * @param cmd     PS-aware knobs (default = nominal program)
     * @param tokens  one data token per page (size == pagesPerWl)
     * @return the ISPP outcome; tProg includes Set-Feature overhead
     *         when cmd is non-default.
     */
    WlProgramResult programWl(const WlAddr &addr,
                              const ProgramCommand &cmd,
                              std::span<const std::uint64_t> tokens);

    /**
     * Read one page.
     *
     * @param addr           target page; must be programmed
     * @param appliedShiftMv starting read-reference shift (0 = chip
     *                       default; ORT value for PS-aware reads).
     *                       Non-zero implies a Set-Feature.
     * @param softHint       start with the soft LDPC decode (the
     *                       controller expects a noisy page; paper
     *                       Sec. 8's leader-informed ECC).
     */
    ReadOutcome readPage(const PageAddr &addr, MilliVolt appliedShiftMv,
                         bool softHint = false);

    /** Stored data token of a programmed page. */
    std::uint64_t pageToken(const PageAddr &addr) const;

    /**
     * Cache hints, issued where an op's address is first known so the
     * loads overlap the wait before the op runs. They change no state
     * and ignore an address out of range.
     * @{
     */
    /** What readPage(addr) loads: the WL's state and the block's
     *  cached model terms. */
    void
    prefetchRead(const PageAddr &addr) const
    {
        if (!codec_.contains(addr))
            return;
        const BlockState &block = blocks_[addr.block];
        __builtin_prefetch(&block.wls[wlIndex(addr.wlAddr())]);
        terms_.prefetch(addr.block);
    }

    /** The token pageToken(addr) returns. */
    void
    prefetchToken(const PageAddr &addr) const
    {
        if (codec_.contains(addr))
            __builtin_prefetch(
                &blocks_[addr.block].tokens[pageIndexInBlock(addr)]);
    }
    /** @} */

    /**
     * Characterization measurement: the page's normalized BER at
     * *calibrated* (optimal) read references, with only RTN-scale
     * measurement noise — the equivalent of the paper's N_ret
     * measurement procedure (Sec. 3.1), used by the Figs. 5/6
     * characterization benches. Does not touch timing or stats.
     */
    double measureBerNorm(const PageAddr &addr);

    bool isPageProgrammed(const PageAddr &addr) const;
    bool isWlProgrammed(const WlAddr &addr) const;

    /** Runtime erase count of a block (excludes injected aging). */
    PeCycles eraseCount(std::uint32_t block) const;

    /** Quality factor of a WL (convenience pass-through). */
    double wlQuality(const WlAddr &addr) const
    {
        return process_.wlQuality(addr);
    }

    const NandChipStats &stats() const { return stats_; }
    void resetStats() { stats_ = NandChipStats{}; }

    /** Fold the chip's simulated state (blocks, RNG streams, term
     *  cache, injected aging, counters) in. */
    void hashState(StateHash &h) const;

    /** Program time saved by VFY skipping so far (skipped pulses times
     *  the per-verify cost; the Sec. 4.1 tPROG-reduction story). */
    SimTime vfyTimeSaved() const
    {
        return static_cast<SimTime>(stats_.verifiesSkipped) *
               config_.ispp.tVfy;
    }

  private:
    /** One WL's program state in 5 bytes: the float is kept as its
     *  bytes, so the struct needs no alignment padding. */
    struct WlState
    {
        using FloatBytes = std::array<std::uint8_t, sizeof(float)>;

        std::uint8_t programmedPages = 0;  ///< bitmask
        FloatBytes berBytes = std::bit_cast<FloatBytes>(1.0f);

        /** Program-time BER penalty. */
        float
        berMultiplier() const
        {
            return std::bit_cast<float>(berBytes);
        }

        void
        setBerMultiplier(float m)
        {
            berBytes = std::bit_cast<FloatBytes>(m);
        }
    };
    static_assert(sizeof(WlState) == 5);

    struct BlockState
    {
        PeCycles eraseCount = 0;
        std::vector<WlState> wls;
        std::vector<std::uint64_t> tokens;
    };

    std::size_t
    wlIndex(const WlAddr &addr) const
    {
        return static_cast<std::size_t>(addr.layer) *
                   config_.geometry.wlsPerLayer + addr.wl;
    }

    std::size_t
    pageIndexInBlock(const PageAddr &addr) const
    {
        return wlIndex(addr.wlAddr()) * config_.geometry.pagesPerWl +
               addr.page;
    }

    NandChipConfig config_;
    AddressCodec codec_;
    ProcessModel process_;
    ErrorModel errors_;
    VthModel vth_;
    IsppEngine ispp_;
    ecc::EccModel ecc_;
    ReadModel read_;
    FaultInjector faults_;
    ErrorTermCache terms_;
    Rng rng_;
    AgingState baseAging_{};
    std::vector<BlockState> blocks_;
    NandChipStats stats_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_CHIP_H
