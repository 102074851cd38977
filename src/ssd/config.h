/**
 * @file
 * Top-level SSD configuration.
 *
 * Defaults mirror the paper's evaluation platform (Sec. 6.1): 2 buses
 * x 4 3D TLC chips, 428 blocks per chip, 48 h-layers x 4 WLs per
 * block, 16 KB pages (~32 GB raw).
 */

#ifndef CUBESSD_SSD_CONFIG_H
#define CUBESSD_SSD_CONFIG_H

#include <cstdint>
#include <string>

#include "src/nand/chip.h"

namespace cubessd::ssd {

/** Which FTL drives the device. */
enum class FtlKind
{
    Page,      ///< baseline page-mapping FTL, PS-unaware
    Vert,      ///< [13]-style static per-layer V_Final adjustment
    Cube,      ///< cubeFTL: OPM + WAM + ORT + MOS (see CubeFeatures)
};

const char *ftlKindName(FtlKind kind);

/**
 * Per-technique switches for cubeFTL, for ablation studies: each of
 * the paper's four mechanisms can be disabled independently. The
 * paper's cubeFTL- (horizontal-first) is Cube with wam = false.
 */
struct CubeFeatures
{
    bool vfySkip = true;       ///< Sec. 4.1.1: skip redundant VFYs
    bool windowAdjust = true;  ///< Sec. 4.1.2: V_Start/V_Final shrink
    bool ort = true;           ///< Sec. 4.2: read-reference reuse
    bool wam = true;           ///< Sec. 5.2: adaptive WL allocation
    /** Sec. 8 extension: leader-informed ECC decode-mode selection
     *  (start noisy h-layers directly in the soft LDPC decode). */
    bool eccHint = true;

    bool operator==(const CubeFeatures &) const = default;
};

struct SsdConfig
{
    std::uint32_t channels = 2;
    std::uint32_t chipsPerChannel = 4;
    nand::NandChipConfig chip{};

    /** Host-visible fraction of raw capacity (rest is over-provision). */
    double logicalFraction = 0.90;

    /** DRAM write buffer capacity in pages. */
    std::uint32_t writeBufferPages = 256;
    /** WAM threshold mu_TH on buffer utilization (Sec. 5.2). */
    double bufferHighWatermark = 0.9;
    /** Serving a read from the write buffer (DRAM hit). */
    SimTime bufferReadTime = 5000;  // 5 us

    /** Start GC on a chip when its free-block count drops below this. */
    std::uint32_t gcLowWatermark = 4;
    /** Stop GC when the free-block count reaches this. */
    std::uint32_t gcHighWatermark = 6;
    /** Throttle host flushes to a chip whose free-block count is at or
     *  below this, reserving the remaining blocks for GC progress. */
    std::uint32_t gcUrgentWatermark = 2;

    /**
     * Host submission-queue depth (NVMe-style). Requests beyond this
     * many in flight wait in the host queue before entering the FTL.
     * 0 = unbounded: every submission is dispatched at its arrival
     * time, the behaviour of the original fire-and-forget path.
     */
    std::uint32_t hostQueueDepth = 0;

    FtlKind ftl = FtlKind::Page;
    /** Technique switches when ftl is Cube (ablations). */
    CubeFeatures cubeFeatures{};
    std::uint64_t seed = 42;

    std::uint32_t totalChips() const { return channels * chipsPerChannel; }

    /**
     * Check the configuration for contradictions that would otherwise
     * surface as fatal errors deep inside construction: zero geometry,
     * 2^32 - 1 or more physical pages (beyond the FTL's 32-bit page
     * numbers), a logicalFraction outside (0, 1], misordered GC
     * watermarks, a write buffer smaller than one WL, out-of-range
     * fault probabilities, or fewer than minSpareBlocks() spare blocks
     * per chip.
     *
     * @return an empty string if the configuration is usable, else a
     *         descriptive error message naming the offending field.
     */
    std::string validate() const;

    /** Number of host-visible logical pages. */
    std::uint64_t
    logicalPages() const
    {
        const auto raw = static_cast<double>(chip.geometry.pagesPerChip()) *
                         totalChips();
        return static_cast<std::uint64_t>(raw * logicalFraction);
    }

    /** Blocks per chip beyond those the logical space fills. */
    std::uint64_t
    spareBlocksPerChip() const
    {
        const std::uint64_t perBlock = chip.geometry.pagesPerBlock();
        const std::uint64_t dataBlocks =
            (logicalPages() / totalChips() + perBlock - 1) / perBlock;
        return chip.geometry.blocksPerChip > dataBlocks
            ? chip.geometry.blocksPerChip - dataBlocks
            : 0;
    }

    /**
     * Fewest spare blocks per chip a full device can run on: the GC
     * high watermark plus the most write points any FTL keeps open
     * per chip (cubeFTL's two host blocks and one GC block). Below it
     * validate() refuses the config, and a running device whose
     * retirements shrink a chip's spares under it turns read-only.
     */
    std::uint64_t minSpareBlocks() const { return gcHighWatermark + 3; }

    bool operator==(const SsdConfig &) const = default;
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_CONFIG_H
