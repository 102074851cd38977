/**
 * @file
 * Cubic 3D NAND organization: blocks, horizontal layers, word lines, pages.
 *
 * Terminology follows the paper (Fig. 1): a 3D block is a stack of
 * `layersPerBlock` *horizontal layers* (h-layers) along the z axis; each
 * h-layer holds `wlsPerLayer` word lines (WLs), one per *vertical layer*
 * (v-layer). TLC maps `pagesPerWl` = 3 logical pages onto each WL.
 */

#ifndef CUBESSD_NAND_GEOMETRY_H
#define CUBESSD_NAND_GEOMETRY_H

#include <compare>
#include <cstdint>

#include "src/common/types.h"

namespace cubessd::nand {

/**
 * Dimensions of one NAND chip, defaulting to the paper's evaluation
 * configuration (Sec. 6.1): 428 blocks x 48 h-layers x 4 WLs x 3 pages,
 * 16 KB pages.
 */
struct NandGeometry
{
    std::uint32_t blocksPerChip = 428;
    std::uint32_t layersPerBlock = 48;
    std::uint32_t wlsPerLayer = 4;
    std::uint32_t pagesPerWl = 3;
    std::uint32_t pageSizeBytes = 16 * 1024;

    std::uint32_t wlsPerBlock() const { return layersPerBlock * wlsPerLayer; }
    std::uint32_t pagesPerLayer() const { return wlsPerLayer * pagesPerWl; }
    std::uint32_t pagesPerBlock() const
    {
        return wlsPerBlock() * pagesPerWl;
    }
    std::uint64_t pagesPerChip() const
    {
        return static_cast<std::uint64_t>(blocksPerChip) * pagesPerBlock();
    }

    /** Validate dimension sanity; returns false on any zero dimension. */
    bool valid() const
    {
        return blocksPerChip && layersPerBlock && wlsPerLayer &&
               pagesPerWl && pageSizeBytes;
    }

    bool operator==(const NandGeometry &) const = default;
};

/** Address of one word line within a chip. */
struct WlAddr
{
    std::uint32_t block = 0;
    std::uint32_t layer = 0;  ///< h-layer index, 0 = bottom, L-1 = top
    std::uint32_t wl = 0;     ///< v-layer index within the h-layer

    auto operator<=>(const WlAddr &) const = default;
};

/** Address of one page within a chip. */
struct PageAddr
{
    std::uint32_t block = 0;
    std::uint32_t layer = 0;
    std::uint32_t wl = 0;
    std::uint32_t page = 0;   ///< logical page within the WL (0..pagesPerWl)

    WlAddr wlAddr() const { return WlAddr{block, layer, wl}; }

    auto operator<=>(const PageAddr &) const = default;
};

/**
 * Bidirectional linearization between structured addresses and flat
 * page indices, used by the FTL mapping tables.
 *
 * Flat order: block-major, then h-layer, then WL, then page — the flat
 * index of a page is stable under any *program order*, which only affects
 * allocation sequence, not addressing.
 */
class AddressCodec
{
  public:
    explicit AddressCodec(const NandGeometry &geom);

    const NandGeometry &geometry() const { return geom_; }

    /** @return flat page index of `addr` within a chip. */
    std::uint64_t encode(const PageAddr &addr) const;

    /** @return structured address of flat page index `index`. */
    PageAddr decode(std::uint64_t index) const;

    /** @return flat WL index of `addr` within a chip. */
    std::uint64_t encodeWl(const WlAddr &addr) const;

    /** @return structured WL address of flat WL index `index`. */
    WlAddr decodeWl(std::uint64_t index) const;

    /** @return true if the address lies within the geometry. */
    bool contains(const PageAddr &addr) const;
    bool contains(const WlAddr &addr) const;

  private:
    NandGeometry geom_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_GEOMETRY_H
