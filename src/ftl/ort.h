/**
 * @file
 * Optimal read-reference-voltage table (ORT, paper Sec. 5.1).
 *
 * One compact entry per physical h-layer in the SSD holds the most
 * recent read-reference shift that decoded cleanly on that h-layer.
 * Thanks to horizontal similarity, a read to *any* WL of the h-layer
 * can start from this shift instead of the chip default, eliminating
 * most retries (Sec. 4.2 / Fig. 14).
 *
 * Storage is 2 bytes per h-layer — the paper's space-overhead claim
 * (~0.001% of capacity; 10 MB for a 1 TB SSD) — exposed via bytes().
 * A shift of 0 mV is a legitimate cached value (the retry walk can
 * calibrate back to the chip default), so entry presence is tracked
 * by an explicit validity bit rather than by a zero sentinel; in a
 * real controller the bit lives in-band, so bytes() stays at 2 per
 * h-layer.
 *
 * Stats-counter convention (shared with Channel, ChipUnit, and
 * NandChip): hit/update counters are plain members mutated only from
 * non-const member functions — lookup() counts a hit or a miss and is
 * therefore non-const; observers read the counters through const
 * accessors. No `mutable` state.
 */

#ifndef CUBESSD_FTL_ORT_H
#define CUBESSD_FTL_ORT_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/state_hash.h"
#include "src/common/types.h"

namespace cubessd::ftl {

class Ort
{
  public:
    Ort(std::uint32_t chips, std::uint32_t blocksPerChip,
        std::uint32_t layersPerBlock);

    /**
     * Most recent good shift for the h-layer, or std::nullopt when
     * the h-layer has no cached entry (chip default applies). A
     * cached 0 mV shift is a valid entry and counts as a hit.
     */
    std::optional<MilliVolt> lookup(std::uint32_t chip,
                                    std::uint32_t block,
                                    std::uint32_t layer);

    /** Entry presence without touching hit/miss accounting (for
     *  secondary consumers such as the ECC-mode hint, so one host
     *  read counts exactly one hit or miss). */
    bool
    contains(std::uint32_t chip, std::uint32_t block,
             std::uint32_t layer) const
    {
        return valid_[index(chip, block, layer)];
    }

    /** Record the shift that finally decoded on this h-layer. */
    void update(std::uint32_t chip, std::uint32_t block,
                std::uint32_t layer, MilliVolt shiftMv);

    /** Forget one block's entries (after erase). */
    void resetBlock(std::uint32_t chip, std::uint32_t block);

    /** Memory footprint of the table (the paper's overhead story). */
    std::size_t bytes() const { return table_.size() * sizeof(table_[0]); }

    std::uint64_t hits() const { return hits_; }

    /** Fold the table, its validity bits and every counter in. */
    void
    hashState(StateHash &h) const
    {
        h.add(table_).add(valid_).add(hits_).add(misses_).add(updates_);
        h.add(layerHits_).add(layerMisses_);
    }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t updates() const { return updates_; }

    /** @name Per-h-layer hit/miss accounting (report table) @{ */
    std::uint32_t layersPerBlock() const { return layersPerBlock_; }
    std::uint64_t layerHits(std::uint32_t layer) const
    {
        return layerHits_.at(layer);
    }
    std::uint64_t layerMisses(std::uint32_t layer) const
    {
        return layerMisses_.at(layer);
    }
    /** @} */

  private:
    std::size_t index(std::uint32_t chip, std::uint32_t block,
                      std::uint32_t layer) const;

    std::uint32_t blocksPerChip_;
    std::uint32_t layersPerBlock_;
    std::vector<std::int16_t> table_;
    std::vector<bool> valid_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t updates_ = 0;
    std::vector<std::uint64_t> layerHits_;
    std::vector<std::uint64_t> layerMisses_;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_ORT_H
