/**
 * @file
 * Page-level logical-to-physical mapping table.
 *
 * Alongside each mapping the table stores the *write version* of the
 * data it points to, so that late-completing programs (flush or GC
 * relocation racing with fresh host writes to the same page) can
 * detect that they are stale and must not clobber a newer mapping.
 */

#ifndef CUBESSD_FTL_MAPPING_H
#define CUBESSD_FTL_MAPPING_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/state_hash.h"
#include "src/common/types.h"

namespace cubessd::ftl {

class MappingTable
{
  public:
    explicit MappingTable(std::uint64_t logicalPages);

    std::uint64_t logicalPages() const { return entries_.size(); }

    /**
     * @return the mapped PPA, or std::nullopt if the LBA was never
     *         written (the "maybe absent" idiom of cubessd.h — no
     *         sentinel values cross the API).
     */
    std::optional<Ppa> lookup(Lba lba) const;

    /** Version of the data currently mapped (0 if never written). */
    std::uint64_t mappedVersion(Lba lba) const;

    /**
     * Point `lba` at `ppa` with `version`. Panics if `ppa` is
     * kInvalid32 or more, which no validated device reaches.
     * @return the previously mapped PPA (std::nullopt if none), which
     *         the caller must invalidate.
     */
    std::optional<Ppa> map(Lba lba, Ppa ppa, std::uint64_t version);

    /**
     * Cache hint for the entries of the `pages` LBAs from `lba`: at
     * most kPrefetchLines lines, none past the table's end. Changes
     * nothing; an `lba` out of range is ignored.
     */
    void
    prefetch(Lba lba, std::uint64_t pages) const
    {
        if (lba >= entries_.size() || pages == 0)
            return;
        const std::uint64_t n = std::min(pages, entries_.size() - lba);
        const auto first = reinterpret_cast<std::uintptr_t>(&entries_[lba]);
        const auto last =
            reinterpret_cast<std::uintptr_t>(&entries_[lba + n - 1]) +
            sizeof(Entry) - 1;
        std::uintptr_t p = first;
        for (int i = 0; i < kPrefetchLines && p <= last; ++i) {
            __builtin_prefetch(reinterpret_cast<const void *>(p));
            p = (p | (kLineBytes - 1)) + 1;  // start of the next line
        }
    }

    /** Number of currently mapped logical pages. */
    std::uint64_t mappedCount() const { return mapped_; }

    /** Fold every entry and the mapped count in. */
    void
    hashState(StateHash &h) const
    {
        h.add(entries_).add(mapped_);
    }

  private:
    static constexpr int kPrefetchLines = 4;
    static constexpr std::uintptr_t kLineBytes = 64;

    /** One LBA's PPA and the version of the data there. The 64-bit
     *  version is split in halves so the entry packs into 12 bytes
     *  without a packing attribute. */
    struct Entry
    {
        std::uint32_t ppa = kInvalid32;
        std::uint32_t versionLo = 0;
        std::uint32_t versionHi = 0;
    };
    static_assert(sizeof(Entry) == 12);

    /** Panic, naming `op`, unless `lba` is a logical page. */
    void checkRange(Lba lba, const char *op) const;

    std::vector<Entry> entries_;
    std::uint64_t mapped_ = 0;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_MAPPING_H
