/**
 * @file
 * Page-level logical-to-physical mapping table: one 32-bit PPA per
 * LBA, kInvalid32 when the LBA was never written.
 *
 * The table keeps no write version. A host flush that lands late is
 * judged by its LBA's record in the write buffer (WriteBuffer::land);
 * a relocation lands only while the LBA still maps to the page it
 * copied (relocate()).
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

    std::uint64_t logicalPages() const { return ppas_.size(); }

    /**
     * @return the mapped PPA, or std::nullopt if the LBA was never
     *         written (the "maybe absent" idiom of cubessd.h — no
     *         sentinel values cross the API).
     */
    std::optional<Ppa> lookup(Lba lba) const;

    /**
     * Point `lba` at `ppa`. Panics if `ppa` is kInvalid32 or more,
     * which no validated device reaches.
     * @return the previously mapped PPA (std::nullopt if none), which
     *         the caller must invalidate.
     */
    std::optional<Ppa> map(Lba lba, Ppa ppa);

    /**
     * map(lba, ppa); `version` is ignored. The table stored a write
     * version per LBA until the write buffer's per-LBA records took
     * over the flush-race check; bench/perf/cubessd_bench.cc still
     * fills and times the table through this signature, and only a
     * change to the benchmark can move it to map(lba, ppa).
     */
    std::optional<Ppa>
    map(Lba lba, Ppa ppa, std::uint64_t /*version*/)
    {
        return map(lba, ppa);
    }

    /**
     * Compare-and-remap for a relocated page: point `lba` at `to` only
     * while it still maps to `from`, the page the data was copied
     * from. Panics on a `to` that does not fit 32 bits, as map() does.
     * @return whether the mapping moved (the caller then invalidates
     *         `from`); false means the LBA moved on and the copy is
     *         stale.
     */
    bool relocate(Lba lba, Ppa from, Ppa to);

    /**
     * Cache hint for the entries of the `pages` LBAs from `lba`: at
     * most kPrefetchLines lines, none past the table's end. Changes
     * nothing; an `lba` out of range is ignored.
     */
    void
    prefetch(Lba lba, std::uint64_t pages) const
    {
        if (lba >= ppas_.size() || pages == 0)
            return;
        const std::uint64_t n = std::min(pages, ppas_.size() - lba);
        const auto first = reinterpret_cast<std::uintptr_t>(&ppas_[lba]);
        const auto last =
            reinterpret_cast<std::uintptr_t>(&ppas_[lba + n - 1]) +
            sizeof(ppas_[0]) - 1;
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
        h.add(ppas_).add(mapped_);
    }

  private:
    static constexpr int kPrefetchLines = 4;
    static constexpr std::uintptr_t kLineBytes = 64;

    /** Panic, naming `op`, unless `lba` is a logical page. */
    void checkRange(Lba lba, const char *op) const;
    /** Panic, naming `op`, unless `ppa` fits an entry. */
    static void checkPpa(Ppa ppa, const char *op);

    std::vector<std::uint32_t> ppas_;  ///< per LBA; kInvalid32: unmapped
    std::uint64_t mapped_ = 0;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_MAPPING_H
