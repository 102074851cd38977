/**
 * @file
 * DRAM write buffer.
 *
 * Host writes complete as soon as their pages are buffered; a
 * background flush drains the buffer to NAND in WL-sized batches. The
 * buffer's *utilization* is the signal the WAM uses to detect a high
 * write-bandwidth requirement (paper Sec. 5.2).
 *
 * Rewrites of a buffered logical page are absorbed in place (write
 * coalescing), as a real buffer does.
 *
 * The buffer owns each host write's DRAM side from insert() until its
 * flush lands: one record per LBA holds the newest data, its version
 * and the LBA's flushes in flight, so a read asks one structure whether
 * its newest data is still in DRAM. The buffered LBAs wait in a ring
 * in FIFO order, never more than the buffer's hard capacity; insert,
 * lookup, pop and land never allocate once the ring and the record map
 * have grown to their working set.
 */

#ifndef CUBESSD_FTL_WRITE_BUFFER_H
#define CUBESSD_FTL_WRITE_BUFFER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/ring_deque.h"
#include "src/common/state_hash.h"
#include "src/common/types.h"

namespace cubessd::ftl {

/** One page travelling from the write buffer or a GC scan to NAND. */
struct FlushEntry
{
    Lba lba = kInvalidLba;          ///< kInvalidLba = padding
    std::uint64_t token = 0;
    std::uint64_t version = 0;      ///< write version; host flushes only
    Ppa sourcePpa = kInvalidPpa;    ///< set for relocations
};

class WriteBuffer
{
  public:
    explicit WriteBuffer(std::uint32_t capacityPages);

    std::uint32_t capacity() const { return capacity_; }
    /** Buffered pages; popped pages in flight do not count. */
    std::size_t size() const { return ring_.size(); }
    bool empty() const { return ring_.empty(); }
    bool full() const { return ring_.size() >= capacity_; }
    /** High-water mark of buffered pages over the buffer's lifetime. */
    std::size_t peakSize() const { return peak_; }

    /** Buffer occupancy fraction mu in [0, 1]. */
    double
    utilization() const
    {
        return static_cast<double>(ring_.size()) /
               static_cast<double>(capacity_);
    }

    /**
     * Insert or coalesce a page (coalescing keeps the page's FIFO
     * position).
     * @return false if the buffer is full and the page is not already
     *         buffered, even if a flush of it is in flight (caller must
     *         stall and retry after a flush).
     */
    bool insert(Lba lba, std::uint64_t token, std::uint64_t version);

    /** @return `lba`'s newest token while it is buffered, or popped
     *  and not yet landed (the read is served from DRAM). */
    std::optional<std::uint64_t>
    lookup(Lba lba) const
    {
        const Record *r = records_.find(lba);
        if (r == nullptr || r->version <= r->landed)
            return std::nullopt;
        return r->token;
    }

    /** Append up to `n` oldest buffered pages to `out`, drop them from
     *  the buffer and mark each one in flight until land(). */
    void popOldest(std::uint32_t n, std::vector<FlushEntry> &out);

    /**
     * A flush of `lba` popped at `version` landed on NAND. The LBA is
     * coalesced and popped FIFO, so its flushes leave in version order;
     * only their landings reorder (across chips, or after a replay or a
     * parked batch). The record goes with the LBA's last landing unless
     * the LBA was buffered again. Panics if no flush of `lba` is in
     * flight.
     * @return true iff the data is current, newer than every earlier
     *         landing of `lba`; the caller maps only current data.
     */
    bool land(Lba lba, std::uint64_t version);

    /**
     * Panic unless the ring holds exactly the buffered records, no
     * record is idle or landed past its newest version, and, when
     * `flushesInFlight` is false, no record has a flush in flight.
     */
    void checkConsistency(bool flushesInFlight) const;

    /** Fold the occupancy, high-water mark, the buffered LBAs in FIFO
     *  order and every record in. */
    void hashState(StateHash &h) const;

  private:
    /** What the buffer knows of one LBA. */
    struct Record
    {
        std::uint64_t token = 0;    ///< data of the newest version
        std::uint64_t version = 0;  ///< newest version written
        std::uint64_t landed = 0;   ///< newest version landed; 0: none
        std::uint32_t flushes = 0;  ///< popped, not yet landed
        bool buffered = false;      ///< waiting in the ring
    };

    std::uint32_t capacity_;
    std::size_t peak_ = 0;
    RingDeque<Lba> ring_;          ///< buffered LBAs, oldest first
    FlatMap64<Record> records_;    ///< lba -> its record
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_WRITE_BUFFER_H
