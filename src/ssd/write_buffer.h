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
 * Storage is a fixed array of slots (the buffer has a hard capacity
 * by definition) threaded into an intrusive FIFO list, with a flat
 * open-addressing LBA index — insert/lookup/pop never allocate.
 */

#ifndef CUBESSD_SSD_WRITE_BUFFER_H
#define CUBESSD_SSD_WRITE_BUFFER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/state_hash.h"
#include "src/common/types.h"

namespace cubessd::ssd {

/** One buffered logical page. */
struct BufferEntry
{
    Lba lba = 0;
    std::uint64_t token = 0;   ///< data token
    std::uint64_t version = 0; ///< global write version of this page
};

class WriteBuffer
{
  public:
    explicit WriteBuffer(std::uint32_t capacityPages);

    std::uint32_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }
    /** High-water mark of buffered pages over the buffer's lifetime. */
    std::size_t peakSize() const { return peak_; }

    /** Buffer occupancy fraction mu in [0, 1]. */
    double
    utilization() const
    {
        return static_cast<double>(size_) /
               static_cast<double>(capacity_);
    }

    /**
     * Insert or coalesce a page (coalescing keeps the page's FIFO
     * position).
     * @return false if the buffer is full and the page is not already
     *         buffered (caller must stall and retry after a flush).
     */
    bool insert(Lba lba, std::uint64_t token, std::uint64_t version);

    /** @return the buffered token for `lba`, if present (read hit). */
    std::optional<std::uint64_t> lookup(Lba lba) const;

    /** Append up to `n` oldest entries to `out` and drop them from
     *  the buffer (for flushing to NAND). */
    void popOldest(std::uint32_t n, std::vector<BufferEntry> &out);

    /** Fold the occupancy, high-water mark and the buffered pages in
     *  FIFO order in. */
    void hashState(StateHash &h) const;

  private:
    static constexpr std::uint32_t kNil = ~static_cast<std::uint32_t>(0);

    /** A buffered page plus its FIFO links (slot indices). */
    struct Slot
    {
        BufferEntry entry{};
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    std::uint32_t capacity_;
    std::size_t size_ = 0;
    std::size_t peak_ = 0;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;  ///< stack of unused slots
    std::uint32_t head_ = kNil;             ///< oldest buffered page
    std::uint32_t tail_ = kNil;             ///< newest buffered page
    FlatMap64<std::uint32_t> index_;        ///< lba -> slot
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_WRITE_BUFFER_H
