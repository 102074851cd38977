/**
 * @file
 * Free-list object pool.
 *
 * ObjectPool hands out stable pointers to default-constructed objects
 * from chunked backing arrays. Released objects are recycled verbatim
 * — they are NOT reset, so members like std::vector keep their
 * capacity across uses, which is exactly what the simulator's
 * steady-state hot path wants: after warm-up, acquire/release never
 * touch the heap.
 *
 * The free list is a pointer stack whose capacity is re-reserved on
 * every chunk growth, so release() itself never allocates.
 *
 * A copy is an empty pool: the objects are scratch space of their
 * owner, and a pool is only copied when none is in use (a drained
 * device; anything else panics).
 */

#ifndef CUBESSD_COMMON_POOL_H
#define CUBESSD_COMMON_POOL_H

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/logging.h"

namespace cubessd {

template <typename T, std::size_t ChunkSize = 64>
class ObjectPool
{
  public:
    ObjectPool() = default;

    ObjectPool(const ObjectPool &other)
    {
        if (other.inUse() != 0)
            panic("ObjectPool: cannot copy a pool with %zu objects in use",
                  other.inUse());
    }

    ObjectPool &operator=(const ObjectPool &) = delete;

    /** Take an object (recycled or fresh); fields hold whatever the
     *  previous user left — callers must set what they read. */
    T *
    acquire()
    {
        if (free_.empty())
            addChunk();
        T *obj = free_.back();
        free_.pop_back();
        return obj;
    }

    /** Return an object; its storage stays valid until the pool dies. */
    void
    release(T *obj)
    {
        free_.push_back(obj);
    }

    /** Objects ever allocated (pool high-water mark). */
    std::size_t capacity() const { return capacity_; }

    /** Objects currently in the free list. */
    std::size_t available() const { return free_.size(); }

    /** Objects currently handed out. */
    std::size_t inUse() const { return capacity_ - free_.size(); }

  private:
    void
    addChunk()
    {
        auto chunk = std::make_unique<T[]>(ChunkSize);
        capacity_ += ChunkSize;
        free_.reserve(capacity_);
        // Push in reverse so the chunk is handed out front to back.
        for (std::size_t i = ChunkSize; i-- > 0;)
            free_.push_back(&chunk[i]);
        chunks_.push_back(std::move(chunk));
    }

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<T *> free_;
    std::size_t capacity_ = 0;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_POOL_H
