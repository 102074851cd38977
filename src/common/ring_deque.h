/**
 * @file
 * Flat circular deque.
 *
 * A power-of-2 ring buffer with deque semantics (push/pop at both
 * ends). Unlike std::deque it never allocates per node: capacity
 * doubles on demand and is then retained, so steady-state use is
 * allocation-free. Element type must be copyable; intended for small
 * POD records (pending NAND ops, host-queue waiters, parked writes).
 * A pop resets the vacated slot only when the type may own state: a
 * trivially copyable record is left as it was, never read again until
 * a push overwrites it.
 */

#ifndef CUBESSD_COMMON_RING_DEQUE_H
#define CUBESSD_COMMON_RING_DEQUE_H

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace cubessd {

template <typename T>
class RingDeque
{
  public:
    RingDeque() : buf_(kMinCapacity) {}

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[wrap(head_ + size_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + size_ - 1)]; }

    /** Index 0 is the front. */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    void
    push_back(T value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[wrap(head_ + size_)] = std::move(value);
        ++size_;
    }

    void
    push_front(T value)
    {
        if (size_ == buf_.size())
            grow();
        head_ = wrap(head_ + buf_.size() - 1);
        buf_[head_] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        if constexpr (!kTrivial)
            buf_[head_] = T{};   // drop any owned state
        head_ = wrap(head_ + 1);
        --size_;
    }

    void
    pop_back()
    {
        if constexpr (!kTrivial)
            buf_[wrap(head_ + size_ - 1)] = T{};
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_back();
        head_ = 0;
    }

  private:
    static constexpr std::size_t kMinCapacity = 8;
    static constexpr bool kTrivial = std::is_trivially_copyable_v<T>;

    std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

    void
    grow()
    {
        std::vector<T> wider(buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            wider[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(wider);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_RING_DEQUE_H
