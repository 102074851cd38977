/**
 * @file
 * Open-addressing hash map for 64-bit keys.
 *
 * Linear probing over one flat array of {key, value} slots — no
 * per-node allocation, no bucket chains; erase uses backward-shift
 * deletion so there are no tombstones and lookups stay short-probe
 * forever. Grows by doubling at ~70% load and then retains capacity,
 * so a steady-state working set churns with zero heap traffic.
 *
 * One key value is reserved as the empty sentinel (default ~0, i.e.
 * kInvalidLba/kInvalidPpa) and must never be inserted.
 */

#ifndef CUBESSD_COMMON_FLAT_MAP_H
#define CUBESSD_COMMON_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace cubessd {

template <typename V,
          std::uint64_t EmptyKey = ~static_cast<std::uint64_t>(0)>
class FlatMap64
{
  public:
    FlatMap64() { rehash(kMinSlots); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    V *
    find(std::uint64_t key)
    {
        for (std::size_t i = probeStart(key);; i = next(i)) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == EmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap64 *>(this)->find(key);
    }

    /**
     * Find or create the slot for `key`; `*inserted` reports which.
     * A created slot's value is value-initialized.
     */
    V &
    insertOrGet(std::uint64_t key, bool *inserted)
    {
        if (key == EmptyKey)
            panic("FlatMap64: the empty sentinel key is reserved");
        if ((size_ + 1) * 10 > slots_.size() * 7)
            rehash(slots_.size() * 2);
        for (std::size_t i = probeStart(key);; i = next(i)) {
            if (slots_[i].key == key) {
                *inserted = false;
                return slots_[i].value;
            }
            if (slots_[i].key == EmptyKey) {
                slots_[i].key = key;
                slots_[i].value = V{};
                ++size_;
                *inserted = true;
                return slots_[i].value;
            }
        }
    }

    /** Remove `key` if present (backward-shift deletion). */
    void
    erase(std::uint64_t key)
    {
        std::size_t i = probeStart(key);
        for (;; i = next(i)) {
            if (slots_[i].key == EmptyKey)
                return;
            if (slots_[i].key == key)
                break;
        }
        // Shift later entries of the probe chain back over the hole so
        // no lookup path is ever broken by an empty gap.
        std::size_t hole = i;
        for (std::size_t j = next(hole);; j = next(j)) {
            if (slots_[j].key == EmptyKey)
                break;
            const std::size_t home = probeStart(slots_[j].key);
            // Move j into the hole unless j still lies on its own
            // probe path from `home` without passing the hole.
            const bool reachable = hole <= j
                ? (home <= hole || home > j)
                : (home <= hole && home > j);
            if (reachable) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = EmptyKey;
        slots_[hole].value = V{};
        --size_;
    }

    /** Call `fn(key, value)` on every entry, in slot order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Slot &slot : slots_) {
            if (slot.key != EmptyKey)
                fn(slot.key, slot.value);
        }
    }

    void
    clear()
    {
        for (auto &slot : slots_) {
            slot.key = EmptyKey;
            slot.value = V{};
        }
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = EmptyKey;
        V value{};
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    probeStart(std::uint64_t key) const
    {
        // Fibonacci hash: multiplicative spread of sequential LBAs.
        return static_cast<std::size_t>(
                   (key * 0x9E3779B97F4A7C15ull) >> 32) &
               (slots_.size() - 1);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void
    rehash(std::size_t newSlots)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(newSlots, Slot{});
        size_ = 0;
        for (const auto &slot : old) {
            if (slot.key == EmptyKey)
                continue;
            bool inserted = false;
            insertOrGet(slot.key, &inserted) = slot.value;
        }
    }

  private:
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_FLAT_MAP_H
