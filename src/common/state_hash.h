/**
 * @file
 * Order-sensitive 64-bit hash over simulated state.
 *
 * Ssd::stateDigest() folds every stateful layer of a device into one
 * StateHash, so two devices compare equal exactly when their digests
 * do (up to hash collisions): a forked device must digest like its
 * source, and any later divergence shows up as a different value.
 * Values are folded word by word through a multiply-xorshift mix; the
 * result depends on the order of the add() calls.
 */

#ifndef CUBESSD_COMMON_STATE_HASH_H
#define CUBESSD_COMMON_STATE_HASH_H

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace cubessd {

class StateHash
{
  public:
    /**
     * Fold in a value whose bytes are its whole state: an integer, a
     * floating-point number (by bit pattern), or a struct of such
     * fields without padding.
     */
    template <typename T>
    StateHash &
    add(const T &value)
    {
        static_assert(std::has_unique_object_representations_v<T> ||
                          std::is_floating_point_v<T>,
                      "hash padded structs field by field");
        addBytes(&value, sizeof(T));
        return *this;
    }

    /** Fold in a vector's length and then every element. */
    template <typename T>
    StateHash &
    add(const std::vector<T> &values)
    {
        add(values.size());
        if constexpr (std::is_same_v<T, bool>) {
            for (const bool b : values)
                add(static_cast<std::uint8_t>(b));
        } else {
            for (const T &v : values)
                add(v);
        }
        return *this;
    }

    StateHash &
    add(bool value)
    {
        return add(static_cast<std::uint8_t>(value));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (; n >= 8; n -= 8, p += 8) {
            std::uint64_t w;
            std::memcpy(&w, p, 8);
            mix(w);
        }
        if (n > 0) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, n);
            mix(w ^ (static_cast<std::uint64_t>(n) << 56));
        }
    }

    void
    mix(std::uint64_t w)
    {
        h_ = (h_ ^ w) * 0x9E3779B97F4A7C15ull;
        h_ ^= h_ >> 29;
    }

    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_STATE_HASH_H
