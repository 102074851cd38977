/**
 * @file
 * Unit helpers: time-literal constants and size constants.
 *
 * All simulated time in cubeSSD is kept in integer nanoseconds (SimTime);
 * these constants make call sites read like the paper ("tPROG = 700 us").
 */

#ifndef CUBESSD_COMMON_UNITS_H
#define CUBESSD_COMMON_UNITS_H

#include <cstdint>

#include "src/common/types.h"

namespace cubessd {

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000 * kNanosecond;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/** Convert a SimTime duration to fractional microseconds (for reports). */
constexpr double
toMicroseconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/** Convert a SimTime duration to fractional seconds (for reports). */
constexpr double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace cubessd

#endif  // CUBESSD_COMMON_UNITS_H
