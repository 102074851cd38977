/**
 * @file
 * Fundamental scalar types shared across the cubeSSD library.
 */

#ifndef CUBESSD_COMMON_TYPES_H
#define CUBESSD_COMMON_TYPES_H

#include <cstdint>

namespace cubessd {

/** Simulated time in nanoseconds since the start of the run. */
using SimTime = std::uint64_t;

/** Host-visible logical block (page) address. */
using Lba = std::uint64_t;

/** Linearized physical page index within one SSD. */
using Ppa = std::uint64_t;

/** Sentinel for "no physical page mapped". */
inline constexpr Ppa kInvalidPpa = ~static_cast<Ppa>(0);

/** Sentinel for "no logical page mapped". */
inline constexpr Lba kInvalidLba = ~static_cast<Lba>(0);

/** Sentinel of the FTL's 32-bit PPA and LBA arrays. SsdConfig::validate()
 *  keeps every PPA and LBA of a device below it. */
inline constexpr std::uint32_t kInvalid32 = ~std::uint32_t{0};

/** Program/erase cycle count of a block. */
using PeCycles = std::uint32_t;

/** Voltage expressed in millivolts. */
using MilliVolt = std::int32_t;

}  // namespace cubessd

#endif  // CUBESSD_COMMON_TYPES_H
