/**
 * @file
 * Chip-level timing constants outside the ISPP/read models.
 */

#ifndef CUBESSD_NAND_TIMING_H
#define CUBESSD_NAND_TIMING_H

#include <cmath>

#include "src/common/types.h"
#include "src/common/units.h"

namespace cubessd::nand {

/** Erase / interface timing (program and read times come from the
 *  ISPP and read models; these are the rest). */
struct NandTiming
{
    /** Block erase time. */
    SimTime tErase = 3500 * kMicrosecond;
    /** One Set/Get-Feature command (paper: <1 us, Sec. 4.1.4/5.1). */
    SimTime tFeatureSet = 800 * kNanosecond;
    /** ONFI-style bus speed for page transfers (~800 MB/s). */
    double busNsPerByte = 1.25;

    /** Bus occupancy of transferring `bytes` to/from the chip. The
     *  bus is held for whole clock edges, so fractional nanoseconds
     *  round *up*: truncating would under-count occupancy for every
     *  transfer size that is not a multiple of the byte clock. */
    SimTime
    busTransferTime(std::uint64_t bytes) const
    {
        return static_cast<SimTime>(
            std::ceil(busNsPerByte * static_cast<double>(bytes)));
    }

    bool operator==(const NandTiming &) const = default;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_TIMING_H
