/**
 * @file
 * Cumulative FTL-level counters. The FTL engine and its GC engine
 * count here; GC collections, relocations and erases are counted only
 * here (Ftl::gcStats() reports them alongside the GC engine's own
 * counters).
 */

#ifndef CUBESSD_FTL_FTL_STATS_H
#define CUBESSD_FTL_FTL_STATS_H

#include <cstdint>

#include "src/common/types.h"

namespace cubessd::ftl {

/** Cumulative FTL-level counters. */
struct FtlStats
{
    std::uint64_t hostReadPages = 0;
    std::uint64_t hostWritePages = 0;
    std::uint64_t bufferHits = 0;
    std::uint64_t unmappedReads = 0;
    std::uint64_t nandReads = 0;
    std::uint64_t hostPrograms = 0;     ///< WL programs from host flushes
    std::uint64_t gcPrograms = 0;       ///< WL programs from GC
    std::uint64_t leaderPrograms = 0;
    std::uint64_t followerPrograms = 0;
    std::uint64_t gcCollections = 0;
    std::uint64_t gcRelocatedPages = 0;
    std::uint64_t erases = 0;
    std::uint64_t safetyReprograms = 0;
    std::uint64_t readRetries = 0;
    std::uint64_t uncorrectableReads = 0;
    std::uint64_t writeStalls = 0;
    /** @name Failure-domain counters (fault injection) @{ */
    std::uint64_t programFailures = 0;   ///< WL program-status fails seen
    std::uint64_t eraseFailures = 0;     ///< erase-status fails seen
    std::uint64_t retiredBlocks = 0;     ///< blocks on the bad-block list
    std::uint64_t badBlockRelocations = 0; ///< valid pages remapped off them
    std::uint64_t flushReplays = 0;      ///< failed WL batches re-dispatched
    std::uint64_t flushDeferrals = 0;    ///< batches parked on a dry free list
    std::uint64_t readOnlyRejects = 0;   ///< writes rejected in read-only mode
    std::uint64_t rejectedRequests = 0;  ///< out-of-range requests refused
    /** @} */
    SimTime programLatencySum = 0;      ///< device tPROG over all programs

    bool operator==(const FtlStats &) const = default;

    /** Sum another device's counters in (multi-seed sweep merge). */
    void
    merge(const FtlStats &o)
    {
        hostReadPages += o.hostReadPages;
        hostWritePages += o.hostWritePages;
        bufferHits += o.bufferHits;
        unmappedReads += o.unmappedReads;
        nandReads += o.nandReads;
        hostPrograms += o.hostPrograms;
        gcPrograms += o.gcPrograms;
        leaderPrograms += o.leaderPrograms;
        followerPrograms += o.followerPrograms;
        gcCollections += o.gcCollections;
        gcRelocatedPages += o.gcRelocatedPages;
        erases += o.erases;
        safetyReprograms += o.safetyReprograms;
        readRetries += o.readRetries;
        uncorrectableReads += o.uncorrectableReads;
        writeStalls += o.writeStalls;
        programFailures += o.programFailures;
        eraseFailures += o.eraseFailures;
        retiredBlocks += o.retiredBlocks;
        badBlockRelocations += o.badBlockRelocations;
        flushReplays += o.flushReplays;
        flushDeferrals += o.flushDeferrals;
        readOnlyRejects += o.readOnlyRejects;
        rejectedRequests += o.rejectedRequests;
        programLatencySum += o.programLatencySum;
    }

    double
    writeAmplification() const
    {
        const auto host = hostPrograms;
        return host == 0
            ? 1.0
            : static_cast<double>(host + gcPrograms) /
                  static_cast<double>(host);
    }

    double
    avgProgramLatencyUs() const
    {
        const auto n = hostPrograms + gcPrograms;
        return n == 0
            ? 0.0
            : static_cast<double>(programLatencySum) / 1000.0 /
                  static_cast<double>(n);
    }
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_FTL_STATS_H
