/**
 * @file
 * Cumulative FTL-level counters. GC collections, relocations and
 * erases are counted only in FtlStats; Ftl::gcStats() reports them
 * with the FTL's GC-only counters as one GcStats.
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
    std::uint64_t relocationPrograms = 0; ///< WLs off retired blocks
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
        relocationPrograms += o.relocationPrograms;
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
            : static_cast<double>(host + gcPrograms + relocationPrograms) /
                  static_cast<double>(host);
    }

    double
    avgProgramLatencyUs() const
    {
        const auto n = hostPrograms + gcPrograms + relocationPrograms;
        return n == 0
            ? 0.0
            : static_cast<double>(programLatencySum) / 1000.0 /
                  static_cast<double>(n);
    }
};

/**
 * Cumulative GC counters of one device (Ftl::gcStats()):
 * collections, relocatedPages and erases are FtlStats' gcCollections,
 * gcRelocatedPages and erases; the FTL counts the rest for GC alone.
 */
struct GcStats
{
    std::uint64_t collections = 0;    ///< victims picked
    std::uint64_t relocatedPages = 0; ///< valid pages moved
    std::uint64_t erases = 0;         ///< victims erased
    std::uint64_t scanReads = 0;      ///< NAND reads issued by scans
    std::uint64_t programs = 0;       ///< WL programs issued for GC
    SimTime programLatencySum = 0;    ///< device tPROG over GC programs

    bool operator==(const GcStats &) const = default;

    /** Sum another device's counters in (multi-seed sweep merge). */
    void
    merge(const GcStats &o)
    {
        collections += o.collections;
        relocatedPages += o.relocatedPages;
        erases += o.erases;
        scanReads += o.scanReads;
        programs += o.programs;
        programLatencySum += o.programLatencySum;
    }

    /** Mean GC-induced WL program latency in microseconds. */
    double
    avgProgramLatencyUs() const
    {
        return programs == 0
            ? 0.0
            : static_cast<double>(programLatencySum) / 1000.0 /
                  static_cast<double>(programs);
    }
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_FTL_STATS_H
