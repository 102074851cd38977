/**
 * @file
 * Garbage collection of the FTL engine.
 *
 * GcEngine is Ftl's per-chip GC state machine: victim scan reads,
 * WL-sized relocation programs, and the final erase, with hysteresis
 * between the low and high free-block watermarks of SsdConfig. Victims
 * are picked greedily (the closed block with the fewest valid pages,
 * BlockManager::pickVictim).
 *
 * The engine drives NAND directly for scans and erases but routes
 * relocation programs through the FTL's flush path (Ftl::gcProgram),
 * so program-target policy (leader/follower steering, safety checks)
 * applies to GC traffic exactly as to host traffic. It is a by-value
 * member and a friend of Ftl, which passes itself to every call:
 * the engine works on the FTL's own geometry, block managers, mapping,
 * counters and event queue, and holds no reference to it.
 */

#ifndef CUBESSD_FTL_GC_H
#define CUBESSD_FTL_GC_H

#include <cstdint>
#include <vector>

#include <span>

#include "src/common/state_hash.h"
#include "src/common/types.h"
#include "src/ssd/chip_unit.h"

namespace cubessd::ftl {

/** One page travelling from the write buffer or a GC scan to NAND. */
struct FlushEntry
{
    Lba lba = kInvalidLba;          ///< kInvalidLba = padding
    std::uint64_t token = 0;
    std::uint64_t version = 0;
    Ppa sourcePpa = kInvalidPpa;    ///< set for GC relocations
};

/**
 * Cumulative GC counters of one device (Ftl::gcStats()):
 * collections, relocatedPages and erases are FtlStats' gcCollections,
 * gcRelocatedPages and erases; GcEngine counts the rest.
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

class Ftl;

/**
 * The garbage collector of one Ftl, held by value in it: per-chip
 * collection progress plus the GC-only counters (scan reads, programs,
 * their latency). Everything else it reads and updates — block
 * managers, mapping, chips, the flush path and the collection,
 * relocation and erase counters of FtlStats — is the FTL's own, passed
 * in as `ftl`.
 */
class GcEngine final
{
  public:
    /** Idle engine for `chips` chips of `pagesPerBlock` pages. */
    GcEngine(std::uint32_t chips, std::uint32_t pagesPerBlock);

    /** Start collecting on `chip` if below the low watermark. */
    void maybeStart(Ftl &ftl, std::uint32_t chip);

    /** Is a collection in progress on `chip`? */
    bool active(std::uint32_t chip) const { return gc_.at(chip).active; }

    /** A relocation program was handed to the chip queue. */
    void noteProgramIssued(std::uint32_t chip);

    /**
     * A relocation program completed on the die, failed or not (called
     * before the FTL's safety-check/mapping phase so a safety
     * re-program can re-issue the batch).
     */
    void noteProgramComplete(std::uint32_t chip, SimTime tProg);

    /** Resume the state machine after a relocation program applied. */
    void resume(Ftl &ftl, std::uint32_t chip);

    /** `ftl`'s collection, relocation and erase counts plus the
     *  engine's own. */
    GcStats stats(const Ftl &ftl) const;

    /** Fold every chip's collection progress and the counters in. */
    void hashState(StateHash &h) const;

    /**
     * Record each collection as a begin/end span on the chip's GC
     * track (one entry per chip) of the FTL's trace session. At most
     * one collection runs per chip, so per-track nesting is trivially
     * respected.
     */
    void setTracks(std::vector<std::uint32_t> tracks);

    /** A scan read or victim erase completed (Ftl hands over
     *  every op tagged tagGc except programs; op.ctx carries the page
     *  index for reads). */
    void onNandOpComplete(Ftl &ftl, const ssd::NandOp &op,
                          const ssd::NandOpResult &result);

  private:
    /** Per-chip GC progress. */
    struct ChipState
    {
        bool active = false;
        std::uint32_t victim = 0;
        std::uint32_t scanIndex = 0;     ///< next page slot to scan
        std::uint32_t outstandingReads = 0;
        std::uint32_t outstandingPrograms = 0;
        bool scanDone = false;
        bool erasing = false;
        /** Relocated pages waiting to be programmed: pending[head,
         *  tail). A collection appends each valid page of its victim
         *  at most once, so one block's worth of slots, sized at
         *  construction, always suffices: the hot path never
         *  allocates, and a copy keeps the room. */
        std::vector<FlushEntry> pending;
        std::uint32_t head = 0;
        std::uint32_t tail = 0;

        std::span<const FlushEntry>
        waiting() const
        {
            return {pending.data() + head, tail - head};
        }

        /** Back to idle for the next collection. */
        void
        reset()
        {
            active = false;
            victim = 0;
            scanIndex = 0;
            outstandingReads = 0;
            outstandingPrograms = 0;
            scanDone = false;
            erasing = false;
            head = 0;
            tail = 0;
        }
    };

    void startCollection(Ftl &ftl, std::uint32_t chip,
                         std::uint32_t victim);
    void handleEraseComplete(Ftl &ftl, std::uint32_t chip,
                             const ssd::NandOpResult &result);
    void continueOn(Ftl &ftl, std::uint32_t chip);
    void traceCollectionBegin(Ftl &ftl, std::uint32_t chip);
    void finishScanPage(Ftl &ftl, std::uint32_t chip,
                        std::uint32_t pageInBlockIdx);
    void maybeDispatchProgram(Ftl &ftl, std::uint32_t chip,
                              bool force);
    void eraseVictim(Ftl &ftl, std::uint32_t chip);

    std::vector<ChipState> gc_;
    std::uint64_t scanReads_ = 0;
    std::uint64_t programs_ = 0;  ///< failed relocation programs too
    SimTime programLatencySum_ = 0;
    std::vector<std::uint32_t> tracks_;  ///< per-chip GC trace track
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_GC_H
