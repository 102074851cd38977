/**
 * @file
 * Standalone garbage-collection subsystem.
 *
 * GcEngine owns the per-chip GC state machine that used to live in
 * FtlBase: victim scan reads, WL-sized relocation programs, and the
 * final erase, with hysteresis between the low and high free-block
 * watermarks of SsdConfig. Victims are picked greedily (the closed
 * block with the fewest valid pages, BlockManager::pickVictim).
 *
 * The engine drives NAND directly for scans and erases but routes
 * relocation programs back through the FTL's flush path (GcHost), so
 * program-target policy (leader/follower steering, safety checks)
 * applies to GC traffic exactly as to host traffic.
 */

#ifndef CUBESSD_FTL_GC_H
#define CUBESSD_FTL_GC_H

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/ftl/block_manager.h"
#include "src/ftl/ftl_stats.h"
#include "src/ftl/mapping.h"
#include "src/nand/geometry.h"
#include "src/ssd/chip_unit.h"
#include "src/ssd/config.h"

namespace cubessd::trace {
class TraceSession;
}

namespace cubessd::ftl {

/** One page travelling from the write buffer or a GC scan to NAND. */
struct FlushEntry
{
    Lba lba = kInvalidLba;          ///< kInvalidLba = padding
    std::uint64_t token = 0;
    std::uint64_t version = 0;
    Ppa sourcePpa = kInvalidPpa;    ///< set for GC relocations
};

/** Cumulative counters of the GC subsystem. */
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

/**
 * Services the GC engine needs from the surrounding FTL. Implemented
 * by FtlBase; kept abstract so the engine is testable and reusable.
 */
class GcHost
{
  public:
    virtual ~GcHost() = default;

    /** Program one WL of relocated pages through the flush path (the
     *  host copies the batch; the reference is valid only for the
     *  duration of the call). */
    virtual void gcProgram(std::uint32_t chip,
                           const std::vector<FlushEntry> &batch) = 0;

    /** Read-reference shift for a scan read (policy hook). */
    virtual MilliVolt gcReadShift(std::uint32_t chip,
                                  const nand::PageAddr &addr) = 0;

    /** Soft-decode hint for a scan read (policy hook). */
    virtual bool gcReadSoftHint(std::uint32_t chip,
                                const nand::PageAddr &addr) = 0;

    /** A victim finished erasing and was released to the free list. */
    virtual void gcBlockErased(std::uint32_t chip,
                               std::uint32_t block) = 0;

    /**
     * A victim's erase reported status fail and the block was retired
     * to the bad-block list instead of returning to the free pool.
     */
    virtual void gcBlockRetired(std::uint32_t chip,
                                std::uint32_t block) = 0;

    /** Free blocks were reclaimed: retry any held-back host flushes. */
    virtual void gcBackpressureReleased() = 0;
};

class GcEngine final : public ssd::NandOpListener
{
  public:
    /**
     * @param mirror  FtlStats whose GC counters (gcCollections,
     *                gcRelocatedPages, erases, nandReads, readRetries)
     *                the engine keeps in sync with its own GcStats.
     */
    GcEngine(const ssd::SsdConfig &config,
             std::vector<ssd::ChipUnit> &chips,
             std::vector<BlockManager> &blockMgrs, MappingTable &mapping,
             GcHost &host, FtlStats &mirror);

    /** Copy of `other`'s per-chip progress and statistics, bound to
     *  another FTL's structures (FtlBase's copy). */
    GcEngine(const GcEngine &other, const ssd::SsdConfig &config,
             std::vector<ssd::ChipUnit> &chips,
             std::vector<BlockManager> &blockMgrs, MappingTable &mapping,
             GcHost &host, FtlStats &mirror);

    GcEngine(const GcEngine &) = delete;
    GcEngine &operator=(const GcEngine &) = delete;

    /** Start collecting on `chip` if below the low watermark. */
    void maybeStart(std::uint32_t chip);

    /** Is a collection in progress on `chip`? */
    bool active(std::uint32_t chip) const { return gc_.at(chip).active; }

    /** A relocation program was handed to the chip queue. */
    void noteProgramIssued(std::uint32_t chip);

    /**
     * A relocation program completed on the die (called before the
     * FTL's safety-check/mapping phase so a safety re-program can
     * re-issue the batch).
     */
    void noteProgramComplete(std::uint32_t chip, SimTime tProg);

    /** Resume the state machine after a relocation program applied. */
    void resume(std::uint32_t chip);

    const GcStats &stats() const { return stats_; }

    /** Fold every chip's collection progress and the counters in. */
    void hashState(StateHash &h) const;

    /**
     * Record each collection as a begin/end span on the chip's GC
     * track (one entry per chip in `tracks`), timestamped off `clock`
     * (observation only). At most one collection runs per chip, so
     * per-track nesting is trivially respected.
     */
    void setTrace(trace::TraceSession *session,
                  std::vector<std::uint32_t> tracks,
                  const sim::EventQueue *clock);

    /** ssd::NandOpListener: scan reads and victim erases complete
     *  here (op.ctx carries the page index for reads). */
    void onNandOpComplete(const ssd::NandOp &op,
                          const ssd::NandOpResult &result) override;

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
        std::vector<FlushEntry> pending; ///< relocated pages to program

        /** Back to idle, keeping `pending`'s capacity for the next
         *  collection (the hot path must not reallocate). */
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
            pending.clear();
        }
    };

    void startCollection(std::uint32_t chip, std::uint32_t victim);
    void handleEraseComplete(std::uint32_t chip,
                             const ssd::NandOpResult &result);
    void continueOn(std::uint32_t chip);
    void traceCollectionBegin(std::uint32_t chip);
    void finishScanPage(std::uint32_t chip,
                        std::uint32_t pageInBlockIdx);
    void maybeDispatchProgram(std::uint32_t chip, bool force);
    void eraseVictim(std::uint32_t chip);
    Ppa encodePpa(std::uint32_t chip, const nand::PageAddr &addr) const;

    const ssd::SsdConfig &config_;
    std::vector<ssd::ChipUnit> &chips_;
    std::vector<BlockManager> &blockMgrs_;
    MappingTable &mapping_;
    GcHost &host_;
    nand::NandGeometry geom_;
    nand::AddressCodec codec_;
    std::vector<ChipState> gc_;
    std::vector<FlushEntry> batchScratch_;  ///< staging for gcProgram
    GcStats stats_;
    FtlStats &mirror_;
    trace::TraceSession *trace_ = nullptr;
    std::vector<std::uint32_t> tracks_;
    const sim::EventQueue *clock_ = nullptr;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_GC_H
