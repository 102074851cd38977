/**
 * @file
 * The FTL: one page-mapping engine for all four FTLs of the paper's
 * evaluation, which differ only in the process-similarity (PS)
 * techniques they apply.
 *
 * Ftl implements the host-facing stages of the request pipeline —
 *
 *  - host writes land in the DRAM write buffer (stalling when full),
 *  - a background flush drains WL-sized batches to NAND,
 *  - host reads are served from the buffer, which keeps each page
 *    until its flush lands, or from NAND,
 *
 * — and reclaims space by garbage collection (src/ftl/gc.cc), whose
 * relocations take the same flush path. Its policy (src/ftl/policy.cc)
 * picks the WL to program next and its program command, the
 * read-reference shift of each read, and what to learn from completed
 * operations. SsdConfig::ftl and SsdConfig::cubeFeatures fix the policy
 * at construction:
 *
 *  - pageFTL (FtlKind::Page) applies no PS technique: one host and one
 *    GC write point per chip filled in horizontal-first order, default
 *    program commands, and every read starting its retry search from
 *    the chip-default references.
 *  - vertFTL (FtlKind::Vert) is pageFTL plus an offline per-h-layer
 *    V_Final table (Hung et al. [13]) applied to every WL.
 *  - cubeFTL (FtlKind::Cube, Sec. 5) applies config.cubeFeatures:
 *    the OPM monitors each h-layer's leader WL ([L_min, L_max],
 *    BER_EP1) and derives the follower program command (VFY skip plan
 *    + V_Start/V_Final adjustment), with the Sec. 4.1.4 safety check;
 *    the WAM steers each flush to a leader or follower WL by the
 *    write-buffer utilization, over two active blocks per chip in fully
 *    mixed (MOS) order; the ORT caches the most recent good
 *    read-reference shift per physical h-layer and reuses it for every
 *    read on that layer.
 *  - cubeFTL- is cubeFTL with the WAM off: PS-aware program and read
 *    parameters on one write point filled follower-first, which is the
 *    horizontal-first order.
 *
 * The request path is allocation-free at steady state: read contexts,
 * parked writes and flush batches live in free-list pools, completions
 * travel as typed events / CompletionSink calls, the write buffer's
 * per-LBA records are a flat hash map, and NAND completions arrive via
 * NandOpListener.
 *
 * Everything the FTL keeps per chip (block manager, host flushes,
 * write points, OPM slots, GC collection) is one Ftl::Chip record.
 *
 * An FTL is a plain value whose copy the compiler writes. Its two
 * links, the device's chip units and event queue, are set by wire(); a
 * copy carries every structure and counter and must be wired to its
 * own device.
 */

#ifndef CUBESSD_FTL_FTL_H
#define CUBESSD_FTL_FTL_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/pool.h"
#include "src/common/ring_deque.h"
#include "src/common/state_hash.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/ftl/block_manager.h"
#include "src/ftl/ftl_stats.h"
#include "src/ftl/mapping.h"
#include "src/ftl/opm.h"
#include "src/ftl/ort.h"
#include "src/ftl/wam.h"
#include "src/ftl/write_buffer.h"
#include "src/sim/event_queue.h"
#include "src/ssd/chip_unit.h"
#include "src/ssd/config.h"
#include "src/ssd/request.h"

namespace cubessd::trace {
class TraceSession;
class CounterRegistry;
}

namespace cubessd::ftl {

/**
 * The data token of write `version` of `lba`: what the page's spare
 * area records, ((lba + 1) << 32) | (version mod 2^32). It is never 0,
 * the token of an erased page. Two versions of one LBA share a token
 * only if 2^32 host page writes lie between them. Panics if lba + 1
 * does not fit 32 bits (validate() keeps every LBA below that).
 */
std::uint64_t dataToken(Lba lba, std::uint64_t version);

/** The LBA a data token carries; kInvalidLba for token 0 (an erased
 *  or padding page), by the wrap of 0 - 1. */
constexpr Lba
tokenLba(std::uint64_t token)
{
    return (token >> 32) - 1;
}

/** A WL program decision made by the policy layer. */
struct ProgramChoice
{
    nand::WlAddr wl{};
    nand::ProgramCommand cmd{};
    bool isLeader = true;   ///< counts toward leader/follower stats
    bool monitor = true;    ///< treat the result as fresh leader data
};

/** cubeFTL's follower and ORT counters (on top of FtlStats); zero for
 *  pageFTL and vertFTL. */
struct CubeFtlStats
{
    std::uint64_t followerWithParams = 0;  ///< fast-path followers
    std::uint64_t followerWithoutParams = 0;  ///< degraded to monitor
    std::uint64_t ortGuidedReads = 0;
};

class Ftl final : public sim::EventHandler, public ssd::NandOpListener
{
  public:
    /**
     * An FTL for `config`'s chips; wire() it before submitting.
     * @param model chip 0's model, whose error, ECC and ISPP models set
     *        up the OPM and vertFTL's table (every chip shares their
     *        configuration).
     */
    Ftl(const ssd::SsdConfig &config, const nand::NandChip &model);

    /** Link the FTL to the device's chip units (one per chip) and
     *  event queue. */
    void
    wire(std::vector<ssd::ChipUnit> &units, sim::EventQueue &queue)
    {
        units_ = units;
        queue_ = &queue;
    }

    /** Nothing buffered, stalled or in flight: every pooled read
     *  context, stalled write and flush batch is free (batches parked
     *  for want of a free block are held by value, not pooled). */
    bool idle() const;

    /** Fold the mapping, buffer, every chip's record, the ORT and
     *  every counter in. */
    void hashState(StateHash &h) const;

    /** Submit a host read; `sink` is notified (with `ctx` passed back
     *  verbatim) when all pages are returned. */
    void hostRead(const ssd::HostRequest &req, ssd::CompletionSink *sink,
                  std::uint64_t ctx);

    /** Cache hint for the mapping entries a read of `pages` from
     *  `lba` will look up (at most a few lines; changes nothing). */
    void
    prefetchRead(Lba lba, std::uint32_t pages) const
    {
        mapping_.prefetch(lba, pages);
    }

    /** Submit a host write; `sink` fires when all pages are buffered. */
    void hostWrite(const ssd::HostRequest &req,
                   ssd::CompletionSink *sink, std::uint64_t ctx);

    /**
     * Force every buffered page to NAND (end-of-run / power-down).
     * Asynchronous: run the event queue afterwards to complete it.
     */
    void flushAll();

    /** Current data of a logical page, bypassing timing (for tests). */
    std::optional<std::uint64_t> peek(Lba lba) const;

    /**
     * Has the device exhausted its spare blocks and entered read-only
     * mode? Subsequent writes, and writes stalled on a full buffer at
     * the transition, complete with Status::ReadOnly; reads and
     * in-flight flushes continue. Pages a stalled write had already
     * buffered stay buffered and are flushed: a torn write, as on a
     * device that loses power mid-command.
     */
    bool readOnly() const { return readOnly_; }

    const FtlStats &stats() const { return stats_; }
    /** FtlStats' collection, relocation and erase counts plus the GC
     *  scan reads, programs (failed ones too) and their latency. */
    GcStats gcStats() const;
    /** Is a GC collection in progress on `chip`? */
    bool collecting(std::uint32_t chip) const;
    const WriteBuffer &buffer() const { return buffer_; }
    const MappingTable &mapping() const { return mapping_; }
    const BlockManager &blockManager(std::uint32_t chip) const;
    std::uint64_t logicalPages() const { return mapping_.logicalPages(); }

    /** The PS techniques applied: config.cubeFeatures for cubeFTL,
     *  none for pageFTL and vertFTL. */
    const ssd::CubeFeatures &features() const { return features_; }
    /** The ORT (per-h-layer read-reference shifts); it holds no
     *  entry unless features().ort. */
    const Ort &ort() const { return ort_; }
    const CubeFtlStats &cubeStats() const { return cubeStats_; }
    /** vertFTL's offline per-h-layer V_Final reduction; empty for the
     *  other FTLs. */
    const std::vector<MilliVolt> &vFinalTable() const { return vFinal_; }

    /**
     * Verify cross-structure invariants (mapping vs valid pages vs the
     * LBA each mapped page's token carries vs chip state); panics on
     * violation. Test/debug aid.
     */
    void checkConsistency() const;

    /**
     * Record FTL-level instant events (write stalls, block
     * retirements, flush deferrals/replays, read-only transition) on
     * `track`, and GC episodes on the per-chip `gcTracks`
     * (observation only; null session disables).
     */
    void setTrace(trace::TraceSession *session, std::uint32_t track,
                  std::vector<std::uint32_t> gcTracks);

    /**
     * Register the FTL's sampled gauges (buffer occupancy, free
     * blocks, GC pages moved, write stalls, VFY skips) and, for
     * cubeFTL, the PS mechanisms as time series (ORT hit rate,
     * follower fast-path count).
     */
    void registerCounters(trace::CounterRegistry &reg);

    /** sim::EventHandler: deferred completions (RequestComplete,
     *  ReadPieceDone) land here. */
    void onEvent(sim::EventKind kind,
                 const sim::EventPayload &payload) override;

    /** ssd::NandOpListener: host reads, flush programs, GC scan reads
     *  and victim erases complete here. */
    void onNandOpComplete(const ssd::NandOp &op,
                          const ssd::NandOpResult &result) override;

  private:
    /** In-flight multi-page host read (pooled). */
    struct ReadContext
    {
        std::uint64_t id = 0;
        SimTime arrival = 0;
        std::uint32_t pages = 0;
        ssd::CompletionSink *sink = nullptr;
        std::uint64_t sinkCtx = 0;
        std::uint32_t remaining = 0;
        ssd::PhaseTimes phases{};  ///< summed over the request's pages
        ssd::Status status = ssd::Status::Ok;  ///< worst page outcome
    };

    /** Host write in progress, possibly stalled on a full buffer
     *  (pooled). */
    struct StalledWrite
    {
        ssd::HostRequest req{};
        ssd::CompletionSink *sink = nullptr;
        std::uint64_t sinkCtx = 0;
        std::uint32_t nextPage = 0;
    };

    /** One WL-sized flush in flight to NAND (pooled; `entries` and
     *  `tokens` keep their capacity across reuses). */
    struct FlushBatch
    {
        std::vector<FlushEntry> entries;
        std::vector<std::uint64_t> tokens;
        ProgramChoice choice{};
        std::uint32_t chip = 0;
        bool forGc = false;
    };

    /**
     * Buffer the write's remaining pages; complete it once all are.
     * @return false if it stalled on the full buffer (the caller keeps
     *         it queued until a flush frees room).
     */
    bool bufferPages(StalledWrite *write);
    /** Schedule the write's completion and recycle its record. */
    void completeWrite(StalledWrite *write);

    /** One page of a read finished; completes the request on the last
     *  piece (recycling the context). */
    void finishReadPiece(ReadContext *ctx);

    void maybeFlush();
    void dispatchFlush(FlushBatch *batch);
    void handleProgramComplete(FlushBatch *batch,
                               const ssd::NandOpResult &result);
    void applyMappings(std::uint32_t chip, const nand::WlAddr &wl,
                       const std::vector<FlushEntry> &batch);
    void retryStalledWrites();

    /** Does `req` name no page, or any page past the logical space? */
    bool outOfRange(const ssd::HostRequest &req) const;

    /** Complete a request immediately with a non-Ok status. */
    void completeWithStatus(const ssd::HostRequest &req,
                            ssd::CompletionSink *sink,
                            std::uint64_t sinkCtx, ssd::Status status);

    /** Schedule a RequestComplete event `delay` from now. */
    void scheduleCompletion(ssd::CompletionSink *sink,
                            std::uint64_t sinkCtx,
                            const ssd::HostRequest &req, ssd::IoType type,
                            ssd::Status status, SimTime bufferPhase,
                            SimTime delay);

    /**
     * Retire a block after a program-status fail: mark it bad, notify
     * the policy, relocate its still-valid pages to fresh blocks, and
     * re-evaluate the read-only condition.
     */
    void retireBlock(std::uint32_t chip, std::uint32_t block);

    /** Enter read-only mode once a chip's spare pool is exhausted. */
    void checkReadOnly(std::uint32_t chip);

    /** Re-dispatch flush batches parked while the chip's free list
     *  was empty, as far as the replenished free list allows. */
    void retryDeferredFlushes(std::uint32_t chip);

    /** Dispatch up to one WL of `entries` as a flush batch on `chip`
     *  (they are copied; a short batch is padded to a full WL). */
    void dispatchEntries(std::uint32_t chip,
                         std::span<const FlushEntry> entries, bool forGc);

    /**
     * The relocation of valid page `pageIdx` of `block` on `chip`: the
     * data token on NAND, the LBA it carries and the source PPA, which
     * makes applyMappings drop the copy if the LBA has moved on by the
     * time it lands.
     */
    FlushEntry relocationEntry(std::uint32_t chip, std::uint32_t block,
                               std::uint32_t pageIdx) const;

    std::uint64_t nextVersion() { return ++versionCounter_; }

    Ppa encodePpa(std::uint32_t chip, const nand::PageAddr &addr) const;
    std::pair<std::uint32_t, nand::PageAddr> decodePpa(Ppa ppa) const;
    std::uint32_t pageInBlock(const nand::PageAddr &addr) const;
    /** Address of page `pageIdx` of `block` (inverse of pageInBlock). */
    nand::PageAddr pageAddr(std::uint32_t block,
                            std::uint32_t pageIdx) const;

    std::uint32_t chipCount() const { return config_.totalChips(); }
    /** Behavioural chip model of one chip. */
    const nand::NandChip &
    chipModel(std::uint32_t chip) const
    {
        return units_[chip].chip();
    }

    // -----------------------------------------------------------------
    // Policy (src/ftl/policy.cc)
    // -----------------------------------------------------------------

    /** OPM parameters of one block being programmed, per h-layer. */
    struct ParamSlot
    {
        std::uint32_t block = kInvalid32;  ///< kInvalid32: free
        std::vector<LeaderParams> layers;
    };

    /** vertFTL's offline per-h-layer V_Final table for chips like
     *  `model`. */
    static std::vector<MilliVolt>
    buildVFinalTable(const ssd::SsdConfig &config,
                     const nand::NandChip &model);

    /**
     * Does the OPM monitor leader WLs and hand their parameters to the
     * followers (cubeFTL)? pageFTL and vertFTL monitor every program,
     * keep no parameters and so never run the safety check.
     */
    bool
    monitorsLeaders() const
    {
        return config_.ftl == ssd::FtlKind::Cube;
    }

    /**
     * Pick the WL and program command for the next flush on `chip`.
     * @param forGc  true when the program relocates GC data
     * @param mu     current write-buffer utilization (WAM input)
     */
    ProgramChoice chooseProgramTarget(std::uint32_t chip, bool forGc,
                                      double mu);
    /** The program command for `pick`: leader-derived for a cubeFTL
     *  follower whose parameters are current, else the default (plus
     *  vertFTL's table). */
    ProgramChoice finalizeChoice(std::uint32_t chip, const WlChoice &pick);

    /** How a page read starts. */
    struct ReadHint
    {
        MilliVolt shiftMv = 0;  ///< read-reference shift; 0: chip default
        bool soft = false;      ///< start with the soft LDPC decode
    };

    /**
     * One ORT probe for a page read: its h-layer's cached shift, and
     * whether to start with the soft decode (paper Sec. 8:
     * leader-informed ECC-mode selection).
     */
    ReadHint readHintFor(std::uint32_t chip, const nand::PageAddr &addr);

    /** Learn from a completed WL program. */
    void onProgramComplete(std::uint32_t chip, const ProgramChoice &choice,
                           const nand::WlProgramResult &result);

    /** Learn from a completed page read. */
    void onReadComplete(std::uint32_t chip, const nand::PageAddr &addr,
                        const nand::ReadOutcome &outcome);

    /** A block finished erasing: forget its cached ORT shifts and OPM
     *  parameters. */
    void onBlockErased(std::uint32_t chip, std::uint32_t block);

    /**
     * A block was retired to the bad-block list (program or erase
     * status fail): abandon any write point open on it and drop its
     * cached state. The engine has already marked it bad and takes
     * care of relocating its valid pages.
     */
    void onBlockRetired(std::uint32_t chip, std::uint32_t block);

    /**
     * Safety check of Sec. 4.1.4: return true if this (follower)
     * program deviated enough that the data must be re-programmed.
     */
    bool safetyCheck(std::uint32_t chip, const ProgramChoice &choice,
                     const nand::WlProgramResult &result);

    /** Cached parameters of `wl`'s h-layer, or null if its block
     *  holds no slot (which reads as an invalid entry). */
    LeaderParams *leaderParams(std::uint32_t chip, const nand::WlAddr &wl);

    /**
     * Give `block` a slot of invalid entries. A block takes one at its
     * first monitored completion and needs it until it closes: each
     * die programs in dispatch order, so a write point's old block
     * closes before its next block's first completion, and a slot
     * whose block is no longer active (closed or retired) is free.
     */
    std::vector<LeaderParams> &takeSlot(std::uint32_t chip,
                                        std::uint32_t block);

    // -----------------------------------------------------------------
    // Garbage collection (src/ftl/gc.cc)
    // -----------------------------------------------------------------

    /**
     * Where a chip's collection is: Scan reads the victim's valid pages,
     * Move waits for its last relocations to be programmed, Erase for
     * the victim's erase.
     */
    enum class GcPhase : std::uint8_t { Idle, Scan, Move, Erase };

    /** Start collecting on `chip` if it is below the low watermark. */
    void maybeStartGc(std::uint32_t chip);

    /** Collect `victim` on `chip`. */
    void startCollection(std::uint32_t chip, std::uint32_t victim);

    /**
     * Advance `chip`'s collection: issue the next scan read, program
     * each whole WL of relocations (the rest too once the scan is
     * done), and erase the victim once nothing is left to move. Does
     * nothing on an idle chip.
     */
    void continueCollection(std::uint32_t chip);

    /** A GC scan read or victim erase completed. */
    void onGcOpComplete(const ssd::NandOp &op,
                        const ssd::NandOpResult &result);

    /** `chip`'s victim erase completed: free or retire the block, end
     *  the collection and start the next below the high watermark. */
    void onVictimErased(std::uint32_t chip,
                        const ssd::NandOpResult &result);

    /** Everything the FTL keeps per chip, but the ORT's arrays. */
    struct Chip
    {
        /** All blocks free, no write point open, GC idle. */
        explicit Chip(const nand::NandGeometry &geom)
            : blocks(geom), pending(geom.pagesPerBlock())
        {
        }

        BlockManager blocks;

        /** Outstanding host-path flushes. Normally 0/1 (the maybeFlush
         *  throttle); bad-block relocations can push it higher
         *  transiently, hence a count rather than a flag. */
        std::uint32_t hostFlushes = 0;
        /** Entries of host-path batches parked because the chip had no
         *  free block to land them on (cascading retirement under fault
         *  injection), one WL's worth per batch, oldest first. Retried
         *  whenever GC returns a block to the free list; empty in
         *  fault-free operation. Parking appends and replaying copies
         *  out, so once warm the path allocates nothing. */
        std::vector<FlushEntry> parked;

        /** Write points: host[0], plus host[1] under the WAM, and one
         *  GC point. The host points open at the chip's first host
         *  program, the GC point at its first GC program; a point is
         *  replaced at the pick after it fills. */
        MixedWritePoint host[2];
        MixedWritePoint gcPoint;
        bool hostOpen = false;
        bool gcOpen = false;
        /** OPM parameter cache (cubeFTL only): one slot per write
         *  point, sized at construction so the program path never
         *  touches the heap. */
        std::vector<ParamSlot> slots;

        /** @name GC collection @{ */
        GcPhase gc = GcPhase::Idle;
        std::uint32_t victim = 0;
        std::uint32_t scanIndex = 0;         ///< next page slot to scan
        std::uint32_t readsInFlight = 0;     ///< scan reads
        std::uint32_t programsInFlight = 0;  ///< relocation programs
        /** Relocated pages waiting to be programmed: pending[head,
         *  tail). A collection appends each valid page of its victim
         *  at most once, so one block's worth of slots, sized at
         *  construction, always suffices: the hot path never
         *  allocates, and a copy keeps the room. */
        std::vector<FlushEntry> pending;
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
        std::uint32_t gcTrack = 0;  ///< trace track of its collections
        /** @} */
    };

    ssd::SsdConfig config_;
    std::span<ssd::ChipUnit> units_;    ///< link, set by wire()
    sim::EventQueue *queue_ = nullptr;  ///< link, set by wire()
    nand::NandGeometry geom_;
    nand::AddressCodec codec_;

    MappingTable mapping_;
    std::vector<Chip> chips_;
    WriteBuffer buffer_;
    ObjectPool<ReadContext> readCtxPool_;
    ObjectPool<StalledWrite> stalledPool_;
    ObjectPool<FlushBatch> batchPool_;
    RingDeque<StalledWrite *> stalled_;
    std::uint32_t flushCursor_ = 0;
    std::uint64_t versionCounter_ = 0;
    bool drainMode_ = false;
    bool readOnly_ = false;
    trace::TraceSession *trace_ = nullptr;
    std::uint32_t traceTrack_ = 0;

    FtlStats stats_;
    /** @name GC counters FtlStats lacks (gcStats()) @{ */
    std::uint64_t gcScanReads_ = 0;
    std::uint64_t gcProgramsRun_ = 0;  ///< failed relocation programs too
    SimTime gcProgramLatencySum_ = 0;
    /** @} */

    ssd::CubeFeatures features_;  ///< all off unless cubeFTL
    Opm opm_;
    Wam wam_;
    Ort ort_;
    std::vector<MilliVolt> vFinal_;  ///< per h-layer; vertFTL only
    CubeFtlStats cubeStats_;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_FTL_H
