#include "src/ftl/ftl.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/prof/prof.h"
#include "src/trace/counters.h"
#include "src/trace/trace.h"

namespace cubessd::ftl {

namespace {

/** The PS techniques of pageFTL and vertFTL: none. */
constexpr ssd::CubeFeatures kNoFeatures{false, false, false, false, false};

}  // namespace

Ftl::Ftl(const ssd::SsdConfig &config, const nand::NandChip &model)
    : config_(config),
      geom_(config.chip.geometry),
      codec_(geom_),
      mapping_(config.logicalPages()),
      buffer_(config.writeBufferPages),
      features_(config.ftl == ssd::FtlKind::Cube ? config.cubeFeatures
                                                 : kNoFeatures),
      opm_(OpmConfig{}, model.errors(), model.ecc(),
           model.ispp().config().deltaVMv),
      wam_(config.bufferHighWatermark),
      ort_(features_.ort ? config.totalChips() : 0,
           geom_.blocksPerChip, geom_.layersPerBlock)
{
    // Ssd validates first; this guards direct construction.
    if (const std::string err = config_.validate(); !err.empty())
        fatal("Ftl: invalid configuration: %s", err.c_str());
    chips_.reserve(chipCount());
    for (std::uint32_t i = 0; i < chipCount(); ++i)
        chips_.emplace_back(geom_);

    if (config_.ftl == ssd::FtlKind::Vert)
        vFinal_ = buildVFinalTable(config_, model);
    if (monitorsLeaders()) {
        const ParamSlot slot{kInvalid32, std::vector<LeaderParams>(
                                             geom_.layersPerBlock)};
        for (Chip &c : chips_)
            c.slots.assign(features_.wam ? 3 : 2, slot);
    }
}

bool
Ftl::idle() const
{
    return buffer_.empty() && stalled_.empty() &&
           readCtxPool_.inUse() == 0 && stalledPool_.inUse() == 0 &&
           batchPool_.inUse() == 0;
}

void
Ftl::hashState(StateHash &h) const
{
    mapping_.hashState(h);
    buffer_.hashState(h);
    for (const Chip &c : chips_) {
        c.blocks.hashState(h);
        h.add(c.hostFlushes).add(c.parked);
        h.add(c.hostOpen).add(c.gcOpen);
        for (const MixedWritePoint *wp : {&c.host[0], &c.host[1], &c.gcPoint})
            h.add(*wp);
        for (const ParamSlot &slot : c.slots) {
            h.add(slot.block);
            for (const LeaderParams &p : slot.layers) {
                h.add(p.valid).add(p.skipPlan).add(p.skipPlanUnshifted);
                h.add(p.vStartAdjMv).add(p.vFinalAdjMv);
                h.add(p.leaderBerEp1Norm).add(p.expectedMultiplier);
                h.add(p.epoch);
            }
        }
        h.add(c.gc).add(c.victim).add(c.scanIndex);
        h.add(c.readsInFlight).add(c.programsInFlight);
        for (std::uint32_t i = c.head; i < c.tail; ++i)
            h.add(c.pending[i]);
    }
    h.add(flushCursor_).add(versionCounter_).add(drainMode_);
    h.add(readOnly_).add(stats_);
    h.add(gcScanReads_).add(gcProgramsRun_).add(gcProgramLatencySum_);
    ort_.hashState(h);
    h.add(cubeStats_);
}

const BlockManager &
Ftl::blockManager(std::uint32_t chip) const
{
    return chips_.at(chip).blocks;
}

void
Ftl::setTrace(trace::TraceSession *session, std::uint32_t track,
              std::vector<std::uint32_t> gcTracks)
{
    if (session != nullptr && gcTracks.size() != chipCount())
        fatal("Ftl::setTrace: need one GC track per chip");
    trace_ = session;
    traceTrack_ = track;
    if (session != nullptr) {
        for (std::uint32_t c = 0; c < chipCount(); ++c)
            chips_[c].gcTrack = gcTracks[c];
    }
}

void
Ftl::registerCounters(trace::CounterRegistry &reg)
{
    reg.add("buffer_occupancy", "pages", [this](SimTime) {
        return static_cast<double>(buffer_.size());
    });
    reg.add("free_blocks", "blocks", [this](SimTime) {
        double n = 0.0;
        for (const Chip &c : chips_)
            n += static_cast<double>(c.blocks.freeCount());
        return n;
    });
    reg.add("gc_pages_moved", "pages", [this](SimTime) {
        return static_cast<double>(stats_.gcRelocatedPages);
    });
    reg.add("write_stalls", "stalls", [this](SimTime) {
        return static_cast<double>(stats_.writeStalls);
    });
    reg.add("vfy_skipped", "verifies", [this](SimTime) {
        double n = 0.0;
        for (std::uint32_t c = 0; c < chipCount(); ++c)
            n += static_cast<double>(
                chipModel(c).stats().verifiesSkipped);
        return n;
    });
    if (!monitorsLeaders())
        return;
    reg.add("ort_hit_rate", "percent", [this](SimTime) {
        const auto total = ort_.hits() + ort_.misses();
        return total == 0
            ? 0.0
            : 100.0 * static_cast<double>(ort_.hits()) /
                  static_cast<double>(total);
    });
    reg.add("follower_fast_path", "programs", [this](SimTime) {
        return static_cast<double>(cubeStats_.followerWithParams);
    });
}

std::uint64_t
dataToken(Lba lba, std::uint64_t version)
{
    if (lba >= kInvalid32)
        panic("dataToken: LBA %llu does not fit the token's 32 bits",
              static_cast<unsigned long long>(lba));
    return ((lba + 1) << 32) | static_cast<std::uint32_t>(version);
}

Ppa
Ftl::encodePpa(std::uint32_t chip, const nand::PageAddr &addr) const
{
    return static_cast<Ppa>(chip) * geom_.pagesPerChip() +
           codec_.encode(addr);
}

std::pair<std::uint32_t, nand::PageAddr>
Ftl::decodePpa(Ppa ppa) const
{
    const auto perChip = geom_.pagesPerChip();
    const auto chip = static_cast<std::uint32_t>(ppa / perChip);
    return {chip, codec_.decode(ppa % perChip)};
}

std::uint32_t
Ftl::pageInBlock(const nand::PageAddr &addr) const
{
    return (addr.layer * geom_.wlsPerLayer + addr.wl) * geom_.pagesPerWl +
           addr.page;
}

nand::PageAddr
Ftl::pageAddr(std::uint32_t block, std::uint32_t pageIdx) const
{
    return codec_.decode(
        static_cast<std::uint64_t>(block) * geom_.pagesPerBlock() +
        pageIdx);
}

// ---------------------------------------------------------------------
// Completion delivery (typed events; see onEvent below)
// ---------------------------------------------------------------------

void
Ftl::scheduleCompletion(ssd::CompletionSink *sink,
                        std::uint64_t sinkCtx,
                        const ssd::HostRequest &req, ssd::IoType type,
                        ssd::Status status, SimTime bufferPhase,
                        SimTime delay)
{
    sim::EventPayload payload;
    payload.requestComplete.sink = sink;
    payload.requestComplete.sinkCtx = sinkCtx;
    payload.requestComplete.id = req.id;
    payload.requestComplete.arrival = req.arrival;
    payload.requestComplete.pages = req.pages;
    payload.requestComplete.type = static_cast<std::uint8_t>(type);
    payload.requestComplete.status = static_cast<std::uint8_t>(status);
    payload.requestComplete.bufferPhase = bufferPhase;
    queue_->schedule(delay, sim::EventKind::RequestComplete, this,
                     payload);
}

void
Ftl::onEvent(sim::EventKind kind, const sim::EventPayload &payload)
{
    if (kind == sim::EventKind::ReadPieceDone) {
        finishReadPiece(
            static_cast<ReadContext *>(payload.readPiece.ctx));
        return;
    }
    // RequestComplete: a write (or rejected request) reaches the host.
    const auto &rc = payload.requestComplete;
    if (rc.sink == nullptr)
        return;
    ssd::Completion c;
    c.id = rc.id;
    c.type = static_cast<ssd::IoType>(rc.type);
    c.pages = rc.pages;
    c.arrival = rc.arrival;
    c.finish = queue_->now();
    c.status = static_cast<ssd::Status>(rc.status);
    // Writes complete at the DRAM buffer; any extra latency is stall
    // time waiting for flushes (the unattributed remainder).
    c.phases.buffer = rc.bufferPhase;
    static_cast<ssd::CompletionSink *>(rc.sink)->onCompletion(
        c, rc.sinkCtx);
}

// ---------------------------------------------------------------------
// Host read path
// ---------------------------------------------------------------------

void
Ftl::hostRead(const ssd::HostRequest &req, ssd::CompletionSink *sink,
              std::uint64_t sinkCtx)
{
    if (outOfRange(req)) {
        completeWithStatus(req, sink, sinkCtx, ssd::Status::Rejected);
        return;
    }

    ReadContext *ctx = readCtxPool_.acquire();
    ctx->id = req.id;
    ctx->arrival = req.arrival;
    ctx->pages = req.pages;
    ctx->sink = sink;
    ctx->sinkCtx = sinkCtx;
    ctx->remaining = req.pages;
    ctx->phases = ssd::PhaseTimes{};
    ctx->status = ssd::Status::Ok;

    for (std::uint32_t i = 0; i < req.pages; ++i) {
        const Lba lba = req.lba + i;
        ++stats_.hostReadPages;

        // 1) write buffer (until the flush lands), 2) NAND. DRAM
        // serves a buffer hit, and an unmapped page as zeros.
        bool buffered;
        std::optional<Ppa> ppa;
        {
            PROF_SCOPE(prof::Slot::FtlMapping);
            buffered = buffer_.lookup(lba).has_value();
            if (!buffered)
                ppa = mapping_.lookup(lba);
        }
        if (buffered || !ppa) {
            ++(buffered ? stats_.bufferHits : stats_.unmappedReads);
            ctx->phases.buffer += config_.bufferReadTime;
            sim::EventPayload payload;
            payload.readPiece.ctx = ctx;
            queue_->schedule(config_.bufferReadTime,
                             sim::EventKind::ReadPieceDone, this,
                             payload);
            continue;
        }

        const auto [chip, addr] = decodePpa(*ppa);
        ssd::NandOp op;
        op.kind = ssd::NandOp::Kind::Read;
        op.page = addr;
        const ReadHint hint = readHintFor(chip, addr);
        op.readShiftMv = hint.shiftMv;
        op.readSoftHint = hint.soft;
        op.highPriority = true;
        op.listener = this;
        op.ctx = reinterpret_cast<std::uint64_t>(ctx);
        op.chip = chip;
        ++stats_.nandReads;
        units_[chip].enqueue(op);
    }
}

void
Ftl::finishReadPiece(ReadContext *ctx)
{
    if (--ctx->remaining != 0)
        return;
    // Copy out and recycle before notifying: the sink may submit new
    // reads that reuse this context.
    ssd::Completion c;
    c.id = ctx->id;
    c.type = ssd::IoType::Read;
    c.pages = ctx->pages;
    c.arrival = ctx->arrival;
    c.finish = queue_->now();
    c.status = ctx->status;
    c.phases = ctx->phases;
    ssd::CompletionSink *sink = ctx->sink;
    const std::uint64_t sinkCtx = ctx->sinkCtx;
    readCtxPool_.release(ctx);
    if (sink != nullptr)
        sink->onCompletion(c, sinkCtx);
}

void
Ftl::onNandOpComplete(const ssd::NandOp &op,
                      const ssd::NandOpResult &result)
{
    if (op.tagGc && op.kind != ssd::NandOp::Kind::Program) {
        onGcOpComplete(op, result);  // scan read or erase
        return;
    }
    if (op.kind == ssd::NandOp::Kind::Read) {
        auto *ctx = reinterpret_cast<ReadContext *>(op.ctx);
        stats_.readRetries +=
            static_cast<std::uint64_t>(result.read.numRetries);
        if (result.read.uncorrectable) {
            // Retry walk exhausted and the soft LDPC fallthrough
            // failed too: this page's data is lost.
            ++stats_.uncorrectableReads;
            ctx->status = ssd::worseStatus(ctx->status,
                                           ssd::Status::Uncorrectable);
        }
        ctx->phases.bus += result.busTime;
        ctx->phases.die += result.dieTime - result.read.tRetry;
        ctx->phases.retry += result.read.tRetry;
        onReadComplete(op.chip, op.page, result.read);
        finishReadPiece(ctx);
        return;
    }
    handleProgramComplete(reinterpret_cast<FlushBatch *>(op.ctx),
                          result);
}

// ---------------------------------------------------------------------
// Host write path
// ---------------------------------------------------------------------

void
Ftl::hostWrite(const ssd::HostRequest &req,
               ssd::CompletionSink *sink, std::uint64_t sinkCtx)
{
    if (outOfRange(req)) {
        completeWithStatus(req, sink, sinkCtx, ssd::Status::Rejected);
        return;
    }
    if (readOnly_) {
        // Spare blocks are exhausted: fail fast instead of accepting
        // data the flush path may no longer be able to place.
        ++stats_.readOnlyRejects;
        completeWithStatus(req, sink, sinkCtx, ssd::Status::ReadOnly);
        return;
    }
    StalledWrite *write = stalledPool_.acquire();
    write->req = req;
    write->sink = sink;
    write->sinkCtx = sinkCtx;
    write->nextPage = 0;
    if (!bufferPages(write))
        stalled_.push_back(write);
    maybeFlush();
}

bool
Ftl::bufferPages(StalledWrite *write)
{
    while (write->nextPage < write->req.pages) {
        const Lba lba = write->req.lba + write->nextPage;
        const std::uint64_t version = nextVersion();
        const std::uint64_t token = dataToken(lba, version);
        if (!buffer_.insert(lba, token, version)) {
            // Buffer full: a flush completion will resume the write.
            // The unissued version number is harmless.
            ++stats_.writeStalls;
            if (trace_ != nullptr) {
                // Stalled writes, this one included: a retried write
                // is already the queue's front, a new one not queued.
                const bool queued =
                    !stalled_.empty() && stalled_.front() == write;
                trace_->instant(
                    traceTrack_, "write_stall", queue_->now(),
                    {{"lba", static_cast<std::int64_t>(lba)},
                     {"stalled_requests",
                      static_cast<std::int64_t>(stalled_.size() +
                                                (queued ? 0 : 1))}});
            }
            return false;
        }
        ++stats_.hostWritePages;
        ++write->nextPage;
    }
    completeWrite(write);
    return true;
}

void
Ftl::completeWrite(StalledWrite *write)
{
    scheduleCompletion(write->sink, write->sinkCtx, write->req,
                       ssd::IoType::Write, ssd::Status::Ok,
                       config_.bufferReadTime, config_.bufferReadTime);
    stalledPool_.release(write);
}

bool
Ftl::outOfRange(const ssd::HostRequest &req) const
{
    // Compared without forming lba + pages, which can wrap past 2^64.
    const std::uint64_t logical = mapping_.logicalPages();
    return req.pages == 0 || req.lba >= logical ||
           req.pages > logical - req.lba;
}

void
Ftl::completeWithStatus(const ssd::HostRequest &req,
                        ssd::CompletionSink *sink,
                        std::uint64_t sinkCtx, ssd::Status status)
{
    if (status == ssd::Status::Rejected)
        ++stats_.rejectedRequests;
    scheduleCompletion(sink, sinkCtx, req, req.type, status, 0, 0);
}

void
Ftl::retryStalledWrites()
{
    // In arrival order: a write that stalls again keeps the front.
    while (!stalled_.empty()) {
        StalledWrite *write = stalled_.front();
        const std::uint32_t before = write->nextPage;
        if (bufferPages(write))
            stalled_.pop_front();
        else if (write->nextPage == before)
            break;  // no progress possible until the next flush
    }
}

// ---------------------------------------------------------------------
// Flush path
// ---------------------------------------------------------------------

void
Ftl::flushAll()
{
    drainMode_ = true;
    maybeFlush();
}

void
Ftl::maybeFlush()
{
    for (;;) {
        const bool fullBatch = buffer_.size() >= geom_.pagesPerWl;
        const bool drainBatch = drainMode_ && !buffer_.empty();
        if (!fullBatch && !drainBatch)
            break;

        // Find a chip without an outstanding host flush. Chips that
        // are urgently low on free blocks are skipped (backpressure):
        // their remaining blocks are reserved for GC to make progress.
        const std::uint32_t chips = chipCount();
        std::uint32_t chip = chips;
        for (std::uint32_t i = 0; i < chips; ++i) {
            const std::uint32_t c = (flushCursor_ + i) % chips;
            if (chips_[c].blocks.freeCount() <= config_.gcUrgentWatermark) {
                // Hold host flushes back only while GC can actually
                // make progress there; if nothing is collectable
                // (e.g. a pure sequential fill has no invalid pages)
                // the flush must proceed or the device deadlocks.
                maybeStartGc(c);
                if (collecting(c))
                    continue;
            }
            if (chips_[c].hostFlushes == 0) {
                chip = c;
                break;
            }
        }
        if (chip == chips)
            break;
        flushCursor_ = (chip + 1) % chips;

        FlushBatch *batch = batchPool_.acquire();
        batch->entries.clear();
        batch->chip = chip;
        batch->forGc = false;
        buffer_.popOldest(geom_.pagesPerWl, batch->entries);
        batch->entries.resize(geom_.pagesPerWl);  // padding (drain)
        dispatchFlush(batch);
    }
    if (drainMode_ && buffer_.empty())
        drainMode_ = false;
}

void
Ftl::dispatchFlush(FlushBatch *batch)
{
    const std::uint32_t chip = batch->chip;
    Chip &c = chips_[chip];
    // Backstop against cascading retirement under fault injection:
    // with the free list empty, a host-path dispatch could force the
    // allocator into its fatal path. Park the batch and retry when GC
    // returns a block; the data stays readable via the write buffer /
    // the source block meanwhile. GC batches are never parked — GC is a
    // net producer of free blocks and dropping its relocations would
    // erase live data. Unreachable without faults (the watermarks
    // keep the free list stocked).
    if (!batch->forGc && config_.chip.faults.enabled &&
        c.blocks.freeCount() == 0) {
        ++stats_.flushDeferrals;
        if (trace_ != nullptr)
            trace_->instant(traceTrack_, "flush_deferred",
                            queue_->now(), {{"chip", chip}});
        c.parked.insert(c.parked.end(), batch->entries.begin(),
                        batch->entries.end());
        batchPool_.release(batch);
        return;
    }

    const double mu = buffer_.utilization();
    batch->choice = chooseProgramTarget(chip, batch->forGc, mu);

    if (batch->choice.isLeader)
        ++stats_.leaderPrograms;
    else
        ++stats_.followerPrograms;

    batch->tokens.clear();
    for (const auto &e : batch->entries) {
        batch->tokens.push_back(e.token);
        // applyMappings reads the entry when the program completes
        // (a padding entry's kInvalidLba is out of range, ignored).
        mapping_.prefetch(e.lba, 1);
    }

    if (batch->forGc)
        ++c.programsInFlight;
    else
        ++c.hostFlushes;

    ssd::NandOp op;
    op.kind = ssd::NandOp::Kind::Program;
    op.wl = batch->choice.wl;
    op.cmd = batch->choice.cmd;
    op.tokens = batch->tokens.data();
    op.tokenCount = static_cast<std::uint32_t>(batch->tokens.size());
    op.tagLeader = batch->choice.isLeader;
    op.tagGc = batch->forGc;
    op.listener = this;
    op.ctx = reinterpret_cast<std::uint64_t>(batch);
    op.chip = chip;
    units_[chip].enqueue(op);
}

void
Ftl::handleProgramComplete(FlushBatch *batch,
                           const ssd::NandOpResult &result)
{
    const std::uint32_t chip = batch->chip;
    const bool forGc = batch->forGc;
    const ProgramChoice choice = batch->choice;
    Chip &c = chips_[chip];
    // The die is done with this batch, whatever the outcome.
    if (forGc) {
        --c.programsInFlight;
        ++gcProgramsRun_;
        gcProgramLatencySum_ += result.program.tProg;
    } else {
        --c.hostFlushes;
    }
    const bool targetRetired = c.blocks.info(choice.wl.block).isBad;
    if (result.program.failed || targetRetired) {
        // Program-status fail (or a program that was already queued
        // when its target block got retired): the WL holds no durable
        // data. Retire the block on a fresh failure, then replay the
        // whole batch through the flush path — chooseProgramTarget
        // will steer it to a fresh block now that the policy has
        // abandoned its write point on the retired one.
        if (result.program.failed) {
            ++stats_.programFailures;
            if (!targetRetired)
                retireBlock(chip, choice.wl.block);
        }
        ++stats_.flushReplays;
        if (trace_ != nullptr)
            trace_->instant(traceTrack_, "flush_replay", queue_->now(),
                            {{"chip", chip},
                             {"block", choice.wl.block}});
        dispatchFlush(batch);  // reuses the node and its entries
        maybeStartGc(chip);
        return;
    }

    stats_.programLatencySum += result.program.tProg;
    if (forGc)
        ++stats_.gcPrograms;
    else if (batch->entries.front().sourcePpa != kInvalidPpa)
        ++stats_.relocationPrograms;  // off a retired block
    else
        ++stats_.hostPrograms;

    c.blocks.noteWlProgrammed(choice.wl.block);
    if (c.blocks.info(choice.wl.block).programmedWls == geom_.wlsPerBlock())
        c.blocks.close(choice.wl.block);

    // Safety check (Sec. 4.1.4): a follower whose program deviated from
    // the leader-derived expectation is re-programmed on the next WL.
    if (!choice.monitor &&
        safetyCheck(chip, choice, result.program)) {
        ++stats_.safetyReprograms;
        if (trace_ != nullptr)
            trace_->instant(traceTrack_, "safety_reprogram",
                            queue_->now(),
                            {{"chip", chip},
                             {"block", choice.wl.block},
                             {"layer", choice.wl.layer}});
        dispatchFlush(batch);
        maybeStartGc(chip);
        return;
    }

    applyMappings(chip, choice.wl, batch->entries);
    batchPool_.release(batch);
    onProgramComplete(chip, choice, result.program);

    if (forGc)
        continueCollection(chip);
    else
        retryStalledWrites();
    maybeStartGc(chip);
    maybeFlush();
}

void
Ftl::applyMappings(std::uint32_t chip, const nand::WlAddr &wl,
                   const std::vector<FlushEntry> &batch)
{
    PROF_SCOPE(prof::Slot::FtlMapping);
    BlockManager &mgr = chips_[chip].blocks;
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
        const auto &entry = batch[i];
        if (entry.lba == kInvalidLba)
            continue;  // padding page stays invalid

        const nand::PageAddr addr{wl.block, wl.layer, wl.wl, i};
        const Ppa ppa = encodePpa(chip, addr);

        // A stale copy (a relocation whose LBA moved on since the
        // scan, or a host flush overtaken by a newer version's) is not
        // mapped: its page stays invalid and GC reclaims it.
        std::optional<Ppa> old;
        if (entry.sourcePpa != kInvalidPpa) {
            if (!mapping_.relocate(entry.lba, entry.sourcePpa, ppa))
                continue;
            old = entry.sourcePpa;
        } else {
            if (!buffer_.land(entry.lba, entry.version))
                continue;
            old = mapping_.map(entry.lba, ppa);
        }
        if (old) {
            const auto [oldChip, oldAddr] = decodePpa(*old);
            chips_[oldChip].blocks.markInvalid(oldAddr.block,
                                               pageInBlock(oldAddr));
        }
        mgr.markValid(wl.block, pageInBlock(addr));
    }
}

// ---------------------------------------------------------------------
// Failure domain: bad-block retirement and read-only degradation
// ---------------------------------------------------------------------

void
Ftl::retireBlock(std::uint32_t chip, std::uint32_t block)
{
    BlockManager &mgr = chips_[chip].blocks;
    mgr.retire(block);
    ++stats_.retiredBlocks;
    if (trace_ != nullptr)
        trace_->instant(traceTrack_, "block_retired", queue_->now(),
                        {{"chip", chip}, {"block", block}});
    onBlockRetired(chip, block);

    // Relocate the pages that were already durable in the retired
    // block, GC-style (sourcePpa guards against racing host writes).
    // The NAND keeps the data of its intact WLs, so reads served
    // before a relocation lands still return correct tokens; as each
    // relocated copy maps in, the old page is invalidated. Local
    // vectors are fine here: this path only runs under fault
    // injection, never in steady state.
    std::vector<FlushEntry> pending;
    for (std::uint32_t i = mgr.nextValid(block, 0);
         i < geom_.pagesPerBlock(); i = mgr.nextValid(block, i + 1)) {
        pending.push_back(relocationEntry(chip, block, i));
        ++stats_.badBlockRelocations;
    }
    for (std::size_t off = 0; off < pending.size();
         off += geom_.pagesPerWl) {
        const std::size_t n =
            std::min<std::size_t>(pending.size() - off, geom_.pagesPerWl);
        dispatchEntries(chip, std::span(pending).subspan(off, n),
                        /*forGc=*/false);
    }

    checkReadOnly(chip);
}

void
Ftl::checkReadOnly(std::uint32_t chip)
{
    if (readOnly_)
        return;
    // Every retirement permanently shrinks the chip's spare pool. Once
    // it falls below the floor validate() enforces (minSpareBlocks),
    // new writes can no longer be guaranteed a landing block: degrade
    // to read-only *before* the allocator runs dry so in-flight
    // flushes and relocations still have room to complete.
    const std::uint64_t retired = chips_[chip].blocks.retiredCount();
    if (config_.spareBlocksPerChip() <
        retired + config_.minSpareBlocks()) {
        readOnly_ = true;
        if (trace_ != nullptr)
            trace_->instant(traceTrack_, "read_only", queue_->now(),
                            {{"chip", chip},
                             {"retired",
                              static_cast<std::int64_t>(retired)}});
        // A write stalled on the full buffer may wait for a flush that
        // no free block will ever take: reject it like a new write.
        while (!stalled_.empty()) {
            StalledWrite *write = stalled_.front();
            stalled_.pop_front();
            ++stats_.readOnlyRejects;
            completeWithStatus(write->req, write->sink, write->sinkCtx,
                               ssd::Status::ReadOnly);
            stalledPool_.release(write);
        }
    }
}

void
Ftl::retryDeferredFlushes(std::uint32_t chip)
{
    Chip &c = chips_[chip];
    const std::uint32_t wl = geom_.pagesPerWl;
    while (!c.parked.empty() && c.blocks.freeCount() > 0) {
        dispatchEntries(chip, std::span(c.parked).first(wl),
                        /*forGc=*/false);
        c.parked.erase(c.parked.begin(), c.parked.begin() + wl);
    }
}

// ---------------------------------------------------------------------
// Relocation (GC, src/ftl/gc.cc, and bad-block retirement)
// ---------------------------------------------------------------------

void
Ftl::dispatchEntries(std::uint32_t chip,
                     std::span<const FlushEntry> entries, bool forGc)
{
    FlushBatch *batch = batchPool_.acquire();
    batch->entries.assign(entries.begin(), entries.end());
    batch->entries.resize(geom_.pagesPerWl);  // padding stays invalid
    batch->chip = chip;
    batch->forGc = forGc;
    dispatchFlush(batch);
}

FlushEntry
Ftl::relocationEntry(std::uint32_t chip, std::uint32_t block,
                     std::uint32_t pageIdx) const
{
    const nand::PageAddr addr = pageAddr(block, pageIdx);
    const std::uint64_t token = units_[chip].chip().pageToken(addr);
    return {tokenLba(token), token, 0, encodePpa(chip, addr)};
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

std::optional<std::uint64_t>
Ftl::peek(Lba lba) const
{
    if (lba >= mapping_.logicalPages())
        return std::nullopt;
    if (auto hit = buffer_.lookup(lba))
        return hit;
    const std::optional<Ppa> ppa = mapping_.lookup(lba);
    if (!ppa)
        return std::nullopt;
    const auto [chip, addr] = decodePpa(*ppa);
    return units_[chip].chip().pageToken(addr);
}

void
Ftl::checkConsistency() const
{
    // Every mapped LBA must point at a valid page whose token carries
    // it back. With as many valid pages as mapped LBAs, every valid
    // page is then some LBA's, and no token names an LBA past the
    // logical space.
    std::uint64_t mapped = 0;
    for (Lba lba = 0; lba < mapping_.logicalPages(); ++lba) {
        const std::optional<Ppa> ppa = mapping_.lookup(lba);
        if (!ppa)
            continue;
        ++mapped;
        const auto [chip, addr] = decodePpa(*ppa);
        if (!chips_[chip].blocks.isValid(addr.block, pageInBlock(addr)))
            panic("consistency: LBA %llu maps to invalid page",
                  static_cast<unsigned long long>(lba));
        const Lba held = tokenLba(units_[chip].chip().pageToken(addr));
        if (held == kInvalidLba)
            panic("consistency: LBA %llu maps to an erased page",
                  static_cast<unsigned long long>(lba));
        if (held != lba)
            panic("consistency: LBA %llu maps to a page whose token "
                  "carries LBA %llu",
                  static_cast<unsigned long long>(lba),
                  static_cast<unsigned long long>(held));
    }
    std::uint64_t valid = 0;
    for (const Chip &c : chips_)
        valid += c.blocks.totalValid();
    if (valid != mapped)
        panic("consistency: %llu valid pages vs %llu mapped LBAs",
              static_cast<unsigned long long>(valid),
              static_cast<unsigned long long>(mapped));
    if (mapping_.mappedCount() != mapped)
        panic("consistency: mapping counts %llu mapped LBAs, holds %llu",
              static_cast<unsigned long long>(mapping_.mappedCount()),
              static_cast<unsigned long long>(mapped));
    for (const Chip &c : chips_)
        c.blocks.checkConsistency();

    // A host flush is in flight only in a pooled batch or parked.
    const bool parked = std::any_of(
        chips_.begin(), chips_.end(),
        [](const Chip &c) { return !c.parked.empty(); });
    buffer_.checkConsistency(batchPool_.inUse() != 0 || parked);

    // The FTL's wear bookkeeping must track the chips' runtime erase
    // counts — the low half of the aging epoch that gates cached
    // leader parameters (cubeFTL) and model terms (ErrorTermCache).
    // The chip counter leads by at most one: it increments when the
    // die executes the erase, the BlockManager's on the completion
    // event (release). Retired blocks are exempt: a failed erase still
    // bumps the chip counter, but the block never returns through
    // release().
    for (std::uint32_t chip = 0; chip < chipCount(); ++chip) {
        const auto &mgr = chips_[chip].blocks;
        const auto &model = units_[chip].chip();
        for (std::uint32_t b = 0; b < geom_.blocksPerChip; ++b) {
            const BlockInfo &info = mgr.info(b);
            if (info.isBad)
                continue;
            const PeCycles onChip = model.eraseCount(b);
            if (info.eraseCount != onChip &&
                info.eraseCount + 1 != onChip)
                panic("consistency: chip %u block %u erase count %u "
                      "(FTL) vs %u (chip)",
                      chip, b, info.eraseCount, onChip);
        }
    }
}

}  // namespace cubessd::ftl
