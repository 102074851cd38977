#include "src/ssd/chip_unit.h"

#include <span>

#include "src/common/logging.h"
#include "src/prof/prof.h"
#include "src/trace/trace.h"

namespace cubessd::ssd {

void
ChipUnit::enqueue(const NandOp &op)
{
    if (!busy_ && pending_.empty()) {
        // Idle die, nothing older waiting: start in place instead of
        // a round trip through the ring. (Idle with ops waiting only
        // happens inside a completion callback; those ops go first.)
        busy_ = true;
        Slot &slot = slots_[active_];
        slot.op = op;
        execute(slot);
        return;
    }
    // The op waits behind a busy die: fetch the chip state its read
    // will touch meanwhile.
    if (op.kind == NandOp::Kind::Read)
        chip_.prefetchRead(op.page);
    if (op.highPriority)
        pending_.push_front(op);
    else
        pending_.push_back(op);
    tryStart();
}

void
ChipUnit::tryStart()
{
    if (busy_ || pending_.empty())
        return;
    busy_ = true;
    Slot &slot = slots_[active_];
    slot.op = pending_.front();
    pending_.pop_front();
    execute(slot);
}

void
ChipUnit::execute(Slot &slot)
{
    const SimTime now = queue_->now();
    const auto &geom = chip_.geometry();
    const auto &timing = chip_.timing();

    // Each case writes every field its kind defines (NandOpResult);
    // the rest keep whatever the slot's previous op left there.
    const NandOp &op = slot.op;
    NandOpResult &result = slot.result;
    result.start = now;

    switch (op.kind) {
      case NandOp::Kind::Read: {
        result.read =
            chip_.readPage(op.page, op.readShiftMv, op.readSoftHint);
        const SimTime senseEnd = now + result.read.tRead;
        const SimTime tx = timing.busTransferTime(geom.pageSizeBytes);
        const SimTime txStart = channel_->reserve(senseEnd, tx, "xfer_out");
        result.busTime = tx;
        result.dieTime = result.read.tRead;
        result.end = txStart + tx;
        break;
      }
      case NandOp::Kind::Program: {
        const SimTime tx = timing.busTransferTime(
            static_cast<std::uint64_t>(geom.pageSizeBytes) *
            op.tokenCount);
        const SimTime txStart = channel_->reserve(now, tx, "xfer_in");
        result.program = chip_.programWl(
            op.wl, op.cmd, std::span(op.tokens, op.tokenCount));
        result.busTime = tx;
        result.dieTime = result.program.tProg;
        result.end = txStart + tx + result.program.tProg;
        break;
      }
      case NandOp::Kind::Erase: {
        result.busTime = 0;
        result.dieTime = chip_.eraseBlock(op.block, &result.eraseFailed);
        result.end = now + result.dieTime;
        break;
      }
    }

    if (trace_ != nullptr)
        recordOp(op, result);

    queue_->scheduleAt(result.end, sim::EventKind::ChipOpComplete, this);
}

void
ChipUnit::onEvent(sim::EventKind, const sim::EventPayload &)
{
    // Flip the active slot *before* the callback: the listener may
    // enqueue a new operation, which starts immediately on the
    // now-idle die and writes the other slot — the completed record
    // stays valid for the whole delivery without copying it out.
    Slot &done = slots_[active_];
    active_ ^= 1;
    busy_ = false;
    busyTime_ += done.result.end - done.result.start;
    if (done.op.listener != nullptr)
        done.op.listener->onNandOpComplete(done.op, done.result);
    tryStart();
}

/**
 * Emit the die-occupancy span of one operation, annotated with the
 * paper's PS mechanisms: the h-layer, the leader/follower role, how
 * many verify pulses the follower skipped, and how far below MaxLoop
 * the ISPP terminated (vfy_skipped / loops_saved are where the
 * follower tPROG cut shows up on the timeline), plus the retry count
 * that the ORT eliminates on reads.
 */
void
ChipUnit::recordOp(const NandOp &op, const NandOpResult &result)
{
    PROF_SCOPE(prof::Slot::ObsMetricsTrace);
    const SimTime dur = result.end - result.start;
    switch (op.kind) {
      case NandOp::Kind::Read:
        // GC scan reads enqueue at normal priority; host reads jump
        // the queue — use that to label the span's origin.
        trace_->complete(
            track_, op.highPriority ? "read" : "gc_scan_read",
            result.start, dur,
            {{"block", op.page.block},
             {"layer", op.page.layer},
             {"retries", result.read.numRetries},
             {"retry_ns", static_cast<std::int64_t>(result.read.tRetry)},
             {"uncorrectable", result.read.uncorrectable ? 1 : 0}});
        break;
      case NandOp::Kind::Program: {
        const int maxLoops = chip_.ispp().config().maxLoops();
        trace_->complete(
            track_, op.tagGc ? "gc_program" : "program",
            result.start, dur,
            {{"block", op.wl.block},
             {"layer", op.wl.layer},
             {"leader", op.tagLeader ? 1 : 0},
             {"vfy_skipped", result.program.verifiesSkipped},
             {"loops_saved", maxLoops - result.program.loopsUsed},
             {"failed", result.program.failed ? 1 : 0}});
        break;
      }
      case NandOp::Kind::Erase:
        trace_->complete(track_, "erase", result.start, dur,
                         {{"block", op.block},
                          {"failed", result.eraseFailed ? 1 : 0}});
        break;
    }
}

}  // namespace cubessd::ssd
