/**
 * @file
 * Per-chip operation scheduler.
 *
 * A NAND die executes one command at a time. ChipUnit owns the die's
 * behavioural chip model and a queue of pending operations: normal
 * operations (programs, erases, GC scan reads) run first-in, first-out,
 * and a high-priority operation (a host read) goes to the front, so
 * host reads overtake everything else and, among themselves, run
 * newest first (ROADMAP.md, "Host reads are served newest-first"). It
 * executes the chip model when an operation starts, accounts for
 * channel (bus) occupancy, and fires a completion through the event
 * queue:
 *
 *  - Read:    [sense (die)] -> [transfer out (bus)]
 *  - Program: [transfer in (bus)] -> [ISPP (die)]
 *  - Erase:   [erase (die)]
 *
 * The die is considered busy for the whole span of the operation
 * (including its bus phase).
 *
 * A unit is a plain value: its copy carries the chip and the queue
 * state, and its two links (the channel and the event queue) are
 * pointers that the owning device sets with wire().
 *
 * Completions are delivered through the NandOpListener interface (one
 * virtual call) rather than a per-op closure, and NandOp itself is a
 * flat POD record — enqueueing and completing an operation allocates
 * nothing. Program payloads are passed as a pointer + count into
 * storage the submitter keeps alive until the completion fires (the
 * FTL's pooled flush batches).
 */

#ifndef CUBESSD_SSD_CHIP_UNIT_H
#define CUBESSD_SSD_CHIP_UNIT_H

#include <cstdint>

#include "src/common/ring_deque.h"
#include "src/nand/chip.h"
#include "src/sim/event_queue.h"
#include "src/ssd/channel.h"

namespace cubessd::ssd {

/** Result of one scheduled NAND operation. The four times are set
 *  for every kind; of the last three fields only the one valid for
 *  the op's kind is, the others hold stale values. */
struct NandOpResult
{
    SimTime start = 0;   ///< when the die began the operation
    SimTime end = 0;     ///< when the die became free again
    SimTime busTime = 0; ///< channel occupancy of this operation
    SimTime dieTime = 0; ///< on-die time (sense+decode / ISPP / erase)
    nand::ReadOutcome read{};          ///< valid for reads
    nand::WlProgramResult program{};   ///< valid for programs
    bool eraseFailed = false;          ///< valid for erases (status fail)
};

struct NandOp;

/** Receiver of NAND operation completions. */
class NandOpListener
{
  public:
    /** `op` is the operation as enqueued (its `ctx` identifies the
     *  submitter's state); valid only for the duration of the call. */
    virtual void onNandOpComplete(const NandOp &op,
                                  const NandOpResult &result) = 0;

  protected:
    ~NandOpListener() = default;
};

/** One pending chip operation (flat POD; copied by value). */
struct NandOp
{
    enum class Kind { Read, Program, Erase };

    Kind kind = Kind::Read;
    nand::PageAddr page{};     ///< Read
    nand::WlAddr wl{};         ///< Program
    std::uint32_t block = 0;   ///< Erase
    MilliVolt readShiftMv = 0;
    bool readSoftHint = false;
    nand::ProgramCommand cmd{};
    /** Program payload: `tokenCount` tokens at `tokens`. The storage
     *  must stay valid until the completion fires. */
    const std::uint64_t *tokens = nullptr;
    std::uint32_t tokenCount = 0;
    /** Completion target + opaque submitter context. */
    NandOpListener *listener = nullptr;
    std::uint64_t ctx = 0;
    /** Submitting chip index (for listeners serving many chips). */
    std::uint32_t chip = 0;
    bool highPriority = false;  ///< queue ahead of normal ops (reads)
    /** The op is a GC scan read, relocation program or victim erase
     *  (set by the FTL; also a trace annotation on programs). */
    bool tagGc = false;
    /** Trace annotation (observation only, set by the FTL): the
     *  program counts as a leader WL. */
    bool tagLeader = false;
};

class ChipUnit final : public sim::EventHandler
{
  public:
    /** A unit owning a chip built from `config`; wire() it before
     *  enqueueing. */
    explicit ChipUnit(const nand::NandChipConfig &config) : chip_(config) {}

    /** Link the unit to its channel and the device's event queue. */
    void
    wire(Channel &channel, sim::EventQueue &queue)
    {
        channel_ = &channel;
        queue_ = &queue;
    }

    /** Enqueue an operation; starts immediately if the die is idle
     *  and no older op waits. */
    void enqueue(const NandOp &op);

    bool idle() const { return !busy_ && pending_.empty(); }
    std::size_t queueDepth() const { return pending_.size(); }

    /** Total time the die has been busy (whole operation spans,
     *  including their bus phases) — for utilization stats. Mutated
     *  only from the non-const completion path (see the Ort
     *  stats-counter convention). */
    SimTime busyTime() const { return busyTime_; }

    /** Fold the chip, the die's queue state and counters in. */
    void
    hashState(StateHash &h) const
    {
        chip_.hashState(h);
        h.add(busy_).add(active_).add(pending_.size());
        h.add(busyTime_);
    }

    nand::NandChip &chip() { return chip_; }
    const nand::NandChip &chip() const { return chip_; }

    /** Record die-op occupancy spans on `track` (observation only). */
    void
    setTrace(trace::TraceSession *session, std::uint32_t track)
    {
        trace_ = session;
        track_ = track;
    }

    /** sim::EventHandler: the in-flight operation's end time arrived. */
    void onEvent(sim::EventKind kind,
                 const sim::EventPayload &payload) override;

  private:
    /** In-flight operation and its outcome, kept together so the
     *  completion path touches one record. Double-buffered: the
     *  listener callback may enqueue a new op, which starts on the
     *  now-idle die and must not overwrite the record still being
     *  delivered — the active slot flips *before* the callback, so the
     *  re-entrant start writes the other slot and no copies are made. */
    struct Slot
    {
        NandOp op{};
        NandOpResult result{};
    };

    void tryStart();
    void execute(Slot &slot);
    void recordOp(const NandOp &op, const NandOpResult &result);

    nand::NandChip chip_;
    Channel *channel_ = nullptr;        ///< link, set by wire()
    sim::EventQueue *queue_ = nullptr;  ///< link, set by wire()
    RingDeque<NandOp> pending_;
    bool busy_ = false;
    Slot slots_[2];
    int active_ = 0;
    SimTime busyTime_ = 0;
    trace::TraceSession *trace_ = nullptr;
    std::uint32_t track_ = 0;
};

}  // namespace cubessd::ssd

#endif  // CUBESSD_SSD_CHIP_UNIT_H
