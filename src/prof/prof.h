/**
 * @file
 * Self-profiling: wall-clock cost attribution for the simulator's own
 * hot paths.
 *
 * Perfetto traces (src/trace/) record *simulated* time; this subsystem
 * answers the other question — where does HOST CPU time go while the
 * simulator runs? Which of the paper's mechanisms (BER evaluation,
 * ISPP loop math, read-retry walks, ORT/OPM lookups) dominate the
 * per-event budget, and is the scheduler or the model the bottleneck?
 *
 * Design constraints, in priority order:
 *
 *  1. Zero overhead when off. `PROF_SCOPE` compiles to nothing unless
 *     the CUBESSD_PROFILING compile definition is set (CMake option,
 *     default ON), and with it set but profiling not enabled at
 *     runtime (`--profile`), a scope costs one predictable branch on
 *     a plain bool.
 *  2. No allocations, no locks on the hot path. Slots are a fixed
 *     compile-time enum; accumulators are preallocated thread_local
 *     arrays; timestamps are raw TSC reads (x86-64) or steady_clock
 *     (elsewhere), calibrated to nanoseconds only at report time —
 *     and stride-sampled (default 1-in-16, setSamplePeriod) because
 *     even rdtsc is too expensive to pay twice per scope on every
 *     hit at ~7 scopes per simulated event.
 *  3. Deterministic *counts*. Slot hit counts depend only on the
 *     simulation, so a merged sweep profile has bit-identical counts
 *     for any --jobs value; times are wall-clock and machine-noisy by
 *     nature.
 *
 * Attribution model: scopes nest; each ProfScope remembers the
 * innermost open slot as its parent and, on close, charges its
 * duration to its own slot's inclusive time AND to the parent's
 * child time. Exclusive (self) time is inclusive minus child — the
 * number the reports rank by, since inclusive times of nested slots
 * overlap. Slot::SimLoop wraps the event-loop drivers themselves, so
 * its inclusive time ~= the measured wall of a run (coverage check)
 * and its self time is the queue bookkeeping (peek/insert/advance).
 *
 * Thread model: `setEnabled` must be called before sweep workers
 * spawn (thread creation publishes the flag); after that every thread
 * accumulates privately into its own thread_local state and the
 * caller merges per-cell snapshots deterministically in cell order
 * (see workload::runCells).
 */

#ifndef CUBESSD_PROF_PROF_H
#define CUBESSD_PROF_PROF_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define CUBESSD_PROF_TSC 1
#else
#include <chrono>
#endif

namespace cubessd::metrics {
class JsonWriter;
}
namespace cubessd::trace {
class CounterRegistry;
}

namespace cubessd::prof {

/**
 * Fixed instrumentation sites. Names (slotName) use dots for
 * hierarchy; a sub-slot (e.g. nand.read.ber_eval) nests inside its
 * parent site at runtime, so parents' SELF time already excludes it.
 *
 * The Sched* block MUST mirror sim::EventKind's enumerator order —
 * schedSlotFor() maps a kind to its dispatch slot by offset (checked
 * by static_asserts next to the dispatch loop).
 */
enum class Slot : std::uint8_t
{
    SimLoop = 0,           ///< EventQueue::run (drains to empty)
    SchedGeneric,          ///< dispatch of EventKind::Generic
    SchedChipOp,           ///< dispatch of EventKind::ChipOpComplete
    SchedRequestComplete,  ///< dispatch of EventKind::RequestComplete
    SchedReadPiece,        ///< dispatch of EventKind::ReadPieceDone
    SchedHostAdmit,        ///< dispatch of EventKind::HostAdmit
    SchedDriverTick,       ///< dispatch of EventKind::DriverTick
    SchedTenantArrival,    ///< dispatch of EventKind::TenantArrival
    NandRead,              ///< NandChip::readPage
    NandReadBerEval,       ///< ReadModel: shift + normalized-BER math
    NandReadDecode,        ///< ReadModel: full sense/decode walk
    NandReadRetry,         ///< ReadModel: retry portion of the walk
    NandProgram,           ///< NandChip::programWl
    NandProgramIspp,       ///< IsppEngine program loop math
    NandErase,             ///< NandChip::eraseBlock
    NandFaultCheck,        ///< FaultInjector program/erase draws
    NandTermFill,          ///< ErrorTermCache miss: recompute terms
    FtlMapping,            ///< L2P lookups + applyMappings
    FtlOrtLookup,          ///< Ftl ORT lookups (read shift/hint)
    FtlOpm,                ///< OPM/WAM target choice, derive, safety
    FtlGc,                 ///< Ftl GC: start, scan, relocate, erase
    SsdBusTransfer,        ///< Channel::reserve
    SsdHostQueue,          ///< HostQueue admit/start/complete
    SsdArbiter,            ///< WrrArbiter submit/pump/complete
    ObsMetricsTrace,       ///< trace emission + counter sampling +
                           ///< request metrics recording
    kCount
};

inline constexpr std::size_t kSlotCount =
    static_cast<std::size_t>(Slot::kCount);

/** Stable dotted name of a slot ("nand.read.ber_eval"). */
const char *slotName(Slot slot);

/** Dispatch slot for a sim::EventKind raw value (same order). */
constexpr Slot
schedSlotFor(std::uint8_t kind)
{
    return static_cast<Slot>(
        static_cast<std::uint8_t>(Slot::SchedGeneric) + kind);
}

namespace detail {

/** One slot's accumulator; ticks are raw clock units (see nowTicks). */
struct SlotAccum
{
    std::uint64_t count;
    std::uint64_t ticks;       ///< inclusive
    std::uint64_t childTicks;  ///< time spent in nested scopes
};

/** Per-thread accumulator block: fixed storage, no allocation. */
struct ThreadState
{
    SlotAccum slots[kSlotCount];
    std::int32_t current = -1;  ///< innermost open slot index, -1 none
};

/** constinit matters: it guarantees constant initialization, so
 *  cross-TU accesses compile to a direct TLS load instead of a call
 *  through the lazy-init thread wrapper — this is on the per-scope
 *  hot path twice. */
extern constinit thread_local ThreadState t_state;

/** Plain bool on purpose: written once (before any worker thread
 *  exists), then read-only — thread creation publishes it. */
extern bool g_enabled;

/** Timestamp stride-sampling mask (period - 1, period a power of
 *  two). A scope reads the clock only when (count & mask) == 1, and
 *  snapshot() scales sampled ticks back up by the period — counts
 *  stay exact and deterministic, times become unbiased estimates.
 *  Rationale: rdtsc costs ~20 ns on some (virtualized) hosts, and
 *  two reads per scope at ~7 scopes/event would tax the simulator
 *  ~50%+; sampling 1-in-16 cuts that below the 10%% overhead budget.
 *  0 = time every hit (exact; what the accounting tests use). Same
 *  write-before-threads contract as g_enabled. */
extern std::uint32_t g_sampleMask;

/** The fence orders the clock read after every earlier load, so a
 *  cache miss is charged to the scope that issued the load, not to
 *  the next scope that happens to consume the value. */
inline std::uint64_t
nowTicks()
{
#ifdef CUBESSD_PROF_TSC
    _mm_lfence();
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

}  // namespace detail

/** Whether PROF_SCOPE sites were compiled in (CUBESSD_PROFILING). */
bool compiledIn();

/** Runtime switch. Call on the main thread BEFORE any sweep worker
 *  spawns; also (re)anchors the tick->ns calibration. */
void setEnabled(bool on);

/** Timestamp sampling period (power of two; 1 = time every scope
 *  hit). Same main-thread-before-workers contract as setEnabled.
 *  Non-powers of two round up; 0 is treated as 1. */
void setSamplePeriod(std::uint32_t period);

/** Active timestamp sampling period (>= 1). */
std::uint32_t samplePeriod();

inline bool
enabled()
{
    return detail::g_enabled;
}

/** Calibrated nanoseconds per tick (1.0 on non-TSC builds). Samples
 *  the clock pair on every call; cheap, but report-time only. */
double nsPerTick();

/** Zero the calling thread's accumulators. */
void resetThread();

/**
 * A snapshot (or merge, or difference) of slot accumulators. Plain
 * copyable value; ticks convert to ns via nsPerTick() at report time.
 * Tick sums are estimated totals (snapshot() scales the stride-sampled
 * accumulators by the sampling period); counts are always exact.
 */
struct ProfileData
{
    detail::SlotAccum slots[kSlotCount] = {};

    void merge(const ProfileData &other);
    /**
     * This snapshot minus an earlier one, field by field, each
     * difference clamped at zero. For two snapshots of one thread the
     * clamp never engages; for independent profiles (say, the merged
     * profiles of two sweeps, whose noisy tick totals need not be
     * ordered) it keeps a field that went down at 0 instead of
     * wrapping around.
     */
    ProfileData since(const ProfileData &earlier) const;

    std::uint64_t count(Slot slot) const;
    std::uint64_t totalTicks(Slot slot) const;
    /** Exclusive ticks: inclusive minus nested-scope time. */
    std::uint64_t selfTicks(Slot slot) const;
    /** Sum of every slot's exclusive ticks. */
    std::uint64_t selfTicksSum() const;
    bool empty() const;
};

/** Copy of the calling thread's live accumulators. */
ProfileData snapshot();

/**
 * Print the top-N table (count, total, ns/call, self, % of wall)
 * ranked by self time; slots with zero hits are elided. `wallNs` <= 0
 * prints absolute times without the coverage column.
 */
void report(std::ostream &out, const ProfileData &data, double wallNs,
            std::size_t topN = kSlotCount);

/**
 * Emit the profile as a JSON object value (the writer must be
 * positioned where a value is legal): ns_per_tick, wall_ns, coverage
 * (self-sum / wall), and a "slots" array ranked by self time.
 */
void writeJson(metrics::JsonWriter &w, const ProfileData &data,
               double wallNs);

/**
 * Register cumulative self-time gauges (ms of host CPU per subsystem
 * group: sim/sched/nand/ftl/ssd/obs) so profiler data rides the
 * existing Perfetto counter tracks. Probes read the sampling thread's
 * own accumulators — observation-only, no simulator state touched.
 */
void registerCounters(trace::CounterRegistry &reg);

/**
 * RAII scoped timer. Construct with the slot to charge; destruction
 * adds the elapsed ticks to the slot and to the enclosing scope's
 * child time. Use via PROF_SCOPE so disabled builds erase the site.
 */
class ProfScope
{
  public:
    explicit ProfScope(Slot slot)
    {
        if (!detail::g_enabled)
            return;
        ts_ = &detail::t_state;  // one TLS lookup, reused on close
        index_ = static_cast<std::int32_t>(slot);
        parent_ = ts_->current;
        ts_->current = index_;
        auto &accum = ts_->slots[index_];
        ++accum.count;  // exact and deterministic, every hit
        // Read the clock on a 1-in-period stride only (see
        // g_sampleMask). The phase compares against (1 & mask) so a
        // slot's FIRST hit is always timed (rare slots never report
        // zero time) and a mask of 0 times every hit. The
        // parent/current chain is maintained unconditionally — a
        // sampled child must know its parent even when the parent's
        // own hit went unsampled.
        const std::uint32_t mask = detail::g_sampleMask;
        if ((accum.count & mask) == (1u & mask)) {
            timed_ = true;
            t0_ = detail::nowTicks();
        }
    }

    ~ProfScope()
    {
        if (ts_ == nullptr)
            return;
        if (timed_) {
            const std::uint64_t dt = detail::nowTicks() - t0_;
            auto &slot = ts_->slots[index_];
            slot.ticks += dt;
            if (parent_ >= 0)
                ts_->slots[parent_].childTicks += dt;
        }
        ts_->current = parent_;
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    detail::ThreadState *ts_ = nullptr;
    std::uint64_t t0_ = 0;
    std::int32_t index_ = 0;
    std::int32_t parent_ = -1;
    bool timed_ = false;
};

}  // namespace cubessd::prof

#ifdef CUBESSD_PROFILING
#define CUBESSD_PROF_CONCAT2(a, b) a##b
#define CUBESSD_PROF_CONCAT(a, b) CUBESSD_PROF_CONCAT2(a, b)
#define PROF_SCOPE(slot)                                              \
    ::cubessd::prof::ProfScope CUBESSD_PROF_CONCAT(profScope_,        \
                                                   __LINE__)(slot)
#else
#define PROF_SCOPE(slot) static_cast<void>(0)
#endif

#endif  // CUBESSD_PROF_PROF_H
