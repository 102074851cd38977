#include "src/prof/prof.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <ostream>
#include <string>
#include <vector>

#include "src/metrics/json.h"
#include "src/metrics/report.h"
#include "src/trace/counters.h"

namespace cubessd::prof {

namespace detail {

constinit thread_local ThreadState t_state = {};
bool g_enabled = false;
// Default: time 1 scope hit in 16 (counts stay exact). See the
// declaration for the rationale; tests that assert exact times call
// setSamplePeriod(1).
std::uint32_t g_sampleMask = 15;

}  // namespace detail

namespace {

constexpr std::array<const char *, kSlotCount> kSlotNames = {
    "sim.loop",
    "sched.generic",
    "sched.chip_op",
    "sched.request_complete",
    "sched.read_piece",
    "sched.host_admit",
    "sched.driver_tick",
    "sched.tenant_arrival",
    "nand.read",
    "nand.read.ber_eval",
    "nand.read.decode",
    "nand.read.retry",
    "nand.program",
    "nand.program.ispp",
    "nand.erase",
    "nand.fault_check",
    "nand.term_fill",
    "ftl.mapping",
    "ftl.ort_lookup",
    "ftl.opm",
    "ftl.gc",
    "ssd.bus_transfer",
    "ssd.host_queue",
    "ssd.arbiter",
    "obs.metrics_trace",
};

#ifdef CUBESSD_PROF_TSC
/** Calibration anchor: a (tsc, steady_clock) pair captured together.
 *  nsPerTick() divides the elapsed ns by the elapsed ticks since the
 *  anchor; setEnabled() re-anchors so the baseline interval is the
 *  profiled run itself (long interval -> accurate ratio). */
struct Anchor
{
    std::uint64_t tsc;
    std::chrono::steady_clock::time_point steady;
};

Anchor g_anchor = {0, {}};

Anchor
captureAnchor()
{
    return {detail::nowTicks(), std::chrono::steady_clock::now()};
}
#endif

double
slotSelf(const detail::SlotAccum &a)
{
    return static_cast<double>(a.ticks -
                               std::min(a.childTicks, a.ticks));
}

}  // namespace

const char *
slotName(Slot slot)
{
    return kSlotNames[static_cast<std::size_t>(slot)];
}

bool
compiledIn()
{
#ifdef CUBESSD_PROFILING
    return true;
#else
    return false;
#endif
}

void
setEnabled(bool on)
{
#ifdef CUBESSD_PROF_TSC
    if (on)
        g_anchor = captureAnchor();
#endif
    detail::g_enabled = on;
}

void
setSamplePeriod(std::uint32_t period)
{
    std::uint32_t pow2 = 1;
    while (pow2 < period && pow2 < (1u << 30))
        pow2 <<= 1;
    detail::g_sampleMask = pow2 - 1;
}

std::uint32_t
samplePeriod()
{
    return detail::g_sampleMask + 1;
}

double
nsPerTick()
{
#ifdef CUBESSD_PROF_TSC
    Anchor now = captureAnchor();
    // Require a baseline of >= 1 ms between anchor and now so the
    // ratio is insensitive to the capture jitter of either endpoint.
    while (std::chrono::duration_cast<std::chrono::nanoseconds>(
               now.steady - g_anchor.steady)
               .count() < 1'000'000)
        now = captureAnchor();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                now.steady - g_anchor.steady)
                                .count());
    const double ticks = static_cast<double>(now.tsc - g_anchor.tsc);
    return ticks > 0.0 ? ns / ticks : 1.0;
#else
    return 1.0;  // nowTicks() already returns nanoseconds
#endif
}

void
resetThread()
{
    detail::t_state = {};
}

void
ProfileData::merge(const ProfileData &other)
{
    for (std::size_t i = 0; i < kSlotCount; ++i) {
        slots[i].count += other.slots[i].count;
        slots[i].ticks += other.slots[i].ticks;
        slots[i].childTicks += other.slots[i].childTicks;
    }
}

ProfileData
ProfileData::since(const ProfileData &earlier) const
{
    auto minus = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };
    ProfileData d;
    for (std::size_t i = 0; i < kSlotCount; ++i) {
        d.slots[i].count = minus(slots[i].count, earlier.slots[i].count);
        d.slots[i].ticks = minus(slots[i].ticks, earlier.slots[i].ticks);
        d.slots[i].childTicks =
            minus(slots[i].childTicks, earlier.slots[i].childTicks);
    }
    return d;
}

std::uint64_t
ProfileData::count(Slot slot) const
{
    return slots[static_cast<std::size_t>(slot)].count;
}

std::uint64_t
ProfileData::totalTicks(Slot slot) const
{
    return slots[static_cast<std::size_t>(slot)].ticks;
}

std::uint64_t
ProfileData::selfTicks(Slot slot) const
{
    const auto &a = slots[static_cast<std::size_t>(slot)];
    return a.ticks - std::min(a.childTicks, a.ticks);
}

std::uint64_t
ProfileData::selfTicksSum() const
{
    std::uint64_t sum = 0;
    for (const auto &a : slots)
        sum += a.ticks - std::min(a.childTicks, a.ticks);
    return sum;
}

bool
ProfileData::empty() const
{
    for (const auto &a : slots)
        if (a.count != 0)
            return false;
    return true;
}

ProfileData
snapshot()
{
    // Sampled tick sums scale back up by the sampling period here, so
    // every ProfileData consumer (since/merge/report/writeJson) sees
    // estimated-total ticks and needs no knowledge of the sampling.
    // Counts are exact and never scaled.
    const std::uint64_t period = detail::g_sampleMask + 1;
    ProfileData d;
    for (std::size_t i = 0; i < kSlotCount; ++i) {
        d.slots[i].count = detail::t_state.slots[i].count;
        d.slots[i].ticks = detail::t_state.slots[i].ticks * period;
        d.slots[i].childTicks =
            detail::t_state.slots[i].childTicks * period;
    }
    return d;
}

namespace {

/** Slot indices of `data` ranked by self time (desc), zero-hit slots
 *  removed. */
std::vector<std::size_t>
rankBySelf(const ProfileData &data)
{
    std::vector<std::size_t> order;
    order.reserve(kSlotCount);
    for (std::size_t i = 0; i < kSlotCount; ++i)
        if (data.slots[i].count != 0)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return slotSelf(data.slots[a]) >
                                slotSelf(data.slots[b]);
                     });
    return order;
}

}  // namespace

void
report(std::ostream &out, const ProfileData &data, double wallNs,
       std::size_t topN)
{
    const double nsTick = nsPerTick();
    const std::vector<std::size_t> order = rankBySelf(data);

    out << "Self-profile (host wall-clock cost attribution)\n";
    if (wallNs > 0.0) {
        const double covered =
            static_cast<double>(data.selfTicksSum()) * nsTick;
        out << "  wall " << metrics::format(wallNs / 1e6, 1)
            << " ms, attributed "
            << metrics::formatPercent(covered / wallNs) << "\n";
    }

    metrics::Table t({"slot", "count", "total ms", "ns/call",
                      "self ms", "% wall"});
    std::size_t shown = 0;
    for (std::size_t i : order) {
        if (shown++ == topN)
            break;
        const auto &a = data.slots[i];
        const double totalNs = static_cast<double>(a.ticks) * nsTick;
        const double selfNs = slotSelf(a) * nsTick;
        t.row({kSlotNames[i], std::to_string(a.count),
               metrics::format(totalNs / 1e6, 2),
               metrics::format(totalNs /
                                   static_cast<double>(a.count),
                               1),
               metrics::format(selfNs / 1e6, 2),
               wallNs > 0.0 ? metrics::formatPercent(selfNs / wallNs)
                            : std::string("-")});
    }
    t.print(out);
}

void
writeJson(metrics::JsonWriter &w, const ProfileData &data,
          double wallNs)
{
    const double nsTick = nsPerTick();
    const std::vector<std::size_t> order = rankBySelf(data);
    const double covered =
        static_cast<double>(data.selfTicksSum()) * nsTick;

    w.beginObject();
    w.field("ns_per_tick", nsTick);
    w.field("sample_period",
            static_cast<std::uint64_t>(samplePeriod()));
    w.field("wall_ns", wallNs);
    w.field("coverage", wallNs > 0.0 ? covered / wallNs : 0.0);
    w.key("slots").beginArray();
    for (std::size_t i : order) {
        const auto &a = data.slots[i];
        const double totalNs = static_cast<double>(a.ticks) * nsTick;
        const double selfNs = slotSelf(a) * nsTick;
        w.beginObject();
        w.field("name", kSlotNames[i]);
        w.field("count", a.count);
        w.field("total_ns", totalNs);
        w.field("self_ns", selfNs);
        w.field("ns_per_call",
                totalNs / static_cast<double>(a.count));
        w.field("self_ns_per_call",
                selfNs / static_cast<double>(a.count));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
registerCounters(trace::CounterRegistry &reg)
{
    // One cumulative self-time gauge per top-level group. The probe
    // runs on the simulation thread during counter sampling, so it
    // reads that thread's own accumulators — no cross-thread access.
    struct Group
    {
        const char *name;
        const char *prefix;
    };
    static constexpr Group kGroups[] = {
        {"prof.sim_self_ms", "sim."},   {"prof.sched_self_ms", "sched."},
        {"prof.nand_self_ms", "nand."}, {"prof.ftl_self_ms", "ftl."},
        {"prof.ssd_self_ms", "ssd."},   {"prof.obs_self_ms", "obs."},
    };
    for (const Group &g : kGroups) {
        const std::string prefix = g.prefix;
        reg.add(g.name, "ms", [prefix](SimTime) {
            // Live accumulators hold SAMPLED ticks; scale by the
            // period like snapshot() does.
            const double nsTick =
                nsPerTick() * static_cast<double>(samplePeriod());
            double selfNs = 0.0;
            for (std::size_t i = 0; i < kSlotCount; ++i) {
                const std::string name = kSlotNames[i];
                if (name.rfind(prefix, 0) == 0)
                    selfNs +=
                        slotSelf(detail::t_state.slots[i]) * nsTick;
            }
            return selfNs / 1e6;
        });
    }
}

}  // namespace cubessd::prof
