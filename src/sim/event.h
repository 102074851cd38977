/**
 * @file
 * Typed simulation events.
 *
 * The hot path of the simulator schedules *typed* event records: an
 * EventKind discriminator, a target object implementing EventHandler,
 * and a small POD payload union. Dispatch is one virtual call on the
 * target — no std::function type erasure and no per-event heap
 * allocation (records live in the EventQueue's free-list pool).
 *
 * The payload union members are deliberately declared here, next to
 * the kind enum, so the full event vocabulary of the simulator is
 * visible in one place; the sim layer itself depends only on POD
 * types (targets are opaque `void *` / EventHandler pointers that the
 * owning subsystem casts back).
 */

#ifndef CUBESSD_SIM_EVENT_H
#define CUBESSD_SIM_EVENT_H

#include <cstdint>

#include "src/common/types.h"

namespace cubessd::sim {

/** Discriminator of a typed event record. */
enum class EventKind : std::uint8_t
{
    /** Event without a dedicated kind (tests, one-off handlers). */
    Generic = 0,
    /** A NAND die finished its current operation (target: ChipUnit;
     *  the unit holds the in-flight op, so no payload is needed). */
    ChipOpComplete,
    /** A host request completes back to its CompletionSink after a
     *  DRAM-buffer service or an immediate status (target: Ftl). */
    RequestComplete,
    /** One page of a multi-page host read finished its DRAM service
     *  (buffer hit / unmapped page; target: Ftl). */
    ReadPieceDone,
    /** A submitted request reaches its arrival time and enters the
     *  host queue (target: HostQueue). */
    HostAdmit,
    /** A workload driver thread wakes up to fire its next burst
     *  (target: workload::Driver). */
    DriverTick,
    /** An open-loop tenant stream reaches its next arrival epoch
     *  (target: workload::MultiTenantDriver). */
    TenantArrival,
};

/**
 * Per-kind event payload. POD union: members may only hold trivially
 * copyable data (pointers, integers, times) — events are pooled and
 * copied by value at dispatch.
 */
union EventPayload
{
    /** Uninterpreted scratch view (also the zero-initializer). */
    struct Raw
    {
        void *p0;
        void *p1;
        std::uint64_t u0;
        std::uint64_t u1;
        std::uint64_t u2;
        std::uint64_t u3;
    } raw;

    /** EventKind::RequestComplete. */
    struct RequestComplete
    {
        void *sink;            ///< ssd::CompletionSink *
        std::uint64_t sinkCtx;
        std::uint64_t id;
        SimTime arrival;
        std::uint32_t pages;
        std::uint8_t type;     ///< ssd::IoType
        std::uint8_t status;   ///< ssd::Status
        SimTime bufferPhase;   ///< DRAM service time to attribute
    } requestComplete;

    /** EventKind::ReadPieceDone. */
    struct ReadPiece
    {
        void *ctx;             ///< Ftl read-context (pooled)
    } readPiece;

    /** EventKind::HostAdmit. */
    struct HostAdmit
    {
        void *sink;            ///< ssd::CompletionSink *
        std::uint64_t sinkCtx;
        std::uint64_t id;
        std::uint64_t lba;
        SimTime arrival;
        std::uint32_t pages;
        std::uint8_t type;     ///< ssd::IoType
        std::uint16_t tenant;  ///< ssd::TenantId
        std::uint16_t namespaceId;
    } hostAdmit;

    /** EventKind::DriverTick. */
    struct DriverTick
    {
        std::uint32_t thread;
    } driverTick;

    /** EventKind::TenantArrival. */
    struct TenantArrival
    {
        std::uint32_t tenant;  ///< tenant stream index (0-based)
    } tenantArrival;

    EventPayload() : raw{} {}
};

static_assert(sizeof(EventPayload) <= 64,
              "event payloads must stay register/cacheline friendly");

/**
 * Target of a typed event. Implemented by the scheduling layers
 * (ChipUnit, HostQueue, Ftl, Driver); `kind` tells a multi-kind
 * handler which payload member is live.
 */
class EventHandler
{
  public:
    virtual void onEvent(EventKind kind, const EventPayload &payload) = 0;

  protected:
    ~EventHandler() = default;
};

}  // namespace cubessd::sim

#endif  // CUBESSD_SIM_EVENT_H
