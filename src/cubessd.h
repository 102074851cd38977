/**
 * @file
 * Umbrella header for the cubeSSD library.
 *
 * cubeSSD reproduces "Exploiting Process Similarity of 3D Flash Memory
 * for High Performance SSDs" (MICRO-52, 2019): a behavioural 3D TLC
 * NAND model with the paper's process similarity/variability
 * structure, a discrete-event SSD simulator, and four FTLs (pageFTL,
 * vertFTL, cubeFTL, cubeFTL-).
 *
 * Typical entry points:
 *  - whole-device simulation: ssd::Ssd + workload::Driver
 *  - multi-tenant runs: workload::MultiTenantDriver (per-tenant
 *    submission queues + ssd::WrrArbiter)
 *  - chip-level characterization: nand::NandChip
 *
 * API conventions:
 *  - Maybe-absent lookups return std::optional, never sentinel
 *    values: ssd::Ssd::peek, ftl::MappingTable::lookup/map,
 *    ftl::WriteBuffer::lookup and ftl::Ort::lookup all follow this
 *    idiom — `if (auto v = x.lookup(k)) use(*v);`. Raw kInvalidPpa /
 *    kInvalidLba sentinels appear only inside packed storage (L2P
 *    arrays, FlushEntry padding, the LBA ftl::tokenLba reads from an
 *    erased page's data token), not across other call boundaries.
 *  - Completions never fail silently: every ssd::Completion carries a
 *    ssd::Status (Ok, Uncorrectable, ProgramFailed, ReadOnly,
 *    Rejected); hosts check `c.ok()` instead of assuming success.
 *  - Submission is typed: production code implements
 *    ssd::CompletionSink and calls ssd::Ssd::submit(req, &sink, ctx)
 *    — the single host entry point, one virtual call per completion
 *    and no closure allocation. One-shot callers use submitSync().
 *  - Tenancy is a tag, not a fork of the pipeline: HostRequest carries
 *    tenant/namespaceId (kNoTenant = untagged single-tenant paths),
 *    the pipeline threads the tag through to Completion::tenant and
 *    the trace spans untouched, and all per-tenant accounting
 *    (workload::MultiTenantDriver, ssd::WrrArbiter) keys off it.
 */

#ifndef CUBESSD_CUBESSD_H
#define CUBESSD_CUBESSD_H

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/common/zipf.h"
#include "src/ecc/ecc.h"
#include "src/ftl/ftl.h"
#include "src/ftl/program_order.h"
#include "src/metrics/histogram.h"
#include "src/metrics/json.h"
#include "src/metrics/report.h"
#include "src/metrics/request_metrics.h"
#include "src/nand/chip.h"
#include "src/sim/event_queue.h"
#include "src/ssd/arbiter.h"
#include "src/ssd/ssd.h"
#include "src/trace/counters.h"
#include "src/trace/trace.h"
#include "src/workload/driver.h"
#include "src/workload/multi_tenant.h"
#include "src/workload/tenant.h"
#include "src/workload/trace.h"
#include "src/workload/workload.h"

#endif  // CUBESSD_CUBESSD_H
