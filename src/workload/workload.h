/**
 * @file
 * Synthetic workload generation.
 *
 * The paper evaluates with four Filebench personalities (Mail, Web,
 * Proxy, OLTP) and two YCSB-A database workloads (RocksDB, MongoDB).
 * We do not ship those applications; instead each workload is reduced
 * to the first-order traits that determine FTL behaviour — read/write
 * mix, request-size distribution, address locality (Zipf skew over a
 * working set), burstiness, and sequential-write tendency — and a
 * generator reproduces a request stream with those traits
 * (substitution documented in DESIGN.md Sec. 2).
 */

#ifndef CUBESSD_WORKLOAD_WORKLOAD_H
#define CUBESSD_WORKLOAD_WORKLOAD_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/zipf.h"
#include "src/ssd/request.h"

namespace cubessd::workload {

/** First-order traits of one workload. */
struct WorkloadSpec
{
    std::string name;
    double readFraction = 0.5;      ///< P(request is a read)
    std::uint32_t minPages = 1;     ///< read size range (16 KB pages)
    std::uint32_t maxPages = 1;
    /** Write size range; 0 = same as the read range. File-serving
     *  workloads read whole objects but write smaller updates. */
    std::uint32_t minWritePages = 0;
    std::uint32_t maxWritePages = 0;
    double zipfTheta = 0.9;         ///< address popularity skew
    double workingSetFraction = 0.5;///< of the logical address space
    /** Sequential append tendency of writes (LSM flush/compaction). */
    double sequentialWriteFraction = 0.0;
    /** Requests per burst *per thread*; 0 = steady stream. */
    std::uint32_t burstLength = 0;
    /** Mean host idle time between a thread's bursts (exponential). */
    SimTime interBurstGap = 0;
    /** Independent host threads issuing bursts (bursty mode). */
    std::uint32_t threads = 8;
    /** Outstanding requests the host keeps in flight (steady mode). */
    std::uint32_t queueDepth = 32;
};

/** @name The paper's six evaluation workloads @{ */
WorkloadSpec mail();   ///< mail server: fsync-heavy small writes
WorkloadSpec web();    ///< web server: read-dominant
WorkloadSpec proxy();  ///< proxy cache: read-mostly, bursty fills
WorkloadSpec oltp();   ///< OLTP DB: most write-intensive, bursty
WorkloadSpec rocks();  ///< RocksDB under YCSB-A (50/50, zipfian)
WorkloadSpec mongo();  ///< MongoDB under YCSB-A (50/50, zipfian)
/** All six, in the paper's figure order. */
std::vector<WorkloadSpec> allWorkloads();
/** @} */

/** @name Multi-tenant stressor personalities (not paper workloads) @{ */
/** Read-latency-sensitive tenant: ~95% small skewed reads (the
 *  STRAW-style read-hot stream whose p99.9 QoS the arbiter must
 *  protect). */
WorkloadSpec readhot();
/** Write-bandwidth tenant: ~90% writes with an append component —
 *  the noisy neighbour that fills the write buffer and triggers GC. */
WorkloadSpec writeheavy();
/** @} */

/**
 * Look up a workload personality by case-insensitive name (the six
 * paper workloads plus readhot/writeheavy).
 * @return the spec, or std::nullopt for an unknown name.
 */
std::optional<WorkloadSpec> findWorkload(const std::string &name);

/**
 * Stateful request generator for one workload on one device size.
 * Does not assign ids or arrival times — the driver owns pacing.
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(const WorkloadSpec &spec,
                      std::uint64_t logicalPages, std::uint64_t seed);

    const WorkloadSpec &spec() const { return spec_; }

    /** Produce the next request (id/arrival left zero). */
    ssd::HostRequest next();

    /** Pages in the working set (prefill wants to cover these). */
    std::uint64_t workingSetPages() const { return workingSet_; }

    /** The working set `spec` spans on a device of `logicalPages`,
     *  without building a generator. */
    static std::uint64_t workingSetPages(const WorkloadSpec &spec,
                                         std::uint64_t logicalPages);

  private:
    Lba sampleLba(std::uint32_t pages, bool isRead);

    WorkloadSpec spec_;
    std::uint64_t logicalPages_;
    std::uint64_t workingSet_;
    Rng rng_;
    ZipfGenerator zipf_;
    Lba seqCursor_ = 0;
};

}  // namespace cubessd::workload

#endif  // CUBESSD_WORKLOAD_WORKLOAD_H
