/**
 * @file
 * Memoization of the deterministic NAND model terms, keyed by per-block
 * *aging epoch*.
 *
 * Every read and program evaluates the same chain of transcendental
 * expressions — ErrorModel::severity / terms (log, pow),
 * VthModel::shiftSevTerm (pow) and the ISPP sigma baseline — whose
 * inputs only change when a block is erased (peCycles grows) or the
 * injected retention state advances (NandChip::setAging). Between
 * those events the values are constants of the block, so the cache
 * keeps them once per block and the hot paths add only the per-WL
 * terms (an address hash and one pow) plus the per-operation RNG
 * jitter.
 *
 * The epoch is a 64-bit generation counter per block:
 *
 *     epoch = (retentionGen << 32) | runtimeEraseCount
 *
 * where retentionGen increments on every setAging call. Erasing a
 * block bumps its erase count and therefore implicitly invalidates its
 * cached terms; no explicit flush is needed anywhere.
 *
 * Bit-identity contract: every value is produced by the *exact*
 * factorized expressions the direct paths delegate to
 * (ErrorModel::terms / normalizedBerFromTerms, VthModel::shiftSevTerm /
 * shiftFromTerms, IsppEngine::effectiveSigma), so cached and direct
 * evaluation yield bitwise-equal doubles — the fig17/fig18 outputs do
 * not move by one ULP. Tests: test_term_cache.cc.
 *
 * Memory: one AgingEntry and one drift multiplier per block (a block
 * occupies exactly one epoch at any simulated time, so one slot gets
 * the same hit rate as any associative scheme) and nothing per WL:
 * each lookup recomputes the per-WL terms (some 50 ns, most of it the
 * pow) where a 40-byte entry per WL was a third of a device's memory.
 * All arrays are sized at construction — lookups never allocate
 * (zero-alloc contract, tests/test_zero_alloc.cc).
 */

#ifndef CUBESSD_NAND_TERM_CACHE_H
#define CUBESSD_NAND_TERM_CACHE_H

#include <cstdint>
#include <vector>

#include "src/common/state_hash.h"
#include "src/common/types.h"
#include "src/nand/error_model.h"
#include "src/nand/geometry.h"
#include "src/nand/ispp.h"
#include "src/nand/process_model.h"
#include "src/nand/vth_model.h"

namespace cubessd::nand {

/**
 * The model terms the read/program hot paths need for one WL at one
 * epoch. (A program also needs ProcessModel::programSpeedMv, which no
 * read does, so the chip evaluates it itself.)
 */
struct WlTerms
{
    double q = 1.0;         ///< ProcessModel::wlQuality (static)
    double severity = 0.0;  ///< ErrorModel::severity(aging)
    double sigma = 0.0;     ///< IsppEngine::effectiveSigma(severity)
    /** VthModel::optimalShiftMv(block, q, aging) — jitter-free. */
    double shiftBase = 0.0;
    /** ErrorModel::normalizedBer(q, aging, chipFactor). */
    double normBase = 0.0;
};

/** Hit/miss counters, surfaced through metrics JSON and Perfetto. */
struct TermCacheCounters
{
    /** Always 0: the cache has no per-WL level. The repo benchmark
     *  (bench/perf/cubessd_bench.cc) still reads both WL counters. */
    std::uint64_t wlHits = 0;
    std::uint64_t wlMisses = 0;  ///< always 0, as wlHits
    std::uint64_t agingHits = 0;
    std::uint64_t agingMisses = 0;
};

/**
 * The cache keeps its own copies of the small error and drift models;
 * the chip's ProcessModel and IsppEngine, which hold per-block tables,
 * come in with each lookup.
 */
class ErrorTermCache
{
  public:
    /** @param process supplies the chip factor (read once). */
    ErrorTermCache(const NandGeometry &geom, const ProcessModel &process,
                   const ErrorModel &errors, const VthModel &vth);

    /** Epoch of a block currently at runtime erase count `eraseCount`. */
    std::uint64_t
    epochOf(PeCycles eraseCount) const
    {
        return (static_cast<std::uint64_t>(retentionGen_) << 32) |
               eraseCount;
    }

    /** Invalidate all epoch-dependent entries (setAging advanced the
     *  chip-wide retention/pre-cycling state). O(1): bumps the
     *  generation, stale tags simply stop matching. */
    void bumpRetentionGen() { ++retentionGen_; }

    /**
     * Model terms of `addr` for a block at `eraseCount` under `aging`
     * (the block's effective aging, as NandChip::blockAging computes
     * it). Refills the block's entry on an epoch miss and evaluates
     * the WL terms from `process` and `ispp`, which must be the models
     * of the chip the cache was built for.
     */
    WlTerms terms(const WlAddr &addr, PeCycles eraseCount,
                  const AgingState &aging, const ProcessModel &process,
                  const IsppEngine &ispp);

    const TermCacheCounters &counters() const { return counters_; }

    /** Fold every entry, the generation and the counters in. */
    void hashState(StateHash &h) const;

    /** Aging-entry hit fraction in [0, 1]; 0 before any lookup. */
    double
    hitRate() const
    {
        const std::uint64_t total =
            counters_.agingHits + counters_.agingMisses;
        return total ? static_cast<double>(counters_.agingHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

  private:
    /** Per-block epoch-dependent terms shared by all its WLs. */
    struct AgingEntry
    {
        std::uint64_t tag = 0;  ///< epoch + 1; 0 = empty
        ErrorTerms terms;       ///< severity/growth/exponent bundle
        double shiftSevTerm = 0.0;  ///< VthModel::shiftSevTerm(severity)
        double sigma = 0.0;         ///< IsppEngine::effectiveSigma
    };

    ErrorModel errors_;
    VthModel vth_;
    double chipFactor_ = 1.0;
    std::uint32_t retentionGen_ = 0;
    std::vector<AgingEntry> aging_;
    std::vector<double> blockDrift_;  ///< VthModel::blockDrift per block
    TermCacheCounters counters_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_TERM_CACHE_H
