/**
 * @file
 * Memoization of the deterministic NAND model terms, keyed by per-block
 * *aging epoch*.
 *
 * Every read and program evaluates the same chain of transcendental
 * expressions — ErrorModel::severity / terms (log, pow), the quality
 * exponent pow(q, exponent), VthModel::optimalShiftMv (pow, exp) and
 * the ISPP sigma/mu baselines — whose inputs only change when a block
 * is erased (peCycles grows) or the injected retention state advances
 * (NandChip::setAging). Between those events the values are constants
 * of the (WL, block) pair, so the hot paths reduce to a handful of
 * multiplies plus the per-operation RNG jitter.
 *
 * The epoch is a 64-bit generation counter per block:
 *
 *     epoch = (retentionGen << 32) | runtimeEraseCount
 *
 * where retentionGen increments on every setAging call. Erasing a
 * block bumps its erase count and therefore implicitly invalidates its
 * cached terms; no explicit flush is needed anywhere.
 *
 * Bit-identity contract: every cached value is produced by the *exact*
 * factorized expressions the direct paths delegate to
 * (ErrorModel::terms / normalizedBerFromTerms, VthModel::shiftSevTerm /
 * shiftFromTerms, IsppEngine::effectiveSigma), so cached and direct
 * evaluation yield bitwise-equal doubles — the fig17/fig18 outputs do
 * not move by one ULP. Tests: test_term_cache.cc.
 *
 * Memory: one AgingEntry per block (a block occupies exactly one epoch
 * at any simulated time, so one slot gets the same hit rate as any
 * associative scheme) plus one 40-byte WlEntry per WL. All arrays are
 * sized at construction — lookups never allocate (zero-alloc contract,
 * tests/test_zero_alloc.cc).
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

/** Everything the read/program hot paths need for one WL at one epoch. */
struct WlTerms
{
    double q = 1.0;         ///< ProcessModel::wlQuality (static)
    double speedMv = 0.0;   ///< ProcessModel::programSpeedMv (static)
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
    std::uint64_t wlHits = 0;
    std::uint64_t wlMisses = 0;
    std::uint64_t agingHits = 0;
    std::uint64_t agingMisses = 0;
    /** First-touch fills of the static per-WL terms (q, speed, drift). */
    std::uint64_t staticFills = 0;
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
     * it). Fills both cache levels on miss from `process` and `ispp`,
     * which must be the models of the chip the cache was built for.
     */
    WlTerms terms(const WlAddr &addr, PeCycles eraseCount,
                  const AgingState &aging, const ProcessModel &process,
                  const IsppEngine &ispp);

    const TermCacheCounters &counters() const { return counters_; }

    /** Fold every entry, the generation and the counters in. */
    void hashState(StateHash &h) const;

    /** WL-level hit fraction in [0, 1]; 0 when no lookups happened. */
    double
    hitRate() const
    {
        const std::uint64_t total = counters_.wlHits + counters_.wlMisses;
        return total ? static_cast<double>(counters_.wlHits) /
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

    /** Per-WL entry: static terms (filled once) + epoch-tagged bases. */
    struct WlEntry
    {
        std::uint64_t tag = 0;  ///< epoch + 1; 0 = empty
        double q = -1.0;        ///< static; -1.0 = not yet computed
        double speedMv = 0.0;   ///< static
        double shiftBase = 0.0;
        double normBase = 0.0;
    };

    std::size_t
    wlIndex(const WlAddr &addr) const
    {
        return (static_cast<std::size_t>(addr.block) * geom_.wlsPerBlock() +
                static_cast<std::size_t>(addr.layer) * geom_.wlsPerLayer) +
               addr.wl;
    }

    NandGeometry geom_;
    ErrorModel errors_;
    VthModel vth_;
    double chipFactor_ = 1.0;
    std::uint32_t retentionGen_ = 0;
    std::vector<AgingEntry> aging_;
    std::vector<WlEntry> wls_;
    std::vector<double> blockDrift_;  ///< VthModel::blockDrift; -1 = unset
    TermCacheCounters counters_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_TERM_CACHE_H
