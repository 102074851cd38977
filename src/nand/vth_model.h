/**
 * @file
 * Threshold-voltage drift model: where the optimal read reference
 * voltages sit for a given WL, and how far they are from the chip's
 * default references.
 *
 * Retention charge loss shifts every program state's Vth downward; the
 * shift magnitude grows with aging severity and with the WL's process
 * quality factor (leaky, distorted channel holes lose charge faster).
 * All seven TLC read boundaries shift with a fixed per-boundary weight
 * pattern, so one *scalar* per (block, h-layer) captures the whole
 * offset set D = {dV_ref(i)} — exactly the compact representation the
 * paper's ORT exploits (Sec. 5.1: two bytes per h-layer).
 *
 * Because of horizontal similarity the scalar is an h-layer property:
 * WLs of one h-layer share it to RTN precision.
 */

#ifndef CUBESSD_NAND_VTH_MODEL_H
#define CUBESSD_NAND_VTH_MODEL_H

#include <array>
#include <cmath>
#include <cstdint>

#include "src/common/types.h"
#include "src/nand/error_model.h"

namespace cubessd::nand {

/** Number of read boundaries (between 2^3 = 8 TLC states). */
inline constexpr int kTlcBoundaries = 7;

/** Tunable constants of the Vth drift model. */
struct VthParams
{
    /** Scalar downward shift (mV) at severity 1, quality 1, drift 1. */
    double maxShiftMv = 78.0;
    /** Severity exponent; >1 makes late-life drift grow super-linearly. */
    double sevExponent = 1.3;
    /** Lognormal sigma of the per-block drift multiplier. */
    double blockDriftSigma = 0.30;
    /** Per-read jitter (mV std-dev): temperature / RTN effects. */
    double readJitterMv = 3.0;
    /** Retry-table granularity: one retry moves the references 1 step. */
    MilliVolt retryStepMv = 30;
    /** Raw-BER penalty of misalignment: (miss/berMissScaleMv)^2. */
    double berMissScaleMv = 25.0;

    bool operator==(const VthParams &) const = default;
};

/**
 * Deterministic drift model; per-block factors derive from a seed so a
 * VthModel instance is chip-specific like ProcessModel.
 */
class VthModel
{
  public:
    explicit VthModel(const VthParams &params = {},
                      std::uint64_t seed = 1);

    const VthParams &params() const { return params_; }

    /**
     * The scalar optimal downward shift (mV) of the read references
     * for a WL of quality q in `block` under `aging`. Deterministic;
     * per-read jitter is added by ReadModel.
     */
    double optimalShiftMv(std::uint32_t block, double q,
                          const AgingState &aging,
                          const ErrorModel &errors) const;

    /** Severity-only factor of optimalShiftMv (0 when sev <= 0),
     *  factored out for per-epoch memoization. */
    double
    shiftSevTerm(double sev) const
    {
        if (sev <= 0.0)
            return 0.0;
        return params_.maxShiftMv * std::pow(sev, params_.sevExponent);
    }

    /**
     * optimalShiftMv() from precomputed factors. Keeps the direct
     * path's multiplication order, so a cached evaluation is
     * bit-identical (sev <= 0 yields +0.0 either way).
     */
    double
    shiftFromTerms(double sevTerm, double q, double drift) const
    {
        return sevTerm * q * drift;
    }

    /** Per-block drift multiplier (lognormal, wafer-location effect). */
    double blockDrift(std::uint32_t block) const;

    /**
     * Relative shift weight of boundary i (0-based): higher boundaries
     * (between high-Vth states) shift more. Provided for completeness;
     * the scalar representation folds these in.
     */
    double boundaryWeight(int i) const;

    /** Expand the scalar shift into the full offset set D. */
    std::array<MilliVolt, kTlcBoundaries>
    expandOffsets(double scalarMv) const;

  private:
    VthParams params_;
    std::uint64_t seed_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_VTH_MODEL_H
