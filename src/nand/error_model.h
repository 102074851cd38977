/**
 * @file
 * Reliability (bit-error-rate) model of 3D NAND cells.
 *
 * Reproduces the structure of the paper's characterization study
 * (Sec. 3): the retention BER of a WL depends on its process quality
 * factor q, its P/E cycle count x, and its retention time t. Worse
 * layers not only start with more errors but *age faster* — the
 * quality exponent grows with an aging-severity term — which yields
 * the nonlinear inter-layer divergence of Fig. 6(c) and moves DeltaV
 * from ~1.6 (fresh) to ~2.3 (2K P/E + 1 year).
 *
 * The model also provides BER_EP1 (errors between the erase state and
 * P1, known to track overall NAND health [20, 35]) and the BER penalty
 * of shrinking the ISPP window — the physical basis of the paper's
 * S_M -> (V_Start, V_Final) adjustment conversion table (Fig. 11).
 */

#ifndef CUBESSD_NAND_ERROR_MODEL_H
#define CUBESSD_NAND_ERROR_MODEL_H

#include <cmath>

#include "src/common/types.h"

namespace cubessd::nand {

/** Wear and retention state under which an operation is evaluated. */
struct AgingState
{
    PeCycles peCycles = 0;
    double retentionMonths = 0.0;

    bool
    operator==(const AgingState &) const = default;
};

/** Tunable constants of the reliability model (defaults calibrated). */
struct ErrorParams
{
    /** Raw BER of the best layer of a median chip, fresh, no retention. */
    double baseBer = 1.0e-4;
    /** P/E-cycling growth: 1 + peA * (x/1000)^peP. */
    double peA = 2.5;
    double peP = 1.2;
    /** Retention growth: 1 + retB * ln(1 + t_months). */
    double retB = 1.5;
    /** End-of-life reference points for aging severity normalization. */
    PeCycles peEol = 2000;
    double retEolMonths = 12.0;
    /** Quality-exponent amplification at full aging severity.
     *  Calibrated so DeltaV goes 1.6 (fresh) -> ~2.3 (EOL + 1 yr). */
    double qualityAmp = 0.77;
    /** BER_EP1 as a fraction of the total retention BER. */
    double ep1Fraction = 0.35;
    /** BER cost of shrinking the ISPP window (multiplicative):
     *  ber *= 1 + windowK * (shrink_mV / 100)^windowP. Multiplicative
     *  cost is what makes the safe margin S_M tighten near end of
     *  life (paper Fig. 9): the same shrink costs more absolute BER
     *  on an aged WL. */
    double windowK = 0.10;
    double windowP = 1.15;
    /** Over-programming cost of skipping VFYs beyond the safe count:
     *  ber *= 1 + overK * stateWeight * extra^overP per state. */
    double overK = 0.08;
    double overP = 1.8;

    bool operator==(const ErrorParams &) const = default;
};

/**
 * The aging-dependent sub-expressions of normalizedBer(), evaluated
 * once per AgingState and reused for every WL quality factor (see
 * nand::ErrorTermCache). Produced by ErrorModel::terms() with the
 * exact same double-precision expressions normalizedBer() uses, so a
 * cached evaluation is bit-identical to a direct one.
 */
struct ErrorTerms
{
    double severity = 0.0;
    double peGrowth = 1.0;
    double retGrowth = 1.0;
    double exponent = 1.0;
};

/**
 * Pure-function reliability model; all state lives in the arguments so
 * the same instance serves every chip.
 */
class ErrorModel
{
  public:
    explicit ErrorModel(const ErrorParams &params = {});

    const ErrorParams &params() const { return params_; }

    /**
     * Aging severity in [0, 1]: 0 = fresh, 1 = end-of-life P/E count
     * with end-of-life retention.
     */
    double severity(const AgingState &aging) const;

    /** The aging-dependent terms of normalizedBer(), factored out for
     *  memoization. */
    ErrorTerms terms(const AgingState &aging) const;

    /**
     * normalizedBer() evaluated from precomputed terms. Same
     * expression, same association order: bit-identical to the direct
     * overload for terms produced by terms(aging).
     */
    double
    normalizedBerFromTerms(double q, const ErrorTerms &t,
                           double chipFactor = 1.0) const
    {
        return chipFactor * std::pow(q, t.exponent) * t.peGrowth *
               t.retGrowth;
    }

    /** berEp1Norm() from an already-evaluated normalizedBer(). */
    double
    berEp1NormFromBase(double normalizedBer) const
    {
        return params_.ep1Fraction * normalizedBer;
    }

    /**
     * Absolute retention BER of a WL with quality q under `aging`,
     * before any read-reference misalignment penalties.
     * @param chipFactor per-chip multiplier from ProcessModel.
     */
    double retentionBer(double q, const AgingState &aging,
                        double chipFactor = 1.0) const;

    /** retentionBer expressed in units of baseBer (normalized BER). */
    double normalizedBer(double q, const AgingState &aging,
                         double chipFactor = 1.0) const;

    /** Normalized BER between the E state and P1 (health indicator). */
    double berEp1Norm(double q, const AgingState &aging,
                      double chipFactor = 1.0) const;

    /**
     * Estimate the total normalized BER of a WL from its measured
     * BER_EP1 — the inference the OPM performs on the leader WL
     * (the E<->P1 errors are a known health proxy [20, 35]).
     */
    double
    totalNormFromEp1(double berEp1Norm) const
    {
        return berEp1Norm / params_.ep1Fraction;
    }

    /**
     * Project a BER measured under `current` conditions to the end of
     * the data's retention life (retEolMonths) at the same wear.
     *
     * This is the physics behind the paper's offline BER_EP1^Max /
     * conversion tables (Sec. 4.1.2): the spare margin S_M must hold
     * not at program time but after the written data has been
     * retained for its full required lifetime. The projection inverts
     * the aging model to recover the WL's quality factor and
     * re-evaluates it at full retention.
     */
    double projectedRetentionNorm(double measuredNorm,
                                  const AgingState &current) const;

    /**
     * BER multiplier (>= 1) incurred by shrinking the ISPP window
     * (raising V_Start and/or lowering V_Final) by `shrinkMv` total.
     */
    double windowShrinkMultiplier(double shrinkMv) const;

    /**
     * Inverse of windowShrinkMultiplier: the largest total window
     * shrink (mV) whose BER multiplier stays within
     * `allowedMultiplier`. This is the paper's offline S_M ->
     * adjustment conversion table (Fig. 11(b)).
     */
    double safeWindowShrinkMv(double allowedMultiplier) const;

    /**
     * BER multiplier from skipping `extraSkips` VFY steps beyond the
     * safe count for program state `state` (1-based, 1..7 for TLC).
     * Higher states accumulate more overshoot (Fig. 8(a)).
     */
    double overProgramMultiplier(int extraSkips, int state) const;

  private:
    ErrorParams params_;
    double logEolRet_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_ERROR_MODEL_H
