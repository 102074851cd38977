/**
 * @file
 * Read operation model with read-retry (paper Sec. 2.3 / 4.2).
 *
 * A read senses the page with a set of read reference voltages; if the
 * ECC engine cannot correct the result, the controller retries with
 * adjusted references. We represent the reference set D by its scalar
 * downward shift (see VthModel). The controller's retry table sweeps
 * the shift in fixed steps, so:
 *
 *   NumRetry = number of extra sense operations until the applied
 *              shift is close enough to the optimum for ECC to pass.
 *
 * A PS-unaware controller starts every read from the default (zero)
 * shift; a PS-aware controller starts from the most recent optimal
 * shift recorded for the page's h-layer (the ORT), which is why the
 * intra-layer similarity slashes NumRetry (Fig. 14).
 */

#ifndef CUBESSD_NAND_READ_MODEL_H
#define CUBESSD_NAND_READ_MODEL_H

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/ecc/ecc.h"
#include "src/nand/error_model.h"
#include "src/nand/vth_model.h"

namespace cubessd::nand {

/** Outcome of one page read (device time only; bus time is the SSD's). */
struct ReadOutcome
{
    SimTime tRead = 0;          ///< sense time including all retries
    /** Portion of tRead spent on extra (retry) sense operations —
     *  the observability layer's "retry" phase. */
    SimTime tRetry = 0;
    int numRetries = 0;         ///< extra sense operations needed
    double rawBerNorm = 0.0;    ///< normalized raw BER at final attempt
    bool uncorrectable = false; ///< ECC failed even after max retries
    /** Shift (mV) that finally decoded; feed back into the ORT. */
    MilliVolt successShiftMv = 0;
};

/** Read-path constants. */
struct ReadParams
{
    SimTime tSense = 58000;     ///< one sense operation, 58 us
    int maxRetries = 20;        ///< give up afterwards

    bool operator==(const ReadParams &) const = default;
};

/**
 * Stateless read computation over its own copies of the chip's drift,
 * error and ECC models; the caller supplies the WL condition and the
 * applied starting shift.
 */
class ReadModel
{
  public:
    ReadModel(const ReadParams &params, const VthModel &vth,
              const ErrorModel &errors, const ecc::EccModel &ecc);

    const ReadParams &params() const { return params_; }

    /**
     * Perform one page read.
     *
     * @param block        block index (selects the drift factor)
     * @param q            WL quality factor
     * @param aging        block wear/retention state
     * @param chipFactor   per-chip BER multiplier
     * @param berMultiplier program-time BER multiplier of the WL
     * @param appliedShiftMv starting reference shift (0 = default; the
     *                     ORT's D_h for a PS-aware controller)
     * @param rng          per-read jitter source
     * @param softHint      controller expects a noisy page and starts
     *                       with the soft decode (paper Sec. 8's
     *                       leader-informed ECC; see EccModel)
     * @param uncorrectableNormLimit if > 0, a WL whose aligned
     *                       normalized BER exceeds this limit cannot
     *                       be decoded at any reference: the retry
     *                       walk runs to exhaustion, falls through the
     *                       soft LDPC mode, and the read completes
     *                       uncorrectable (FaultParams)
     */
    ReadOutcome read(std::uint32_t block, double q,
                     const AgingState &aging, double chipFactor,
                     double berMultiplier, MilliVolt appliedShiftMv,
                     Rng &rng, bool softHint = false,
                     double uncorrectableNormLimit = 0.0) const;

    /**
     * read() with the WL's deterministic model terms supplied by the
     * caller (NandChip's ErrorTermCache): `shiftBase` =
     * VthModel::optimalShiftMv(block, q, aging) and `normBase` =
     * ErrorModel::normalizedBer(q, aging, chipFactor). Only the
     * per-read jitter draw and the decode walk remain; bit-identical
     * to read() by construction.
     */
    ReadOutcome readFromTerms(double shiftBase, double normBase,
                              double berMultiplier,
                              MilliVolt appliedShiftMv, Rng &rng,
                              bool softHint = false,
                              double uncorrectableNormLimit = 0.0) const;

    /**
     * Raw BER of a sense at `missMv` away from the optimal references
     * for a WL whose aligned normalized BER is `alignedNorm`.
     */
    double rawBerNorm(double alignedNorm, double missMv) const;

  private:
    ReadParams params_;
    VthModel vth_;
    ErrorModel errors_;
    ecc::EccModel ecc_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_READ_MODEL_H
