/**
 * @file
 * Seeded injection of the NAND failure modes a real FTL must absorb.
 *
 * The reliability machinery of the simulator (retry walks, soft LDPC,
 * BER margins) models errors as *latency*; this component makes
 * operations actually *fail*, so the FTL's bad-block handling and
 * read-only degradation paths can be exercised end to end:
 *
 *  - program-status fail: a WL program reports fail after tPROG; the
 *    block must be retired (Luo et al., Park et al. treat these as
 *    routine events over an SSD's life);
 *  - erase-status fail: an erase reports fail and the block is retired
 *    instead of returning to the free pool;
 *  - uncorrectable read: a page whose *aligned* normalized BER exceeds
 *    the configured limit cannot be decoded even by the final
 *    soft-decision LDPC mode, regardless of read-reference tuning.
 *
 * Fail probabilities follow the paper's process structure: they scale
 * with the WL's h-layer quality factor q (worse layers fail more) and
 * with aging severity from the chip's ErrorModel (P/E cycles +
 * retention), so degradation accelerates toward end of life exactly
 * like the BER model does.
 *
 * Determinism: the injector owns a private Rng derived from the chip
 * seed, so enabling it never perturbs the chip's main noise stream,
 * and a given seed always yields the same failure sequence.
 */

#ifndef CUBESSD_NAND_FAULT_INJECTOR_H
#define CUBESSD_NAND_FAULT_INJECTOR_H

#include <cstdint>

#include "src/common/rng.h"
#include "src/nand/error_model.h"

namespace cubessd::nand {

/** Fault-injection knobs (all off by default: no behavior change). */
struct FaultParams
{
    /** Master switch; when false the injector draws no randomness. */
    bool enabled = false;
    /** Per-WL-program fail probability on the best layer, fresh. */
    double programFailBase = 0.0;
    /** Per-erase fail probability, fresh. */
    double eraseFailBase = 0.0;
    /** Growth with aging: p *= 1 + wearScale * severity(aging). */
    double wearScale = 6.0;
    /** Layer scaling: p *= q^qualityExp (worse h-layers, q > 1,
     *  fail more often — the process-similarity structure). */
    double qualityExp = 2.0;
    /** Aligned normalized BER beyond which a read is uncorrectable
     *  even in the final soft LDPC mode. 0 disables the limit. */
    double uncorrectableNormLimit = 0.0;

    bool operator==(const FaultParams &) const = default;
};

class FaultInjector
{
  public:
    /**
     * @param params fault knobs (typically NandChipConfig::faults)
     * @param errors aging model (severity scaling), copied
     * @param seed   per-chip seed; the injector forks its own stream
     */
    FaultInjector(const FaultParams &params, const ErrorModel &errors,
                  std::uint64_t seed);

    /** Fold the injector's RNG position in. */
    void hashState(StateHash &h) const { rng_.hashState(h); }

    bool enabled() const { return params_.enabled; }
    const FaultParams &params() const { return params_; }

    /** Effective program-fail probability of a WL with quality q. */
    double programFailProbability(double q, const AgingState &aging) const;
    /** Effective erase-fail probability of a block. */
    double eraseFailProbability(const AgingState &aging) const;

    /** Draw: does this WL program report status fail? */
    bool programFails(double q, const AgingState &aging);
    /** Draw: does this block erase report status fail? */
    bool eraseFails(const AgingState &aging);

    /**
     * Is a page with this *aligned* normalized BER (optimal read
     * references, program-time multiplier applied) beyond ECC
     * recovery? Deterministic — no randomness is drawn.
     */
    bool readUncorrectable(double alignedNorm) const;

  private:
    double scaled(double base, double q, const AgingState &aging) const;

    FaultParams params_;
    ErrorModel errors_;
    Rng rng_;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_FAULT_INJECTOR_H
