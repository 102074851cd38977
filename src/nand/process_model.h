/**
 * @file
 * Manufacturing-process model for 3D NAND: the origin of both the
 * vertical inter-layer variability and the horizontal intra-layer
 * similarity that the paper characterizes (Sec. 2.1 and 3).
 *
 * The model assigns every word line a *quality factor* q >= 1:
 *
 *   q(block, layer) = 1 + severity(block) * profile(layer)
 *
 * where `profile` captures the channel-hole etch physics along the z
 * axis — the hole tapers toward the bottom substrate, the bottom few
 * h-layers are distorted (elliptic/rugged holes from etchant fluid
 * dynamics), and the first/last h-layers pay an edge penalty — and
 * `severity` is a per-block lognormal factor modelling the physical
 * location of the block on the wafer (paper Fig. 6(d)).
 *
 * Word lines on the *same* h-layer share q except for an RTN-scale
 * (<1%) static offset, which is what makes DeltaH ~= 1 (Fig. 5).
 */

#ifndef CUBESSD_NAND_PROCESS_MODEL_H
#define CUBESSD_NAND_PROCESS_MODEL_H

#include <cstdint>
#include <vector>

#include "src/nand/geometry.h"

namespace cubessd::nand {

/** Tunable constants of the process model (defaults are calibrated). */
struct ProcessParams
{
    /** Quality loss from channel-hole taper at the very bottom. */
    double taperStrength = 0.18;
    /** Quality loss from hole-shape distortion near the bottom. */
    double distortStrength = 0.22;
    /** Decay length of the distortion band, in normalized z units. */
    double distortDecay = 0.10;
    /** Extra quality loss on the first and last h-layer (block edges). */
    double edgePenalty = 0.20;
    /** Lognormal sigma of the per-block severity factor. */
    double blockSigma = 0.10;
    /** Lognormal sigma of the per-chip absolute BER multiplier. */
    double chipSigma = 0.05;
    /** Std-dev of the static per-WL quality offset (RTN scale, <1%). */
    double wlSigma = 0.004;
    /** Program-speed boost (mV) per unit of (q - 1): narrow holes
     *  concentrate the field and program faster. */
    double speedPerQuality = 80.0;

    bool operator==(const ProcessParams &) const = default;
};

/**
 * Deterministic per-chip process instance.
 *
 * Two ProcessModel objects built with the same geometry, params, and
 * seed are identical; different seeds model different chips.
 */
class ProcessModel
{
  public:
    ProcessModel(const NandGeometry &geom, const ProcessParams &params,
                 std::uint64_t seed);

    const NandGeometry &geometry() const { return geom_; }
    const ProcessParams &params() const { return params_; }

    /**
     * Quality factor of an h-layer in a block; 1.0 = best possible,
     * larger = structurally worse (higher BER, as used by ErrorModel).
     */
    double layerQuality(std::uint32_t block, std::uint32_t layer) const;

    /**
     * Quality factor of one WL: layerQuality plus the static RTN-scale
     * intra-layer offset. Within one h-layer these differ by <1%.
     */
    double wlQuality(const WlAddr &addr) const;

    /** Per-chip absolute BER multiplier (wafer-location lottery). */
    double chipFactor() const { return chipFactor_; }

    /** Per-block severity factor scaling the layer profile. */
    double blockSeverity(std::uint32_t block) const;

    /**
     * Structural penalty of an h-layer before block severity scaling
     * (layerQuality = 1 + severity * profile). Exposed for offline
     * worst-case characterization, e.g. vertFTL's static tables.
     */
    double layerProfile(std::uint32_t layer) const
    {
        return profile_.at(layer);
    }

    /**
     * Mean program-speed boost of a WL in millivolts. WLs on the same
     * h-layer share this value (to RTN precision), which is why tPROG
     * is identical within an h-layer (paper Fig. 5(d)).
     */
    double programSpeedMv(const WlAddr &addr) const;

    /**
     * @name Representative h-layers (paper Figs. 5/6/9 notation)
     * @{
     */
    /** Bottom-edge h-layer: the least reliable overall. */
    std::uint32_t layerOmega() const { return 0; }
    /** Top-edge h-layer: unreliable due to the edge effect. */
    std::uint32_t layerAlpha() const { return geom_.layersPerBlock - 1; }
    /** Worst non-edge h-layer (distorted band near the bottom). */
    std::uint32_t layerKappa() const { return kappa_; }
    /** Most reliable h-layer. */
    std::uint32_t layerBeta() const { return beta_; }
    /** @} */

  private:
    double profileAt(std::uint32_t layer) const;

    NandGeometry geom_;
    ProcessParams params_;
    std::uint64_t seed_;
    double chipFactor_ = 1.0;
    std::vector<double> profile_;        ///< per-layer structural penalty
    std::vector<double> blockSeverity_;  ///< per-block severity factor
    std::uint32_t kappa_ = 1;
    std::uint32_t beta_ = 0;
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_PROCESS_MODEL_H
