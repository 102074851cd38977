#include "src/ftl/page_ftl.h"

#include <algorithm>
#include <cmath>

namespace cubessd::ftl {

namespace {

/**
 * V_Final reduction granted to a hypothetical perfect layer (profile
 * 0). [13] reports ~130 mV for the most reliable layer over its whole
 * lifetime; layers degrade linearly toward 0 as their structural
 * penalty approaches the worst layer's. The resulting reduction must
 * stay BER-safe at end of life for the worst block, which
 * buildVFinalTable() verifies against the error model.
 */
constexpr MilliVolt kVertBaseAdjustMv = 140;
/** Table granularity. */
constexpr MilliVolt kVertGranularityMv = 10;

/** vertFTL's offline per-layer V_Final table for chips like `model`. */
std::vector<MilliVolt>
buildVFinalTable(const ssd::SsdConfig &config, const nand::NandChip &model)
{
    const auto &geom = model.geometry();
    const auto &process = model.process();
    const auto &errors = model.errors();
    const double eccLimitNorm =
        model.ecc().limitBer() / errors.params().baseBer;

    // [13]'s offline characterization grades layers by structural
    // quality: the cleanest layer earns kVertBaseAdjustMv of V_Final
    // reduction, the worst earns none, linearly in between. The
    // grant is static for the device's whole lifetime.
    double worstProfile = 0.0;
    for (std::uint32_t l = 0; l < geom.layersPerBlock; ++l)
        worstProfile = std::max(worstProfile, process.layerProfile(l));

    const nand::AgingState eol{errors.params().peEol,
                               errors.params().retEolMonths};
    const double severityWc =
        std::exp(2.0 * config.chip.process.blockSigma);
    const double chipWc = std::exp(2.0 * config.chip.process.chipSigma);

    std::vector<MilliVolt> table(geom.layersPerBlock, 0);
    for (std::uint32_t l = 0; l < geom.layersPerBlock; ++l) {
        const double profile = process.layerProfile(l);
        double adjust = static_cast<double>(kVertBaseAdjustMv) *
                        (1.0 - profile / worstProfile);

        // The table must remain safe at end of life on a worst-case
        // block: cap the grant where the shrink's BER multiplier
        // would push the layer past the ECC limit.
        const double qWc = 1.0 + severityWc * profile;
        const double wcNorm = errors.normalizedBer(qWc, eol, chipWc);
        // A static grant must not touch layers that finish their life
        // close to the ECC limit: their end-of-life headroom is the
        // read path's misalignment budget. Layers with comfortable
        // headroom may spend half of it on the program window.
        if (wcNorm > 0.6 * eccLimitNorm) {
            adjust = 0.0;
        } else {
            const double allowedMult =
                1.0 + 0.5 * (eccLimitNorm / wcNorm - 1.0);
            adjust =
                std::min(adjust, errors.safeWindowShrinkMv(allowedMult));
        }
        adjust = std::max(adjust, 0.0);

        const auto g = static_cast<double>(kVertGranularityMv);
        table[l] = static_cast<MilliVolt>(std::floor(adjust / g) * g);
    }
    return table;
}

}  // namespace

PageFtl::PageFtl(const ssd::SsdConfig &config, const nand::NandChip &model)
    : FtlBase(config),
      pattern_(programSequence(ProgramOrderKind::HorizontalFirst,
                               geometry(), 0)),
      hostWp_(chipCount()),
      gcWp_(chipCount())
{
    if (config.ftl == ssd::FtlKind::Vert)
        vFinal_ = buildVFinalTable(config, model);
}

std::unique_ptr<FtlBase>
PageFtl::clone() const
{
    return std::make_unique<PageFtl>(*this);
}

void
PageFtl::hashPolicyState(StateHash &h) const
{
    for (const auto *points : {&hostWp_, &gcWp_}) {
        for (const WritePoint &wp : *points)
            h.add(wp.open).add(wp.block).add(wp.seqIndex);
    }
}

nand::WlAddr
PageFtl::nextWl(std::uint32_t chip, WritePoint &wp)
{
    if (!wp.open || wp.seqIndex >= pattern_.size()) {
        wp.block = allocateBlock(chip);
        wp.seqIndex = 0;
        wp.open = true;
    }
    nand::WlAddr wl = pattern_[wp.seqIndex++];
    wl.block = wp.block;
    return wl;
}

void
PageFtl::onBlockRetired(std::uint32_t chip, std::uint32_t block)
{
    // The next nextWl() on an abandoned point allocates a fresh block.
    if (hostWp_[chip].open && hostWp_[chip].block == block)
        hostWp_[chip].open = false;
    if (gcWp_[chip].open && gcWp_[chip].block == block)
        gcWp_[chip].open = false;
}

ProgramChoice
PageFtl::chooseProgramTarget(std::uint32_t chip, bool forGc, double mu)
{
    (void)mu;
    ProgramChoice choice;
    choice.wl = nextWl(chip, forGc ? gcWp_[chip] : hostWp_[chip]);
    if (!vFinal_.empty())
        choice.cmd.vFinalAdjMv = vFinal_[choice.wl.layer];
    choice.isLeader = isLeaderWl(choice.wl);
    choice.monitor = true;  // PS-unaware: nothing is derived or reused
    return choice;
}

}  // namespace cubessd::ftl
