#include "src/ftl/vert_ftl.h"

#include <algorithm>
#include <cmath>

namespace cubessd::ftl {

VertFtl::VertFtl(const ssd::SsdConfig &config,
                 std::vector<ssd::ChipUnit> &chips,
                 sim::EventQueue &queue,
                 const VertFtlConfig &vertConfig)
    : PageFtl(config, chips, queue), vertConfig_(vertConfig)
{
    buildTable(config, chips);
}

std::unique_ptr<FtlBase>
VertFtl::clone(std::vector<ssd::ChipUnit> &chips,
               sim::EventQueue &queue) const
{
    return std::unique_ptr<FtlBase>(new VertFtl(*this, chips, queue));
}

void
VertFtl::buildTable(const ssd::SsdConfig &config,
                    const std::vector<ssd::ChipUnit> &chips)
{
    const auto &chip = chips.front().chip();
    const auto &process = chip.process();
    const auto &errors = chip.errors();
    const double eccLimitNorm =
        chip.ecc().limitBer() / errors.params().baseBer;

    // [13]'s offline characterization grades layers by structural
    // quality: the cleanest layer earns baseAdjustMv of V_Final
    // reduction, the worst earns none, linearly in between. The
    // grant is static for the device's whole lifetime.
    double worstProfile = 0.0;
    for (std::uint32_t l = 0; l < geometry().layersPerBlock; ++l)
        worstProfile = std::max(worstProfile, process.layerProfile(l));

    const nand::AgingState eol{errors.params().peEol,
                               errors.params().retEolMonths};
    const double severityWc =
        std::exp(2.0 * config.chip.process.blockSigma);
    const double chipWc = std::exp(2.0 * config.chip.process.chipSigma);

    table_.resize(geometry().layersPerBlock, 0);
    for (std::uint32_t l = 0; l < geometry().layersPerBlock; ++l) {
        const double profile = process.layerProfile(l);
        double adjust = static_cast<double>(vertConfig_.baseAdjustMv) *
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

        const auto g = static_cast<double>(vertConfig_.granularityMv);
        table_[l] = static_cast<MilliVolt>(std::floor(adjust / g) * g);
    }
}

nand::ProgramCommand
VertFtl::commandFor(std::uint32_t chip, const nand::WlAddr &wl)
{
    (void)chip;
    nand::ProgramCommand cmd;
    cmd.vFinalAdjMv = table_.at(wl.layer);
    return cmd;
}

}  // namespace cubessd::ftl
