/**
 * @file
 * The FTL's policy: which WL to program next and with what command,
 * which read-reference shift to apply, and what to learn from
 * completed operations (src/ftl/ftl.h lists the four settings).
 */

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/ftl/ftl.h"
#include "src/prof/prof.h"

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

}  // namespace

/*
 * vertFTL is the state-of-the-art comparison point of the paper's
 * evaluation, modelled on Hung et al. [13]. It exploits *inter-layer
 * variability only*, with an offline static table: for every h-layer,
 * the largest V_Final reduction that stays safe for the worst block of
 * that layer under the worst operating condition (end-of-life P/E
 * count, end-of-life retention, plus a static guard band for
 * unobservable factors such as temperature). Because it cannot measure
 * anything at run time, the table is necessarily conservative — the
 * paper reports only ~8% average tPROG improvement versus cubeFTL's
 * ~30%.
 */
std::vector<MilliVolt>
Ftl::buildVFinalTable(const ssd::SsdConfig &config,
                      const nand::NandChip &model)
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

ProgramChoice
Ftl::chooseProgramTarget(std::uint32_t chip, bool forGc, double mu)
{
    PROF_SCOPE(prof::Slot::FtlOpm);
    Chip &c = chips_[chip];
    const std::span<MixedWritePoint> points =
        forGc ? std::span<MixedWritePoint>(&c.gcPoint, 1)
              : std::span<MixedWritePoint>(c.host, features_.wam ? 2 : 1);
    bool &open = forGc ? c.gcOpen : c.hostOpen;

    // Replace exhausted write points with fresh blocks first, so a
    // leader WL is always reachable.
    for (MixedWritePoint &wp : points) {
        if (!open || wp.full(geom_)) {
            wp = MixedWritePoint{};
            wp.block = c.blocks.allocate();
        }
    }
    open = true;

    // Without the WAM there is no workload awareness: filling
    // follower-first on one write point is the horizontal-first order.
    const bool followerFirst = !features_.wam || mu > wam_.muThreshold();
    if (const auto pick = wam_.take(points, geom_, followerFirst))
        return finalizeChoice(chip, *pick);
    panic("Ftl: no programmable WL on chip %u", chip);
}

ProgramChoice
Ftl::finalizeChoice(std::uint32_t chip, const WlChoice &pick)
{
    ProgramChoice choice;
    choice.wl = pick.wl;
    choice.isLeader = pick.isLeader;
    if (!vFinal_.empty())
        choice.cmd.vFinalAdjMv = vFinal_[pick.wl.layer];
    if (pick.isLeader || !monitorsLeaders()) {
        // Leaders run with default parameters and are monitored
        // (paper footnote 4: no tPROG reduction for leader WLs).
        choice.monitor = true;
        return choice;
    }
    const LeaderParams *params = leaderParams(chip, pick.wl);
    // Epoch gate on the low 32 bits (the erase count) only: retention
    // advances age leader and follower identically, so parameters stay
    // applicable across them — but never across an erase of the block.
    if (params != nullptr && params->valid &&
        static_cast<std::uint32_t>(params->epoch) ==
            chipModel(chip).eraseCount(pick.wl.block)) {
        choice.cmd = params->followerCommand(features_.vfySkip,
                                             features_.windowAdjust);
        choice.monitor = false;
        ++cubeStats_.followerWithParams;
    } else {
        // Leader data not (yet) available — e.g. invalidated by a
        // safety re-program. Fall back to a monitored default program.
        choice.monitor = true;
        ++cubeStats_.followerWithoutParams;
    }
    return choice;
}

Ftl::ReadHint
Ftl::readHintFor(std::uint32_t chip, const nand::PageAddr &addr)
{
    if (!features_.ort)
        return {};
    PROF_SCOPE(prof::Slot::FtlOrtLookup);
    const auto shift = ort_.lookup(chip, addr.block, addr.layer);
    if (!shift)
        return {};
    ++cubeStats_.ortGuidedReads;
    // A cached entry means this h-layer has already needed retries:
    // its pages are noisy, so start with the soft decode (the paper's
    // Sec. 8 leader-informed ECC idea). Entry presence — not a
    // non-zero shift — is the signal: a calibrated 0 mV entry still
    // marks a noisy layer.
    return {*shift, features_.eccHint};
}

void
Ftl::onProgramComplete(std::uint32_t chip, const ProgramChoice &choice,
                       const nand::WlProgramResult &result)
{
    if (!choice.monitor || !monitorsLeaders())
        return;
    PROF_SCOPE(prof::Slot::FtlOpm);
    LeaderParams params =
        opm_.derive(result, chipModel(chip).blockAging(choice.wl.block));
    params.epoch = chipModel(chip).blockEpoch(choice.wl.block);
    LeaderParams *cached = leaderParams(chip, choice.wl);
    if (cached == nullptr)
        cached = &takeSlot(chip, choice.wl.block)[choice.wl.layer];
    *cached = params;
}

LeaderParams *
Ftl::leaderParams(std::uint32_t chip, const nand::WlAddr &wl)
{
    for (ParamSlot &slot : chips_[chip].slots) {
        if (slot.block == wl.block)
            return &slot.layers[wl.layer];
    }
    return nullptr;
}

std::vector<LeaderParams> &
Ftl::takeSlot(std::uint32_t chip, std::uint32_t block)
{
    Chip &c = chips_[chip];
    for (ParamSlot &slot : c.slots) {
        if (slot.block != kInvalid32 && c.blocks.info(slot.block).isActive)
            continue;
        slot.block = block;
        slot.layers.assign(slot.layers.size(), LeaderParams{});
        return slot.layers;
    }
    panic("Ftl: chip %u programs more blocks than it has write points",
          chip);
}

void
Ftl::onReadComplete(std::uint32_t chip, const nand::PageAddr &addr,
                    const nand::ReadOutcome &outcome)
{
    // Remember the shift that finally decoded for this h-layer; the
    // next read to any WL on the layer starts there (Sec. 4.2).
    if (features_.ort && outcome.numRetries > 0 && !outcome.uncorrectable)
        ort_.update(chip, addr.block, addr.layer, outcome.successShiftMv);
}

void
Ftl::onBlockErased(std::uint32_t chip, std::uint32_t block)
{
    if (features_.ort)
        ort_.resetBlock(chip, block);
    for (ParamSlot &slot : chips_[chip].slots) {
        if (slot.block == block)
            slot.block = kInvalid32;
    }
}

void
Ftl::onBlockRetired(std::uint32_t chip, std::uint32_t block)
{
    // Force any write point open on the retired block to exhausted so
    // the next pick replaces it with a fresh allocation.
    Chip &c = chips_[chip];
    const auto exhaust = [this](MixedWritePoint &wp) {
        wp.iLeader = geom_.layersPerBlock;
        wp.iFollower = geom_.layersPerBlock;
    };
    if (c.hostOpen) {
        for (auto &wp : c.host) {
            if (wp.block == block)
                exhaust(wp);
        }
    }
    if (c.gcOpen && c.gcPoint.block == block)
        exhaust(c.gcPoint);
    // Cached ORT shifts and OPM parameters die with the block.
    onBlockErased(chip, block);
}

bool
Ftl::safetyCheck(std::uint32_t chip, const ProgramChoice &choice,
                 const nand::WlProgramResult &result)
{
    PROF_SCOPE(prof::Slot::FtlOpm);
    LeaderParams *params = leaderParams(chip, choice.wl);
    if (params == nullptr || !params->valid)
        return false;
    if (opm_.needsReprogram(*params, result)) {
        // The monitored parameters no longer reflect reality (e.g. a
        // sudden operating-condition change); drop them so the
        // re-program is monitored afresh.
        *params = LeaderParams{};
        return true;
    }
    return false;
}

}  // namespace cubessd::ftl
