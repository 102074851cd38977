#include "src/ftl/cube_ftl.h"

#include "src/common/logging.h"
#include "src/prof/prof.h"
#include "src/trace/counters.h"

namespace cubessd::ftl {

CubeFtl::CubeFtl(const ssd::SsdConfig &config, const nand::NandChip &model,
                 const ssd::CubeFeatures &features)
    : FtlBase(config),
      opm_(OpmConfig{}, model.errors(), model.ecc(),
           model.ispp().config().deltaVMv),
      wam_(config.bufferHighWatermark),
      ort_(chipCount(), config.chip.geometry.blocksPerChip,
           config.chip.geometry.layersPerBlock),
      features_(features),
      state_(chipCount())
{
    const ParamSlot slot{kInvalid32, std::vector<LeaderParams>(
                                         geometry().layersPerBlock)};
    for (auto &cs : state_)
        cs.slots.assign(features_.wam ? 3 : 2, slot);
}

std::unique_ptr<FtlBase>
CubeFtl::clone() const
{
    return std::make_unique<CubeFtl>(*this);
}

void
CubeFtl::hashPolicyState(StateHash &h) const
{
    ort_.hashState(h);
    for (const ChipState &cs : state_) {
        h.add(cs.open).add(cs.gcOpen);
        for (const MixedWritePoint *wp : {&cs.host[0], &cs.host[1], &cs.gc})
            h.add(*wp);
        for (const ParamSlot &slot : cs.slots) {
            h.add(slot.block);
            for (const LeaderParams &p : slot.layers) {
                h.add(p.valid).add(p.skipPlan).add(p.skipPlanUnshifted);
                h.add(p.vStartAdjMv).add(p.vFinalAdjMv);
                h.add(p.leaderBerEp1Norm).add(p.expectedMultiplier);
                h.add(p.epoch);
            }
        }
    }
    h.add(cubeStats_);
}

void
CubeFtl::registerCounters(trace::CounterRegistry &reg)
{
    FtlBase::registerCounters(reg);
    reg.add("ort_hit_rate", "percent", [this](SimTime) {
        const auto total = ort_.hits() + ort_.misses();
        return total == 0
            ? 0.0
            : 100.0 * static_cast<double>(ort_.hits()) /
                  static_cast<double>(total);
    });
    reg.add("follower_fast_path", "programs", [this](SimTime) {
        return static_cast<double>(cubeStats_.followerWithParams);
    });
}

void
CubeFtl::ensureOpen(std::uint32_t chip)
{
    auto &cs = state_[chip];
    if (cs.open)
        return;
    cs.host[0].block = allocateBlock(chip);
    if (features_.wam)
        cs.host[1].block = allocateBlock(chip);
    cs.open = true;
}

WlChoice
CubeFtl::pickHostWl(std::uint32_t chip, double mu)
{
    ensureOpen(chip);
    auto &cs = state_[chip];
    const auto &geom = geometry();

    // Replace exhausted write points with fresh blocks first, so a
    // leader WL is always reachable.
    const std::size_t points = features_.wam ? 2 : 1;
    for (std::size_t i = 0; i < points; ++i) {
        if (cs.host[i].full(geom)) {
            cs.host[i] = MixedWritePoint{};
            cs.host[i].block = allocateBlock(chip);
        }
    }

    // cubeFTL-: no workload awareness; filling follower-first on one
    // write point degenerates to the horizontal-first order.
    const double effectiveMu = features_.wam ? mu : 1.0;
    const bool wantFollower = effectiveMu > wam_.muThreshold();

    auto tryTake = [&](bool follower) -> std::optional<WlChoice> {
        for (std::size_t i = 0; i < points; ++i) {
            auto c = follower ? wam_.takeFollower(cs.host[i], geom)
                              : wam_.takeLeader(cs.host[i], geom);
            if (c)
                return c;
        }
        return std::nullopt;
    };

    if (auto c = tryTake(wantFollower))
        return *c;
    if (auto c = tryTake(!wantFollower))
        return *c;
    panic("CubeFtl: no programmable WL on chip %u", chip);
}

WlChoice
CubeFtl::pickGcWl(std::uint32_t chip, double mu)
{
    auto &cs = state_[chip];
    const auto &geom = geometry();
    if (!cs.gcOpen || cs.gc.full(geom)) {
        cs.gc = MixedWritePoint{};
        cs.gc.block = allocateBlock(chip);
        cs.gcOpen = true;
    }
    if (auto c = wam_.choose(cs.gc, geom, features_.wam ? mu : 1.0))
        return *c;
    panic("CubeFtl: no programmable GC WL on chip %u", chip);
}

ProgramChoice
CubeFtl::finalizeChoice(std::uint32_t chip, const WlChoice &pick)
{
    ProgramChoice choice;
    choice.wl = pick.wl;
    choice.isLeader = pick.isLeader;
    if (pick.isLeader) {
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

ProgramChoice
CubeFtl::chooseProgramTarget(std::uint32_t chip, bool forGc, double mu)
{
    PROF_SCOPE(prof::Slot::FtlOpm);
    const WlChoice pick =
        forGc ? pickGcWl(chip, mu) : pickHostWl(chip, mu);
    return finalizeChoice(chip, pick);
}

MilliVolt
CubeFtl::readShiftFor(std::uint32_t chip, const nand::PageAddr &addr)
{
    PROF_SCOPE(prof::Slot::FtlOrtLookup);
    if (!features_.ort)
        return 0;
    const auto shift = ort_.lookup(chip, addr.block, addr.layer);
    if (shift)
        ++cubeStats_.ortGuidedReads;
    return shift.value_or(0);
}

bool
CubeFtl::readSoftHint(std::uint32_t chip, const nand::PageAddr &addr)
{
    // A cached ORT entry means this h-layer has already needed
    // retries: its pages are noisy, so start with the soft decode
    // (the paper's Sec. 8 leader-informed ECC idea). Entry presence —
    // not a non-zero shift — is the signal: a calibrated 0 mV entry
    // still marks a noisy layer.
    PROF_SCOPE(prof::Slot::FtlOrtLookup);
    if (!features_.eccHint || !features_.ort)
        return false;
    return ort_.contains(chip, addr.block, addr.layer);
}

void
CubeFtl::onProgramComplete(std::uint32_t chip,
                           const ProgramChoice &choice,
                           const nand::WlProgramResult &result)
{
    if (choice.monitor) {
        PROF_SCOPE(prof::Slot::FtlOpm);
        LeaderParams params = opm_.derive(
            result, chipModel(chip).blockAging(choice.wl.block));
        params.epoch = chipModel(chip).blockEpoch(choice.wl.block);
        LeaderParams *cached = leaderParams(chip, choice.wl);
        if (cached == nullptr)
            cached = &takeSlot(chip, choice.wl.block)[choice.wl.layer];
        *cached = params;
    }
}

LeaderParams *
CubeFtl::leaderParams(std::uint32_t chip, const nand::WlAddr &wl)
{
    for (ParamSlot &slot : state_[chip].slots) {
        if (slot.block == wl.block)
            return &slot.layers[wl.layer];
    }
    return nullptr;
}

std::vector<LeaderParams> &
CubeFtl::takeSlot(std::uint32_t chip, std::uint32_t block)
{
    for (ParamSlot &slot : state_[chip].slots) {
        if (slot.block != kInvalid32 &&
            blockManager(chip).info(slot.block).isActive)
            continue;
        slot.block = block;
        slot.layers.assign(slot.layers.size(), LeaderParams{});
        return slot.layers;
    }
    panic("CubeFtl: chip %u programs more blocks than it has write "
          "points", chip);
}

void
CubeFtl::onReadComplete(std::uint32_t chip, const nand::PageAddr &addr,
                        const nand::ReadOutcome &outcome)
{
    // Remember the shift that finally decoded for this h-layer; the
    // next read to any WL on the layer starts there (Sec. 4.2).
    if (features_.ort && outcome.numRetries > 0 && !outcome.uncorrectable)
        ort_.update(chip, addr.block, addr.layer, outcome.successShiftMv);
}

void
CubeFtl::onBlockErased(std::uint32_t chip, std::uint32_t block)
{
    ort_.resetBlock(chip, block);
    for (ParamSlot &slot : state_[chip].slots) {
        if (slot.block == block)
            slot.block = kInvalid32;
    }
}

void
CubeFtl::onBlockRetired(std::uint32_t chip, std::uint32_t block)
{
    // Force any write point open on the retired block to exhausted so
    // the next pick replaces it with a fresh allocation.
    auto &cs = state_[chip];
    const auto exhaust = [this](MixedWritePoint &wp) {
        wp.iLeader = geometry().layersPerBlock;
        wp.iFollower = geometry().layersPerBlock;
    };
    if (cs.open) {
        for (auto &wp : cs.host) {
            if (wp.block == block)
                exhaust(wp);
        }
    }
    if (cs.gcOpen && cs.gc.block == block)
        exhaust(cs.gc);
    // Cached ORT shifts and OPM parameters die with the block.
    onBlockErased(chip, block);
}

bool
CubeFtl::safetyCheck(std::uint32_t chip, const ProgramChoice &choice,
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
