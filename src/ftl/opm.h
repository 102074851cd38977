/**
 * @file
 * Optimal Parameter Manager (paper Sec. 5.1).
 *
 * The OPM converts what was *monitored* on an h-layer's leader WL into
 * the program parameters of the h-layer's follower WLs:
 *
 *  1. the per-state ISPP loop windows [L_min, L_max] become a VFY skip
 *     plan (Sec. 4.1.1);
 *  2. the measured BER_EP1 becomes a spare margin S_M, which a
 *     predefined conversion table turns into a total V_Start/V_Final
 *     adjustment (Sec. 4.1.2), split between the two by a second
 *     predefined table.
 *
 * It also implements the safety check of Sec. 4.1.4: a follower whose
 * post-program BER deviates far from its leader's is deemed improperly
 * programmed and must be re-programmed with fresh monitoring.
 */

#ifndef CUBESSD_FTL_OPM_H
#define CUBESSD_FTL_OPM_H

#include <cstdint>

#include "src/ecc/ecc.h"
#include "src/nand/error_model.h"
#include "src/nand/ispp.h"

namespace cubessd::ftl {

/** OPM policy constants. */
struct OpmConfig
{
    /** Fraction of the safe BER headroom actually spent. The reserve
     *  covers run-time measurement noise AND the read path's
     *  reference-misalignment budget (ORT entries are quantized to
     *  the retry step): spending more near end of life turns every
     *  follower read into a retry storm. */
    double marginGuard = 0.5;
    /** Largest total V_Start + V_Final adjustment considered
     *  physically meaningful (paper Fig. 10 margins top out here;
     *  calibrated so the follower tPROG cut tops out near the
     *  paper's 35.9%). */
    MilliVolt maxShrinkMv = 300;
    /** Share of the total adjustment given to V_Start (the rest goes
     *  to V_Final) — the paper's second predefined table. */
    double vStartShare = 0.6;
    /** Voltage DAC granularity for the adjustments. */
    MilliVolt granularityMv = 10;
    /** Safety check (Sec. 4.1.4): re-program when the follower's BER
     *  multiplier exceeds the leader-derived expectation by this. */
    double safetyBerFactor = 1.5;
};

/** Program parameters derived from one leader WL. */
struct LeaderParams
{
    bool valid = false;
    /** Skip plan matched to the V_Start adjustment below. */
    std::array<int, nand::kTlcStates> skipPlan{};
    /** Skip plan for a follower programmed *without* the window
     *  adjustment (ablations disable the two independently). */
    std::array<int, nand::kTlcStates> skipPlanUnshifted{};
    MilliVolt vStartAdjMv = 0;
    MilliVolt vFinalAdjMv = 0;
    /** The leader's measured BER_EP1 (for the safety check). */
    double leaderBerEp1Norm = 0.0;
    /** BER multiplier the adjustment is expected to cost. */
    double expectedMultiplier = 1.0;
    /** Aging epoch of the leader's block when these parameters were
     *  derived (NandChip::blockEpoch). Followers only apply them while
     *  the block's erase count still matches: stale parameters from a
     *  block generation that has since been erased would be unsafe.
     *  (The FTL's explicit onBlockErased flush already guarantees
     *  this — the gate turns the convention into a checked invariant
     *  at zero behavioral cost.) */
    std::uint64_t epoch = 0;

    /** Total V_Start + V_Final adjustment granted. */
    MilliVolt totalAdjustMv() const { return vStartAdjMv + vFinalAdjMv; }

    /** Assemble the NAND program command for a follower WL. */
    nand::ProgramCommand
    followerCommand() const
    {
        return followerCommand(true, true);
    }

    /**
     * Ablation variant: build the follower command with either of the
     * two program-latency techniques disabled.
     */
    nand::ProgramCommand
    followerCommand(bool vfySkip, bool windowAdjust) const
    {
        nand::ProgramCommand cmd;
        if (windowAdjust) {
            cmd.vStartAdjMv = vStartAdjMv;
            cmd.vFinalAdjMv = vFinalAdjMv;
        }
        if (vfySkip) {
            cmd.useSkipPlan = true;
            cmd.skipVfy = windowAdjust ? skipPlan : skipPlanUnshifted;
        }
        return cmd;
    }
};

class Opm
{
  public:
    /**
     * @param deltaVMv the chip's dV_ISPP: a raised V_Start shifts every
     *        monitored loop index down by vStartAdj / dV, and the skip
     *        plan must be shifted with it to stay safe.
     */
    Opm(const OpmConfig &config, const nand::ErrorModel &errors,
        const ecc::EccModel &ecc, MilliVolt deltaVMv);

    /**
     * Derive follower program parameters from a completed leader
     * program (the monitored [L_min, L_max] and BER_EP1).
     *
     * @param aging the target block's current wear/retention state
     *        (the FTL tracks per-block P/E counts); the margin is
     *        projected to the end of the data's retention life.
     */
    LeaderParams derive(const nand::WlProgramResult &leader,
                        const nand::AgingState &aging) const;

    /**
     * Safety check (Sec. 4.1.4): did this follower program deviate so
     * far from the leader-derived expectation that it must be redone?
     */
    bool needsReprogram(const LeaderParams &params,
                        const nand::WlProgramResult &follower) const;

  private:
    OpmConfig config_;
    nand::ErrorModel errors_;
    MilliVolt deltaVMv_;
    double eccLimitNorm_;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_OPM_H
