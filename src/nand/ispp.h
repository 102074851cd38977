/**
 * @file
 * Incremental Step Pulse Programming (ISPP) engine.
 *
 * Models a one-pass TLC program operation at the micro-operation level
 * of the paper's Sec. 2.2: a sequence of program pulses (PGM) of
 * voltage V_Start + n * dV_ISPP, each followed by verify steps (VFY)
 * for every program state whose cells are not yet all in place.
 *
 *   tPROG = sum_i (tPGM + k_i * tVFY)        (paper Eq. 1)
 *
 * A cell with program-speed boost b reaches state s's target Vt on
 * pulse n = ceil((Vt(s) - b - vStartAdj) / dV). Per-WL cell speeds are
 * Gaussian, so each state s occupies an absolute loop window
 * [L_min(s), L_max(s)] (fastest cell .. slowest cell, +-3 sigma).
 *
 * The engine supports the two PS-aware knobs of Sec. 4.1:
 *  - a *skip plan*: per-state count of leading VFYs to omit. Skipping
 *    more than the safe L_min(s)-1 over-programs fast cells and adds
 *    BER (Fig. 8(a)).
 *  - *window adjustment*: vStartAdj raises V_Start (fewer loops to
 *    reach each state), vFinalAdj lowers V_Final (caps MaxLoop).
 *    Shrinking the window trades BER margin for latency (Fig. 9).
 */

#ifndef CUBESSD_NAND_ISPP_H
#define CUBESSD_NAND_ISPP_H

#include <array>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/nand/error_model.h"

namespace cubessd::nand {

/** Maximum supported programmed states (3-bit TLC: P1..P7). */
inline constexpr int kMaxProgramStates = 7;
/** Number of programmed states in TLC NAND (P1..P7). */
inline constexpr int kTlcStates = kMaxProgramStates;

/** ISPP design parameters (paper Fig. 3(a)); defaults calibrated so the
 *  default tPROG is ~700 us, the paper's nominal TLC program time. */
struct IsppConfig
{
    /** Programmed states: 7 for TLC (default), 3 for MLC, 1 for SLC.
     *  Must match the geometry's pagesPerWl (2^pages - 1). */
    int programStates = kTlcStates;
    /** V_Final - V_Start in the default (worst-case-safe) setting. */
    MilliVolt windowMv = 1600;
    /** Per-pulse voltage increment dV_ISPP. */
    MilliVolt deltaVMv = 100;
    /** Vt target of P1 above the first pulse voltage. */
    MilliVolt firstStateOffsetMv = 200;
    /** Vt target spacing between adjacent states. */
    MilliVolt stateSpacingMv = 200;
    /** Per-cell program-speed spread (std-dev, mV), fresh. */
    double cellSigmaMv = 55.0;
    /** Spread growth with aging: sigma_eff = sigma * (1 + k * sev). */
    double sigmaAging = 0.25;
    /** Mean-speed slowdown (mV) per unit of sev * (q - 1). */
    double speedAging = 40.0;
    /** One program pulse. */
    SimTime tPgm = 31500;         // 31.5 us
    /** One verify step. */
    SimTime tVfy = 2800;          // 2.8 us

    /** MaxLoop of the default window. */
    int maxLoops() const { return windowMv / deltaVMv; }

    /** Vt target of state s (1-based) above default V_Start. */
    MilliVolt
    stateTargetMv(int state) const
    {
        return firstStateOffsetMv + stateSpacingMv * (state - 1);
    }

    bool operator==(const IsppConfig &) const = default;
};

/** Per-state absolute ISPP loop window (1-based, inclusive). */
struct StateLoops
{
    int lMin = 1;  ///< loop on which the fastest cells arrive
    int lMax = 1;  ///< loop on which the slowest cells arrive
};

/**
 * Per-loop VFY counts (k_i for ISPP loop i), fixed-capacity so
 * computing a schedule never touches the heap. Container-like just
 * enough for the characterization benches and tests.
 */
struct VerifySchedule
{
    /** Generous bound: the default window runs 16 loops; anything
     *  near this limit indicates a mis-calibrated configuration. */
    static constexpr int kMaxLoops = 64;

    std::array<int, kMaxLoops> counts{};
    int loops = 0;  ///< number of valid entries

    std::size_t size() const { return static_cast<std::size_t>(loops); }
    bool empty() const { return loops == 0; }
    int operator[](std::size_t i) const { return counts[i]; }
    int front() const { return counts[0]; }
    const int *begin() const { return counts.data(); }
    const int *end() const { return counts.data() + loops; }
};

/** PS-aware knobs applied to one WL program (default = leader/PS-unaware). */
struct ProgramCommand
{
    MilliVolt vStartAdjMv = 0;   ///< raise of V_Start (>= 0)
    MilliVolt vFinalAdjMv = 0;   ///< lowering of V_Final (>= 0)
    bool useSkipPlan = false;
    /** Per-state count of leading VFYs to skip (valid iff useSkipPlan). */
    std::array<int, kTlcStates> skipVfy{};

    /** @return true if any non-default parameter is set (needs a
     *  Set-Feature command on the chip, Sec. 4.1.4 / 5.1). */
    bool
    nonDefault() const
    {
        return vStartAdjMv != 0 || vFinalAdjMv != 0 || useSkipPlan;
    }

    MilliVolt totalShrinkMv() const { return vStartAdjMv + vFinalAdjMv; }
};

/** Outcome of one WL program operation. */
struct WlProgramResult
{
    SimTime tProg = 0;           ///< total program latency
    int loopsUsed = 0;           ///< ISPP loops actually executed
    int verifiesDone = 0;        ///< VFY steps actually executed
    int verifiesSkipped = 0;     ///< VFY steps omitted via the skip plan
    /** Monitored per-state loop windows (the OPM's [L_min, L_max]). */
    std::array<StateLoops, kTlcStates> loops{};
    /** Monitored normalized BER between E and P1 (the OPM's BER_EP1). */
    double berEp1Norm = 0.0;
    /** Multiplier (>= 1) this program applied to the WL's natural BER
     *  (window shrink + over/under-programming costs). */
    double berMultiplier = 1.0;
    /** True if V_Final truncation cut off the slowest cells. */
    bool truncated = false;
    /** True if the chip reported program-status fail: the WL holds no
     *  data and the FTL must retire the block (FaultInjector). */
    bool failed = false;
};

/**
 * ISPP computation engine (per-chip NAND state lives in NandChip; the
 * engine itself only carries its own copy of the error model and lazy
 * memo tables of its own pure functions).
 */
class IsppEngine
{
  public:
    IsppEngine(const IsppConfig &config, const ErrorModel &errors);

    const IsppConfig &config() const { return config_; }

    /**
     * Per-state absolute loop windows for a WL with mean speed boost
     * `speedMv` and quality q under `aging`, given a V_Start raise.
     * Entries beyond programStates stay at their default {1, 1}.
     */
    std::array<StateLoops, kTlcStates>
    stateLoops(double speedMv, double q, const AgingState &aging,
               MilliVolt vStartAdjMv) const;

    /** Aging-widened cell-speed spread, factored out for memoization. */
    double
    effectiveSigma(double severity) const
    {
        return config_.cellSigmaMv * (1.0 + config_.sigmaAging *
                                                severity);
    }

    /** stateLoops() from precomputed severity/sigma terms (the same
     *  values stateLoops derives from `aging`; see ErrorTermCache). */
    std::array<StateLoops, kTlcStates>
    stateLoopsFromTerms(double speedMv, double q, double severity,
                        double sigma, MilliVolt vStartAdjMv) const;

    /**
     * The default (PS-unaware) verify schedule: k_i, the number of
     * VFY steps in ISPP loop i (paper Fig. 3(b) — every state not yet
     * completed is verified on every loop).
     */
    VerifySchedule
    defaultVerifySchedule(
        const std::array<StateLoops, kTlcStates> &loops) const;

    /**
     * Execute one WL program.
     *
     * @param q        WL quality factor (ProcessModel::wlQuality)
     * @param speedMv  WL mean program-speed boost
     * @param aging    wear/retention condition of the block
     * @param chipFactor per-chip BER multiplier
     * @param cmd      PS-aware knobs (default-constructed = leader)
     * @param rng      source for measurement/operation noise
     */
    WlProgramResult program(double q, double speedMv,
                            const AgingState &aging, double chipFactor,
                            const ProgramCommand &cmd, Rng &rng) const;

    /**
     * program() with the aging-dependent model terms supplied by the
     * caller (NandChip's ErrorTermCache): `severity` and `sigma` as
     * stateLoops would derive them from the aging state, and
     * `normBase` = ErrorModel::normalizedBer(q, aging, chipFactor).
     * Scalar arguments on purpose — the cache stays decoupled from
     * this header. Bit-identical to program() by construction.
     */
    WlProgramResult programWithTerms(double q, double speedMv,
                                     double severity, double sigma,
                                     double normBase,
                                     const ProgramCommand &cmd,
                                     Rng &rng) const;

    /**
     * The paper's safe skip plan (Sec. 4.1.1): for state s skip the
     * VFYs of all loops before the leader's observed L_min(s).
     */
    static std::array<int, kTlcStates>
    safeSkipPlan(const std::array<StateLoops, kTlcStates> &leaderLoops);

  private:
    /** Memoized ErrorModel::windowShrinkMultiplier keyed by the integer
     *  shrink (mV). Every follower program pays this multiplier, and the
     *  same few shrink values repeat for the device's lifetime — but the
     *  underlying pow() must only run once per distinct input so the
     *  cached double is the exact same expression result (the fig17/18
     *  bit-identity contract). 0.0 marks an unfilled entry: a real
     *  multiplier is always >= 1. */
    double shrinkMultiplier(MilliVolt shrinkMv) const;

    /** Memoized ErrorModel::overProgramMultiplier, same contract:
     *  extraSkips is a small loop count, state is 1-based. */
    double overMultiplier(int extraSkips, int state) const;

    IsppConfig config_;
    ErrorModel errors_;

    static constexpr int kShrinkCacheSize = 2048;
    mutable std::array<double, kShrinkCacheSize> shrinkMult_{};
    mutable std::array<std::array<double, kTlcStates>,
                       VerifySchedule::kMaxLoops>
        overMult_{};
};

}  // namespace cubessd::nand

#endif  // CUBESSD_NAND_ISPP_H
