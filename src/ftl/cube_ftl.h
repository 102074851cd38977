/**
 * @file
 * cubeFTL: the paper's PS-aware FTL (Sec. 5).
 *
 * Combines all four techniques on top of the shared FTL engine:
 *
 *  - OPM: monitors each h-layer's leader WL ([L_min, L_max], BER_EP1)
 *    and derives the follower program command (VFY skip plan +
 *    V_Start/V_Final adjustment), plus the Sec. 4.1.4 safety check;
 *  - WAM: steers each flush to a leader or follower WL based on the
 *    write-buffer utilization, managing two active blocks per chip in
 *    fully mixed (MOS) order;
 *  - ORT: caches the most recent good read-reference shift per
 *    physical h-layer and reuses it for every read on that layer.
 *
 * Constructing with `CubeFeatures::wam = false` yields the paper's
 * cubeFTL- ablation: PS-aware program/read parameters, but
 * horizontal-first allocation with no workload awareness.
 */

#ifndef CUBESSD_FTL_CUBE_FTL_H
#define CUBESSD_FTL_CUBE_FTL_H

#include <vector>

#include "src/ftl/ftl_base.h"
#include "src/ftl/opm.h"
#include "src/ftl/ort.h"
#include "src/ftl/wam.h"

namespace cubessd::ftl {

/** cubeFTL-specific counters (on top of FtlStats). */
struct CubeFtlStats
{
    std::uint64_t followerWithParams = 0;  ///< fast-path followers
    std::uint64_t followerWithoutParams = 0;  ///< degraded to monitor
    std::uint64_t ortGuidedReads = 0;
};

class CubeFtl : public FtlBase
{
  public:
    /**
     * @param model chip 0's model, whose error, ECC and ISPP models
     *        set up the OPM (every chip shares their configuration).
     * @param features technique switches (config.cubeFeatures for a
     *        device).
     */
    CubeFtl(const ssd::SsdConfig &config, const nand::NandChip &model,
            const ssd::CubeFeatures &features = {});

    std::unique_ptr<FtlBase> clone() const override;

    const ssd::CubeFeatures &features() const { return features_; }
    const Ort &ort() const { return ort_; }
    const CubeFtlStats &cubeStats() const { return cubeStats_; }

    /** Engine gauges plus the ORT hit rate and follower fast-path
     *  count (the PS mechanisms as time-series). */
    void registerCounters(trace::CounterRegistry &reg) override;

  protected:
    void hashPolicyState(StateHash &h) const override;

    ProgramChoice chooseProgramTarget(std::uint32_t chip, bool forGc,
                                      double mu) override;
    MilliVolt readShiftFor(std::uint32_t chip,
                           const nand::PageAddr &addr) override;
    bool readSoftHint(std::uint32_t chip,
                      const nand::PageAddr &addr) override;
    void onProgramComplete(std::uint32_t chip,
                           const ProgramChoice &choice,
                           const nand::WlProgramResult &result) override;
    void onReadComplete(std::uint32_t chip, const nand::PageAddr &addr,
                        const nand::ReadOutcome &outcome) override;
    void onBlockErased(std::uint32_t chip, std::uint32_t block) override;
    void onBlockRetired(std::uint32_t chip,
                        std::uint32_t block) override;
    bool safetyCheck(std::uint32_t chip, const ProgramChoice &choice,
                     const nand::WlProgramResult &result) override;

  private:
    /** OPM parameters of one block being programmed, per h-layer. */
    struct ParamSlot
    {
        std::uint32_t block = kInvalid32;  ///< kInvalid32: free
        std::vector<LeaderParams> layers;
    };

    /** Host write points (two active blocks per chip) + one GC point. */
    struct ChipState
    {
        bool open = false;
        MixedWritePoint host[2];
        MixedWritePoint gc;
        bool gcOpen = false;
        /** OPM parameter cache: one slot per write point, sized at
         *  construction so the program path never touches the heap. */
        std::vector<ParamSlot> slots;
    };

    /** Cached parameters of `wl`'s h-layer, or null if its block
     *  holds no slot (which reads as an invalid entry). */
    LeaderParams *leaderParams(std::uint32_t chip, const nand::WlAddr &wl);

    /**
     * Give `block` a slot of invalid entries. A block takes one at its
     * first monitored completion and needs it until it closes: each
     * die programs in dispatch order, so a write point's old block
     * closes before its next block's first completion, and a slot
     * whose block is no longer active (closed or retired) is free.
     */
    std::vector<LeaderParams> &takeSlot(std::uint32_t chip,
                                        std::uint32_t block);

    void ensureOpen(std::uint32_t chip);
    WlChoice pickHostWl(std::uint32_t chip, double mu);
    WlChoice pickGcWl(std::uint32_t chip, double mu);
    ProgramChoice finalizeChoice(std::uint32_t chip,
                                 const WlChoice &pick);

    Opm opm_;
    Wam wam_;
    Ort ort_;
    ssd::CubeFeatures features_;
    std::vector<ChipState> state_;
    CubeFtlStats cubeStats_;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_CUBE_FTL_H
