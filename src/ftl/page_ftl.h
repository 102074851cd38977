/**
 * @file
 * pageFTL and vertFTL, the paper's two PS-unaware comparison points:
 * page-level mapping, horizontal-first program order, and every read
 * starting the retry search from the chip-default references.
 *
 * pageFTL is the baseline, with no 3D-NAND-specific optimization:
 * every WL is programmed with default parameters.
 *
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
 *
 * One class serves both: the table is empty for pageFTL.
 */

#ifndef CUBESSD_FTL_PAGE_FTL_H
#define CUBESSD_FTL_PAGE_FTL_H

#include <vector>

#include "src/ftl/ftl_base.h"
#include "src/ftl/program_order.h"

namespace cubessd::ftl {

class PageFtl : public FtlBase
{
  public:
    /**
     * @param model chip 0's model; vertFTL (config.ftl ==
     *        FtlKind::Vert) builds its table from it.
     */
    PageFtl(const ssd::SsdConfig &config, const nand::NandChip &model);

    std::unique_ptr<FtlBase> clone() const override;

    /** vertFTL's offline per-h-layer V_Final reduction; empty for
     *  pageFTL. */
    const std::vector<MilliVolt> &vFinalTable() const { return vFinal_; }

  protected:
    void hashPolicyState(StateHash &h) const override;

    ProgramChoice chooseProgramTarget(std::uint32_t chip, bool forGc,
                                      double mu) override;

    /** Abandon any write point open on a retired block. */
    void onBlockRetired(std::uint32_t chip,
                        std::uint32_t block) override;

  private:
    /** Sequential write point over a static program sequence. */
    struct WritePoint
    {
        bool open = false;
        std::uint32_t block = 0;
        std::uint32_t seqIndex = 0;
    };

    nand::WlAddr nextWl(std::uint32_t chip, WritePoint &wp);

    /** Layer/WL pattern shared by all blocks (block id substituted). */
    std::vector<nand::WlAddr> pattern_;
    std::vector<WritePoint> hostWp_;  ///< per chip
    std::vector<WritePoint> gcWp_;    ///< per chip
    std::vector<MilliVolt> vFinal_;   ///< per h-layer; empty: pageFTL
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_PAGE_FTL_H
