/**
 * @file
 * pageFTL: the paper's baseline — a page-level mapping FTL with no
 * 3D-NAND-specific optimization. Every WL is programmed with default
 * parameters in horizontal-first order, and every read starts the
 * retry search from the chip-default references.
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
    PageFtl(const ssd::SsdConfig &config,
            std::vector<ssd::ChipUnit> &chips, sim::EventQueue &queue);

    std::unique_ptr<FtlBase> clone(std::vector<ssd::ChipUnit> &chips,
                                   sim::EventQueue &queue) const override;

  protected:
    /** Copy of idle `other` for clone(). */
    PageFtl(const PageFtl &other, std::vector<ssd::ChipUnit> &chips,
            sim::EventQueue &queue);

    void hashPolicyState(StateHash &h) const override;

    ProgramChoice chooseProgramTarget(std::uint32_t chip, bool forGc,
                                      double mu) override;

    /** Abandon any write point open on a retired block. */
    void onBlockRetired(std::uint32_t chip,
                        std::uint32_t block) override;

    /**
     * Program parameters for the next WL; the default implementation
     * returns the nominal command. VertFtl overrides this with its
     * static per-layer table.
     */
    virtual nand::ProgramCommand
    commandFor(std::uint32_t chip, const nand::WlAddr &wl)
    {
        (void)chip;
        (void)wl;
        return nand::ProgramCommand{};
    }

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
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_PAGE_FTL_H
