/**
 * @file
 * vertFTL: the state-of-the-art comparison point of the paper's
 * evaluation, modelled on Hung et al. [13].
 *
 * It exploits *inter-layer variability only*, with an offline static
 * table: for every h-layer, the largest V_Final reduction that stays
 * safe for the worst block of that layer under the worst operating
 * condition (end-of-life P/E count, end-of-life retention, plus a
 * static guard band for unobservable factors such as temperature).
 * Because it cannot measure anything at run time, the table is
 * necessarily conservative — the paper reports only ~8% average tPROG
 * improvement versus cubeFTL's ~30%.
 */

#ifndef CUBESSD_FTL_VERT_FTL_H
#define CUBESSD_FTL_VERT_FTL_H

#include <vector>

#include "src/common/types.h"
#include "src/ftl/page_ftl.h"

namespace cubessd::ftl {

/** Offline-characterization policy constants for vertFTL. */
struct VertFtlConfig
{
    /**
     * V_Final reduction granted to a hypothetical perfect layer
     * (profile 0). [13] reports ~130 mV for the most reliable layer
     * over its whole lifetime; layers degrade linearly toward 0 as
     * their structural penalty approaches the worst layer's. The
     * resulting reduction must stay BER-safe at end of life for the
     * worst block, which the constructor verifies against the error
     * model.
     */
    MilliVolt baseAdjustMv = 140;
    /** Table granularity. */
    MilliVolt granularityMv = 10;
};

class VertFtl : public PageFtl
{
  public:
    VertFtl(const ssd::SsdConfig &config,
            std::vector<ssd::ChipUnit> &chips, sim::EventQueue &queue,
            const VertFtlConfig &vertConfig = {});

    std::unique_ptr<FtlBase> clone(std::vector<ssd::ChipUnit> &chips,
                                   sim::EventQueue &queue) const override;

    /** The offline per-layer V_Final reduction table (for reports). */
    const std::vector<MilliVolt> &table() const { return table_; }

  protected:
    /** Copy of idle `other` for clone(). */
    VertFtl(const VertFtl &other, std::vector<ssd::ChipUnit> &chips,
            sim::EventQueue &queue)
        : PageFtl(other, chips, queue), vertConfig_(other.vertConfig_),
          table_(other.table_)
    {
    }

    nand::ProgramCommand commandFor(std::uint32_t chip,
                                    const nand::WlAddr &wl) override;

  private:
    void buildTable(const ssd::SsdConfig &config,
                    const std::vector<ssd::ChipUnit> &chips);

    VertFtlConfig vertConfig_;
    std::vector<MilliVolt> table_;  ///< per h-layer V_Final reduction
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_VERT_FTL_H
