/**
 * @file
 * WL Allocation Manager (WAM, paper Sec. 5.2 / Fig. 16).
 *
 * The WAM steers each flush to a leader or follower WL based on the
 * write-buffer utilization mu: above mu_TH (high write-bandwidth
 * demand) it spends fast follower WLs; below, it programs slow leader
 * WLs, replenishing the follower pool for the next burst.
 *
 * An active block is managed in fully mixed (MOS) fashion with two
 * write points: i_Leader — the next h-layer with an unprogrammed
 * leader — and i_Follower — the h-layer whose followers are being
 * consumed. Followers are available while i_Follower < i_Leader.
 */

#ifndef CUBESSD_FTL_WAM_H
#define CUBESSD_FTL_WAM_H

#include <cstdint>
#include <optional>
#include <span>

#include "src/nand/geometry.h"

namespace cubessd::ftl {

/** MOS write-point state of one active block. */
struct MixedWritePoint
{
    std::uint32_t block = 0;
    std::uint32_t iLeader = 0;    ///< next h-layer with a free leader
    std::uint32_t iFollower = 0;  ///< h-layer whose followers are in use
    std::uint32_t followerUsed = 0;  ///< followers consumed on iFollower

    bool
    full(const nand::NandGeometry &geom) const
    {
        return iLeader >= geom.layersPerBlock &&
               iFollower >= geom.layersPerBlock;
    }

    bool
    hasFollower(const nand::NandGeometry &geom) const
    {
        return iFollower < iLeader && iFollower < geom.layersPerBlock &&
               followerUsed < geom.wlsPerLayer - 1;
    }

    bool
    hasLeader(const nand::NandGeometry &geom) const
    {
        return iLeader < geom.layersPerBlock;
    }
};

/** One allocation decision. */
struct WlChoice
{
    nand::WlAddr wl{};
    bool isLeader = false;
};

class Wam
{
  public:
    explicit Wam(double muThreshold) : muThreshold_(muThreshold) {}

    double muThreshold() const { return muThreshold_; }

    /**
     * Pick the next WL of `wp` given buffer utilization `mu`: followers
     * first above mu_TH, leaders first otherwise.
     * @return nullopt if the block is full.
     */
    std::optional<WlChoice>
    choose(MixedWritePoint &wp, const nand::NandGeometry &geom,
           double mu) const
    {
        return take({&wp, 1}, geom, mu > muThreshold_);
    }

    /**
     * Pick the next WL of the first of `points` that has one of the
     * preferred kind (followers if `followerFirst`, else leaders), or
     * failing that of the other kind.
     * @return nullopt if every block is full.
     */
    std::optional<WlChoice>
    take(std::span<MixedWritePoint> points, const nand::NandGeometry &geom,
         bool followerFirst) const;

    /** Take the next follower WL regardless of mu (if any). */
    std::optional<WlChoice>
    takeFollower(MixedWritePoint &wp,
                 const nand::NandGeometry &geom) const;

    /** Take the next leader WL regardless of mu (if any). */
    std::optional<WlChoice>
    takeLeader(MixedWritePoint &wp, const nand::NandGeometry &geom) const;

  private:
    double muThreshold_;
};

}  // namespace cubessd::ftl

#endif  // CUBESSD_FTL_WAM_H
