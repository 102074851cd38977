#include "src/ftl/wam.h"

namespace cubessd::ftl {

namespace {

/** After consuming a follower, roll to the next h-layer when the
 *  current one is exhausted, so the invariants stay normalized. */
void
normalize(MixedWritePoint &wp, const nand::NandGeometry &geom)
{
    while (wp.iFollower < geom.layersPerBlock &&
           wp.followerUsed >= geom.wlsPerLayer - 1) {
        ++wp.iFollower;
        wp.followerUsed = 0;
    }
}

}  // namespace

std::optional<WlChoice>
Wam::takeFollower(MixedWritePoint &wp,
                  const nand::NandGeometry &geom) const
{
    normalize(wp, geom);
    if (!wp.hasFollower(geom))
        return std::nullopt;
    WlChoice choice;
    choice.isLeader = false;
    choice.wl = nand::WlAddr{wp.block, wp.iFollower, wp.followerUsed + 1};
    ++wp.followerUsed;
    normalize(wp, geom);
    return choice;
}

std::optional<WlChoice>
Wam::takeLeader(MixedWritePoint &wp, const nand::NandGeometry &geom) const
{
    if (!wp.hasLeader(geom))
        return std::nullopt;
    WlChoice choice;
    choice.isLeader = true;
    choice.wl = nand::WlAddr{wp.block, wp.iLeader, 0};
    ++wp.iLeader;
    return choice;
}

std::optional<WlChoice>
Wam::take(std::span<MixedWritePoint> points, const nand::NandGeometry &geom,
          bool followerFirst) const
{
    for (MixedWritePoint &wp : points)
        normalize(wp, geom);
    for (const bool follower : {followerFirst, !followerFirst}) {
        for (MixedWritePoint &wp : points) {
            auto c = follower ? takeFollower(wp, geom)
                              : takeLeader(wp, geom);
            if (c)
                return c;
        }
    }
    return std::nullopt;
}

}  // namespace cubessd::ftl
