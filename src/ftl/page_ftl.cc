#include "src/ftl/page_ftl.h"

namespace cubessd::ftl {

PageFtl::PageFtl(const ssd::SsdConfig &config,
                 std::vector<ssd::ChipUnit> &chips,
                 sim::EventQueue &queue)
    : FtlBase(config, chips, queue),
      pattern_(programSequence(ProgramOrderKind::HorizontalFirst,
                               geometry(), 0)),
      hostWp_(chipCount()),
      gcWp_(chipCount())
{
}

PageFtl::PageFtl(const PageFtl &other, std::vector<ssd::ChipUnit> &chips,
                 sim::EventQueue &queue)
    : FtlBase(other, chips, queue),
      pattern_(other.pattern_),
      hostWp_(other.hostWp_),
      gcWp_(other.gcWp_)
{
}

std::unique_ptr<FtlBase>
PageFtl::clone(std::vector<ssd::ChipUnit> &chips,
               sim::EventQueue &queue) const
{
    return std::unique_ptr<FtlBase>(new PageFtl(*this, chips, queue));
}

void
PageFtl::hashPolicyState(StateHash &h) const
{
    for (const auto *points : {&hostWp_, &gcWp_}) {
        for (const WritePoint &wp : *points)
            h.add(wp.open).add(wp.block).add(wp.seqIndex);
    }
}

nand::WlAddr
PageFtl::nextWl(std::uint32_t chip, WritePoint &wp)
{
    if (!wp.open || wp.seqIndex >= pattern_.size()) {
        wp.block = allocateBlock(chip);
        wp.seqIndex = 0;
        wp.open = true;
    }
    nand::WlAddr wl = pattern_[wp.seqIndex++];
    wl.block = wp.block;
    return wl;
}

void
PageFtl::onBlockRetired(std::uint32_t chip, std::uint32_t block)
{
    // The next nextWl() on an abandoned point allocates a fresh block.
    if (hostWp_[chip].open && hostWp_[chip].block == block)
        hostWp_[chip].open = false;
    if (gcWp_[chip].open && gcWp_[chip].block == block)
        gcWp_[chip].open = false;
}

ProgramChoice
PageFtl::chooseProgramTarget(std::uint32_t chip, bool forGc, double mu)
{
    (void)mu;
    ProgramChoice choice;
    choice.wl = nextWl(chip, forGc ? gcWp_[chip] : hostWp_[chip]);
    choice.cmd = commandFor(chip, choice.wl);
    choice.isLeader = isLeaderWl(choice.wl);
    choice.monitor = true;  // PS-unaware: nothing is derived or reused
    return choice;
}

}  // namespace cubessd::ftl
