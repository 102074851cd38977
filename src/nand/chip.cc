#include "src/nand/chip.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/prof/prof.h"

namespace cubessd::nand {

NandChip::NandChip(const NandChipConfig &config)
    : config_(config),
      codec_(config.geometry),
      process_(config.geometry, config.process, config.seed),
      errors_(config.errors),
      vth_(config.vth, config.seed),
      ispp_(config.ispp, errors_),
      ecc_(config.ecc),
      read_(config.read, vth_, errors_, ecc_),
      faults_(config.faults, errors_, config.seed),
      terms_(config.geometry, process_, errors_, vth_),
      rng_(config.seed ^ 0xC0FFEE123456789ull)
{
    blocks_.resize(config_.geometry.blocksPerChip);
    for (auto &block : blocks_) {
        block.wls.resize(config_.geometry.wlsPerBlock());
        block.tokens.assign(config_.geometry.pagesPerBlock(), 0);
    }
}

void
NandChip::hashState(StateHash &h) const
{
    rng_.hashState(h);
    faults_.hashState(h);
    terms_.hashState(h);
    h.add(baseAging_.peCycles).add(baseAging_.retentionMonths);
    for (const BlockState &block : blocks_) {
        h.add(block.eraseCount);
        for (const WlState &wl : block.wls)
            h.add(wl.programmedPages).add(wl.berMultiplier);
        h.add(block.tokens);
    }
    h.add(stats_);
}

AgingState
NandChip::blockAging(std::uint32_t block) const
{
    AgingState aging = baseAging_;
    // Saturate: an injected count near the 32-bit limit plus runtime
    // erases must not wrap around to a fresh block.
    const std::uint64_t pe = std::uint64_t{aging.peCycles} +
                             blocks_.at(block).eraseCount;
    aging.peCycles = static_cast<PeCycles>(std::min<std::uint64_t>(
        pe, std::numeric_limits<PeCycles>::max()));
    return aging;
}

SimTime
NandChip::eraseBlock(std::uint32_t block, bool *failed)
{
    PROF_SCOPE(prof::Slot::NandErase);
    if (block >= blocks_.size())
        panic("eraseBlock: block %u out of range", block);
    auto &state = blocks_[block];
    bool fail;
    {
        PROF_SCOPE(prof::Slot::NandFaultCheck);
        fail = faults_.eraseFails(blockAging(block));
    }
    ++state.eraseCount;
    if (failed)
        *failed = fail;
    ++stats_.erases;
    stats_.totalEraseTime += config_.timing.tErase;
    if (fail) {
        // Status fail: the block keeps its contents and is unusable;
        // the FTL retires it. The attempt still costs tErase and wear.
        ++stats_.eraseFailures;
        return config_.timing.tErase;
    }
    for (auto &wl : state.wls)
        wl = WlState{};
    for (auto &token : state.tokens)
        token = 0;
    return config_.timing.tErase;
}

WlProgramResult
NandChip::programWl(const WlAddr &addr, const ProgramCommand &cmd,
                    std::span<const std::uint64_t> tokens)
{
    PROF_SCOPE(prof::Slot::NandProgram);
    if (!codec_.contains(addr))
        panic("programWl: WL address out of range");
    if (tokens.size() != config_.geometry.pagesPerWl)
        panic("programWl: expected %u page tokens, got %zu",
              config_.geometry.pagesPerWl, tokens.size());

    auto &block = blocks_[addr.block];
    auto &wl = block.wls[wlIndex(addr)];
    if (wl.programmedPages != 0)
        panic("programWl: WL (b%u l%u w%u) programmed without erase",
              addr.block, addr.layer, addr.wl);

    const AgingState aging = blockAging(addr.block);
    const WlTerms t =
        terms_.terms(addr, block.eraseCount, aging, process_, ispp_);

    WlProgramResult result = ispp_.programWithTerms(
        t.q, process_.programSpeedMv(addr), t.severity, t.sigma, t.normBase,
        cmd, rng_);

    if (cmd.nonDefault()) {
        result.tProg += config_.timing.tFeatureSet;
        ++stats_.featureSets;
    }

    bool programFailed;
    {
        PROF_SCOPE(prof::Slot::NandFaultCheck);
        programFailed = faults_.programFails(t.q, aging);
    }
    if (programFailed) {
        // Status fail after the full program attempt: the WL holds no
        // valid data, the block must be retired by the FTL. Time and
        // verify work are still spent.
        result.failed = true;
        ++stats_.wlPrograms;
        ++stats_.programFailures;
        stats_.verifiesDone +=
            static_cast<std::uint64_t>(result.verifiesDone);
        stats_.verifiesSkipped +=
            static_cast<std::uint64_t>(result.verifiesSkipped);
        stats_.totalProgramTime += result.tProg;
        return result;
    }

    wl.programmedPages =
        static_cast<std::uint8_t>((1u << config_.geometry.pagesPerWl) - 1);
    wl.berMultiplier = static_cast<float>(result.berMultiplier);
    const std::size_t base =
        wlIndex(addr) * config_.geometry.pagesPerWl;
    for (std::uint32_t p = 0; p < config_.geometry.pagesPerWl; ++p)
        block.tokens[base + p] = tokens[p];

    ++stats_.wlPrograms;
    stats_.verifiesDone += static_cast<std::uint64_t>(result.verifiesDone);
    stats_.verifiesSkipped +=
        static_cast<std::uint64_t>(result.verifiesSkipped);
    stats_.totalProgramTime += result.tProg;
    return result;
}

ReadOutcome
NandChip::readPage(const PageAddr &addr, MilliVolt appliedShiftMv,
                   bool softHint)
{
    PROF_SCOPE(prof::Slot::NandRead);
    if (!codec_.contains(addr))
        panic("readPage: page address out of range");
    const auto &block = blocks_[addr.block];
    const auto &wl = block.wls[wlIndex(addr.wlAddr())];
    if (!(wl.programmedPages & (1u << addr.page)))
        panic("readPage: page (b%u l%u w%u p%u) not programmed",
              addr.block, addr.layer, addr.wl, addr.page);

    const AgingState aging = blockAging(addr.block);
    const WlTerms t = terms_.terms(addr.wlAddr(), block.eraseCount, aging,
                                   process_, ispp_);

    ReadOutcome out =
        read_.readFromTerms(t.shiftBase, t.normBase,
                            static_cast<double>(wl.berMultiplier),
                            appliedShiftMv, rng_, softHint,
                            faults_.enabled()
                                ? config_.faults.uncorrectableNormLimit
                                : 0.0);
    if (appliedShiftMv != 0) {
        out.tRead += config_.timing.tFeatureSet;
        ++stats_.featureSets;
    }

    ++stats_.pageReads;
    stats_.readRetries += static_cast<std::uint64_t>(out.numRetries);
    if (out.uncorrectable)
        ++stats_.uncorrectableReads;
    stats_.totalReadTime += out.tRead;
    return out;
}

double
NandChip::measureBerNorm(const PageAddr &addr)
{
    if (!codec_.contains(addr))
        panic("measureBerNorm: page address out of range");
    const auto &block = blocks_[addr.block];
    const auto &wl = block.wls[wlIndex(addr.wlAddr())];
    if (!(wl.programmedPages & (1u << addr.page)))
        panic("measureBerNorm: page not programmed");
    // The term cache's normBase IS normalizedBer(q, aging, chipFactor)
    // — same expression, same bits (tests/test_term_cache.cc) — and
    // monitoring reads hammer this path once per leader program.
    const WlTerms t = terms_.terms(addr.wlAddr(), block.eraseCount,
                                   blockAging(addr.block), process_, ispp_);
    const double aligned =
        t.normBase * static_cast<double>(wl.berMultiplier);
    // RTN-scale measurement noise (paper: <3% across a sequence).
    return aligned * (1.0 + 0.005 * rng_.normal());
}

std::uint64_t
NandChip::pageToken(const PageAddr &addr) const
{
    if (!codec_.contains(addr))
        panic("pageToken: page address out of range");
    return blocks_[addr.block].tokens[pageIndexInBlock(addr)];
}

bool
NandChip::isPageProgrammed(const PageAddr &addr) const
{
    if (!codec_.contains(addr))
        return false;
    const auto &wl = blocks_[addr.block].wls[wlIndex(addr.wlAddr())];
    return wl.programmedPages & (1u << addr.page);
}

bool
NandChip::isWlProgrammed(const WlAddr &addr) const
{
    if (!codec_.contains(addr))
        return false;
    return blocks_[addr.block].wls[wlIndex(addr)].programmedPages != 0;
}

PeCycles
NandChip::eraseCount(std::uint32_t block) const
{
    return blocks_.at(block).eraseCount;
}

}  // namespace cubessd::nand
