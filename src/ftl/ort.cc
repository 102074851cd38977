#include "src/ftl/ort.h"

#include <limits>

namespace cubessd::ftl {

Ort::Ort(std::uint32_t chips, std::uint32_t blocksPerChip,
         std::uint32_t layersPerBlock)
    : blocksPerChip_(blocksPerChip), layersPerBlock_(layersPerBlock)
{
    const std::size_t entries = static_cast<std::size_t>(chips) *
                                blocksPerChip * layersPerBlock;
    table_.assign(entries, 0);
    validBits_.assign((entries + 63) / 64, 0);
    layerHits_.assign(layersPerBlock, 0);
    layerMisses_.assign(layersPerBlock, 0);
}

void
Ort::setValid(std::size_t idx, bool valid)
{
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if (valid)
        validBits_[idx / 64] |= bit;
    else
        validBits_[idx / 64] &= ~bit;
}

void
Ort::update(std::uint32_t chip, std::uint32_t block, std::uint32_t layer,
            MilliVolt shiftMv)
{
    const auto clamped = std::max<MilliVolt>(
        std::numeric_limits<std::int16_t>::min(),
        std::min<MilliVolt>(std::numeric_limits<std::int16_t>::max(),
                            shiftMv));
    const std::size_t idx = index(chip, block, layer);
    table_[idx] = static_cast<std::int16_t>(clamped);
    setValid(idx, true);
    ++updates_;
}

void
Ort::resetBlock(std::uint32_t chip, std::uint32_t block)
{
    for (std::uint32_t l = 0; l < layersPerBlock_; ++l) {
        const std::size_t idx = index(chip, block, l);
        table_[idx] = 0;
        setValid(idx, false);
    }
}

}  // namespace cubessd::ftl
