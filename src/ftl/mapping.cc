#include "src/ftl/mapping.h"

#include "src/common/logging.h"

namespace cubessd::ftl {

MappingTable::MappingTable(std::uint64_t logicalPages)
    : entries_(logicalPages)
{
    if (logicalPages == 0)
        fatal("MappingTable: zero logical pages");
}

void
MappingTable::checkRange(Lba lba, const char *op) const
{
    if (lba >= entries_.size())
        panic("MappingTable::%s: LBA %llu out of range", op,
              static_cast<unsigned long long>(lba));
}

std::optional<Ppa>
MappingTable::lookup(Lba lba) const
{
    checkRange(lba, "lookup");
    const std::uint32_t ppa = entries_[lba].ppa;
    if (ppa == kInvalid32)
        return std::nullopt;
    return ppa;
}

std::uint64_t
MappingTable::mappedVersion(Lba lba) const
{
    checkRange(lba, "mappedVersion");
    const Entry &e = entries_[lba];
    return static_cast<std::uint64_t>(e.versionHi) << 32 | e.versionLo;
}

std::optional<Ppa>
MappingTable::map(Lba lba, Ppa ppa, std::uint64_t version)
{
    checkRange(lba, "map");
    if (ppa >= kInvalid32)
        panic("MappingTable::map: PPA %llu does not fit 32 bits",
              static_cast<unsigned long long>(ppa));
    Entry &e = entries_[lba];
    const std::uint32_t old = e.ppa;
    e = Entry{static_cast<std::uint32_t>(ppa),
              static_cast<std::uint32_t>(version),
              static_cast<std::uint32_t>(version >> 32)};
    if (old == kInvalid32) {
        ++mapped_;
        return std::nullopt;
    }
    return old;
}

}  // namespace cubessd::ftl
