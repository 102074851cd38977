#include "src/ftl/mapping.h"

#include "src/common/logging.h"

namespace cubessd::ftl {

MappingTable::MappingTable(std::uint64_t logicalPages)
    : ppas_(logicalPages, kInvalid32)
{
    if (logicalPages == 0)
        fatal("MappingTable: zero logical pages");
}

void
MappingTable::checkRange(Lba lba, const char *op) const
{
    if (lba >= ppas_.size())
        panic("MappingTable::%s: LBA %llu out of range", op,
              static_cast<unsigned long long>(lba));
}

void
MappingTable::checkPpa(Ppa ppa, const char *op)
{
    if (ppa >= kInvalid32)
        panic("MappingTable::%s: PPA %llu does not fit 32 bits", op,
              static_cast<unsigned long long>(ppa));
}

std::optional<Ppa>
MappingTable::lookup(Lba lba) const
{
    checkRange(lba, "lookup");
    const std::uint32_t ppa = ppas_[lba];
    if (ppa == kInvalid32)
        return std::nullopt;
    return ppa;
}

std::optional<Ppa>
MappingTable::map(Lba lba, Ppa ppa)
{
    checkRange(lba, "map");
    checkPpa(ppa, "map");
    const std::uint32_t old = ppas_[lba];
    ppas_[lba] = static_cast<std::uint32_t>(ppa);
    if (old == kInvalid32) {
        ++mapped_;
        return std::nullopt;
    }
    return old;
}

bool
MappingTable::relocate(Lba lba, Ppa from, Ppa to)
{
    checkRange(lba, "relocate");
    checkPpa(to, "relocate");
    if (ppas_[lba] != from)
        return false;
    ppas_[lba] = static_cast<std::uint32_t>(to);
    return true;
}

}  // namespace cubessd::ftl
