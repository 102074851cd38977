#include "src/ssd/write_buffer.h"

#include "src/common/logging.h"

namespace cubessd::ssd {

WriteBuffer::WriteBuffer(std::uint32_t capacityPages)
    : capacity_(capacityPages)
{
    if (capacity_ == 0)
        fatal("WriteBuffer: capacity must be positive");
    slots_.resize(capacity_);
    freeSlots_.reserve(capacity_);
    for (std::uint32_t i = capacity_; i-- > 0;)
        freeSlots_.push_back(i);
}

bool
WriteBuffer::insert(Lba lba, std::uint64_t token, std::uint64_t version)
{
    if (std::uint32_t *slot = index_.find(lba)) {
        slots_[*slot].entry.token = token;
        slots_[*slot].entry.version = version;
        return true;
    }
    if (full())
        return false;
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    Slot &s = slots_[slot];
    s.entry = BufferEntry{lba, token, version};
    s.prev = tail_;
    s.next = kNil;
    if (tail_ != kNil)
        slots_[tail_].next = slot;
    else
        head_ = slot;
    tail_ = slot;

    bool inserted = false;
    index_.insertOrGet(lba, &inserted) = slot;
    ++size_;
    if (size_ > peak_)
        peak_ = size_;
    return true;
}

std::optional<std::uint64_t>
WriteBuffer::lookup(Lba lba) const
{
    const std::uint32_t *slot = index_.find(lba);
    if (slot == nullptr)
        return std::nullopt;
    return slots_[*slot].entry.token;
}

void
WriteBuffer::popOldest(std::uint32_t n, std::vector<BufferEntry> &out)
{
    while (n-- > 0 && head_ != kNil) {
        const std::uint32_t slot = head_;
        Slot &s = slots_[slot];
        out.push_back(s.entry);
        index_.erase(s.entry.lba);
        head_ = s.next;
        if (head_ != kNil)
            slots_[head_].prev = kNil;
        else
            tail_ = kNil;
        freeSlots_.push_back(slot);
        --size_;
    }
}

void
WriteBuffer::hashState(StateHash &h) const
{
    h.add(capacity_).add(size_).add(peak_);
    for (std::uint32_t i = head_; i != kNil; i = slots_[i].next)
        h.add(slots_[i].entry);
}

}  // namespace cubessd::ssd
