#include "src/ftl/write_buffer.h"

#include <algorithm>

#include "src/common/logging.h"

namespace cubessd::ftl {

WriteBuffer::WriteBuffer(std::uint32_t capacityPages)
    : capacity_(capacityPages)
{
    if (capacity_ == 0)
        fatal("WriteBuffer: capacity must be positive");
}

bool
WriteBuffer::insert(Lba lba, std::uint64_t token, std::uint64_t version)
{
    Record *r = records_.find(lba);
    if (r == nullptr || !r->buffered) {
        if (full())
            return false;
        if (r == nullptr) {
            bool inserted = false;
            r = &records_.insertOrGet(lba, &inserted);
        }
        r->buffered = true;
        ring_.push_back(lba);
        peak_ = std::max(peak_, ring_.size());
    }
    r->token = token;
    r->version = version;
    return true;
}

void
WriteBuffer::popOldest(std::uint32_t n, std::vector<FlushEntry> &out)
{
    for (; n > 0 && !ring_.empty(); --n) {
        const Lba lba = ring_.front();
        ring_.pop_front();
        Record &r = *records_.find(lba);
        r.buffered = false;
        ++r.flushes;
        out.push_back(FlushEntry{lba, r.token, r.version, kInvalidPpa});
    }
}

bool
WriteBuffer::land(Lba lba, std::uint64_t version)
{
    Record *r = records_.find(lba);
    if (r == nullptr || r->flushes == 0)
        panic("WriteBuffer: LBA %llu landed with no flush in flight",
              static_cast<unsigned long long>(lba));
    const bool current = version > r->landed;
    if (current)
        r->landed = version;
    if (--r->flushes == 0 && !r->buffered)
        records_.erase(lba);
    return current;
}

void
WriteBuffer::checkConsistency(bool flushesInFlight) const
{
    std::vector<Lba> ring;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const Lba lba = ring_[i];
        const Record *r = records_.find(lba);
        if (r == nullptr || !r->buffered)
            panic("consistency: LBA %llu queued in the write buffer "
                  "without a buffered record",
                  static_cast<unsigned long long>(lba));
        ring.push_back(lba);
    }
    std::sort(ring.begin(), ring.end());
    if (std::adjacent_find(ring.begin(), ring.end()) != ring.end())
        panic("consistency: an LBA is queued twice in the write buffer");

    // With every queued LBA buffered and distinct, as many buffered
    // records as queued LBAs leaves no buffered record out of the ring.
    // A record neither buffered nor in flight should have gone with its
    // last landing; a leaked flush count would keep one forever.
    std::size_t buffered = 0;
    records_.forEach([&](Lba lba, const Record &r) {
        buffered += r.buffered;
        if ((r.flushes == 0 && !r.buffered) || r.landed > r.version)
            panic("consistency: LBA %llu write-buffer record: %u "
                  "flushes, buffered %d, landed %llu, newest %llu",
                  static_cast<unsigned long long>(lba), r.flushes,
                  r.buffered, static_cast<unsigned long long>(r.landed),
                  static_cast<unsigned long long>(r.version));
        if (r.flushes != 0 && !flushesInFlight)
            panic("consistency: LBA %llu counts %u flushes in flight, "
                  "the FTL none",
                  static_cast<unsigned long long>(lba), r.flushes);
    });
    if (buffered != ring_.size())
        panic("consistency: %zu buffered records vs %zu queued LBAs",
              buffered, ring_.size());
}

void
WriteBuffer::hashState(StateHash &h) const
{
    h.add(capacity_).add(ring_.size()).add(peak_);
    for (std::size_t i = 0; i < ring_.size(); ++i)
        h.add(ring_[i]);
    records_.forEach([&h](Lba lba, const Record &r) {
        h.add(lba).add(r.token).add(r.version).add(r.landed);
        h.add(r.flushes).add(r.buffered);
    });
}

}  // namespace cubessd::ftl
