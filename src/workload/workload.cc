#include "src/workload/workload.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/units.h"

namespace cubessd::workload {

WorkloadSpec
mail()
{
    WorkloadSpec s;
    s.name = "Mail";
    s.readFraction = 0.45;
    s.minPages = 1;
    s.maxPages = 2;
    s.zipfTheta = 0.9;
    s.workingSetFraction = 0.5;
    s.sequentialWriteFraction = 0.1;
    s.burstLength = 24;
    s.interBurstGap = 4 * kMillisecond;
    return s;
}

WorkloadSpec
web()
{
    WorkloadSpec s;
    s.name = "Web";
    s.readFraction = 0.9;
    s.minPages = 2;   // static files: 32 KB - 128 KB
    s.maxPages = 8;
    s.minWritePages = 1;  // logs and small content updates
    s.maxWritePages = 2;
    s.zipfTheta = 1.0;
    s.workingSetFraction = 0.6;
    s.burstLength = 0;  // steady serving
    return s;
}

WorkloadSpec
proxy()
{
    WorkloadSpec s;
    s.name = "Proxy";
    s.readFraction = 0.75;
    s.minPages = 4;   // cached web objects: 64 KB - 256 KB
    s.maxPages = 16;
    s.minWritePages = 1;  // cache fills trickle in smaller chunks
    s.maxWritePages = 4;
    s.zipfTheta = 0.8;
    s.workingSetFraction = 0.7;
    s.sequentialWriteFraction = 0.2;
    s.burstLength = 48;
    s.interBurstGap = 1 * kMillisecond;
    return s;
}

WorkloadSpec
oltp()
{
    WorkloadSpec s;
    s.name = "OLTP";
    s.readFraction = 0.3;  // the paper's most write-intensive workload
    s.minPages = 1;
    s.maxPages = 1;
    s.zipfTheta = 0.7;
    s.workingSetFraction = 0.4;
    s.burstLength = 48;    // commit bursts oversubscribe the write buffer
    s.interBurstGap = 6 * kMillisecond;
    return s;
}

WorkloadSpec
rocks()
{
    WorkloadSpec s;
    s.name = "Rocks";
    s.readFraction = 0.5;  // YCSB-A: 50/50 reads and updates
    s.minPages = 1;
    s.maxPages = 4;
    s.zipfTheta = 0.99;    // YCSB zipfian default
    s.workingSetFraction = 0.5;
    s.sequentialWriteFraction = 0.5;  // LSM flush/compaction appends
    s.burstLength = 32;
    s.interBurstGap = 4 * kMillisecond;
    return s;
}

WorkloadSpec
mongo()
{
    WorkloadSpec s;
    s.name = "Mongo";
    s.readFraction = 0.5;
    s.minPages = 1;
    s.maxPages = 2;
    s.zipfTheta = 0.99;
    s.workingSetFraction = 0.5;
    s.sequentialWriteFraction = 0.2;  // B-tree updates in place
    s.burstLength = 16;
    s.interBurstGap = 2 * kMillisecond;
    return s;
}

std::vector<WorkloadSpec>
allWorkloads()
{
    return {mail(), web(), proxy(), oltp(), rocks(), mongo()};
}

WorkloadSpec
readhot()
{
    WorkloadSpec s;
    s.name = "ReadHot";
    s.readFraction = 0.95;
    s.minPages = 1;
    s.maxPages = 4;
    s.minWritePages = 1;  // rare metadata updates
    s.maxWritePages = 1;
    s.zipfTheta = 0.99;
    s.workingSetFraction = 0.3;
    s.burstLength = 0;  // steady serving
    return s;
}

WorkloadSpec
writeheavy()
{
    WorkloadSpec s;
    s.name = "WriteHeavy";
    s.readFraction = 0.1;
    s.minPages = 1;
    s.maxPages = 2;
    s.zipfTheta = 0.8;
    s.workingSetFraction = 0.4;
    s.sequentialWriteFraction = 0.4;  // log/LSM append component
    s.burstLength = 0;
    return s;
}

std::optional<WorkloadSpec>
findWorkload(const std::string &name)
{
    std::string lower = name;
    for (auto &ch : lower)
        ch = static_cast<char>(std::tolower(ch));
    auto candidates = allWorkloads();
    candidates.push_back(readhot());
    candidates.push_back(writeheavy());
    for (const auto &spec : candidates) {
        std::string specLower = spec.name;
        for (auto &ch : specLower)
            ch = static_cast<char>(std::tolower(ch));
        if (specLower == lower)
            return spec;
    }
    return std::nullopt;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec &spec,
                                     std::uint64_t logicalPages,
                                     std::uint64_t seed)
    : spec_(spec),
      logicalPages_(logicalPages),
      workingSet_(workingSetPages(spec, logicalPages)),
      rng_(seed),
      zipf_(workingSet_, spec.zipfTheta)
{
    if (logicalPages_ == 0)
        fatal("WorkloadGenerator: empty device");
    if (spec_.minPages == 0 || spec_.maxPages < spec_.minPages)
        fatal("WorkloadGenerator: bad request size range");
}

std::uint64_t
WorkloadGenerator::workingSetPages(const WorkloadSpec &spec,
                                   std::uint64_t logicalPages)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(logicalPages) *
                                      spec.workingSetFraction));
}

Lba
WorkloadGenerator::sampleLba(std::uint32_t pages, bool isRead)
{
    // Zipf rank 0 is the hottest; scatter ranks over the working set
    // with a multiplicative permutation so hot pages are not all
    // clustered at low addresses. Reads and writes use different
    // permutations: an application's hot read set is not the pages it
    // just wrote (those are absorbed by the host page cache before
    // ever reaching the device), so device-level read traffic must
    // not be dominated by write-buffer hits.
    const std::uint64_t rank = zipf_.sample(rng_);
    const std::uint64_t prime =
        isRead ? 0xC6A4A7935BD1E995ull : 0x9E3779B97F4A7C15ull;
    const std::uint64_t scattered = (rank * prime) % workingSet_;
    const std::uint64_t limit =
        workingSet_ > pages ? workingSet_ - pages : 1;
    return scattered % limit;
}

ssd::HostRequest
WorkloadGenerator::next()
{
    ssd::HostRequest req;
    const bool isRead = rng_.bernoulli(spec_.readFraction);
    req.type = isRead ? ssd::IoType::Read : ssd::IoType::Write;
    std::uint32_t lo = spec_.minPages;
    std::uint32_t hi = spec_.maxPages;
    if (!isRead && spec_.maxWritePages != 0) {
        lo = spec_.minWritePages;
        hi = spec_.maxWritePages;
    }
    req.pages = lo + static_cast<std::uint32_t>(
                         rng_.uniformInt(hi - lo + 1));

    if (!isRead && rng_.bernoulli(spec_.sequentialWriteFraction)) {
        // Sequential append stream (log/LSM flush) within the
        // working set.
        if (seqCursor_ + req.pages >= workingSet_)
            seqCursor_ = 0;
        req.lba = seqCursor_;
        seqCursor_ += req.pages;
    } else {
        req.lba = sampleLba(req.pages, isRead);
    }
    return req;
}

}  // namespace cubessd::workload
