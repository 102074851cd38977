#include "src/workload/trace.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "src/common/logging.h"
#include "src/common/units.h"

namespace cubessd::workload {

void
TraceWriter::write(std::ostream &out,
                   const std::vector<ssd::HostRequest> &requests)
{
    out << "# cubessd trace v1: arrival_ns op lba pages\n";
    for (const auto &req : requests) {
        out << req.arrival << ' '
            << (req.type == ssd::IoType::Read ? 'R' : 'W') << ' '
            << req.lba << ' ' << req.pages << '\n';
    }
}

void
TraceWriter::writeFile(const std::string &path,
                       const std::vector<ssd::HostRequest> &requests)
{
    std::ofstream out(path);
    if (!out)
        fatal("TraceWriter: cannot open '%s'", path.c_str());
    write(out, requests);
    if (!out)
        fatal("TraceWriter: write error on '%s'", path.c_str());
}

namespace {

/** Bytes per logical page when converting MSR byte extents. */
constexpr std::uint64_t kMsrPageBytes = 16 * 1024;

/** Parse all of `field` as an unsigned decimal: no sign, no blanks,
 *  no overflow. */
bool
parseUnsigned(std::string_view field, std::uint64_t *out)
{
    const char *end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

/** A page count that fits HostRequest::pages (and is not 0). */
bool
validPages(std::uint64_t pages)
{
    return pages != 0 && pages <= std::numeric_limits<std::uint32_t>::max();
}

/** Parse one native "<arrival_ns> <R|W> <lba> <pages>" line. */
std::string
parseNativeLine(const std::string &line, std::uint64_t lineNo,
                ssd::HostRequest *req)
{
    std::istringstream fields(line);
    std::string arrival, op, lba, pages, extra;
    std::uint64_t pageCount = 0;
    if (!(fields >> arrival >> op >> lba >> pages) || (fields >> extra) ||
        (op != "R" && op != "W") || !parseUnsigned(arrival, &req->arrival) ||
        !parseUnsigned(lba, &req->lba) || !parseUnsigned(pages, &pageCount) ||
        !validPages(pageCount)) {
        return "malformed trace line " + std::to_string(lineNo) +
               " (expected '<arrival_ns> <R|W> <lba> <pages>'): '" +
               line + "'";
    }
    req->type = op == "R" ? ssd::IoType::Read : ssd::IoType::Write;
    req->pages = static_cast<std::uint32_t>(pageCount);
    return "";
}

/**
 * Parse one MSR-Cambridge CSV record. `baseTicks` carries the first
 * record's FILETIME timestamp (0 = not yet seen) so arrivals are
 * rebased to t=0.
 */
std::string
parseMsrLine(const std::string &line, std::uint64_t lineNo,
             std::uint64_t *baseTicks, ssd::HostRequest *req)
{
    const auto malformed = [lineNo](const std::string &why) {
        return "malformed MSR-Cambridge record on line " +
               std::to_string(lineNo) + why;
    };
    std::istringstream fields(line);
    std::string timestamp, hostname, disk, type, offset, size;
    if (!std::getline(fields, timestamp, ',') ||
        !std::getline(fields, hostname, ',') ||
        !std::getline(fields, disk, ',') ||
        !std::getline(fields, type, ',') ||
        !std::getline(fields, offset, ',') ||
        !std::getline(fields, size, ',')) {
        return malformed(" (expected 'timestamp,hostname,disk,type,"
                         "offset,size,latency'): '" + line + "'");
    }

    if (type != "Read" && type != "Write") {
        return malformed(": bad I/O type '" + type +
                         "' (expected Read or Write)");
    }
    req->type =
        type == "Read" ? ssd::IoType::Read : ssd::IoType::Write;

    std::uint64_t ticks = 0;
    if (!parseUnsigned(timestamp, &ticks))
        return malformed(": bad timestamp '" + timestamp + "'");
    std::uint64_t offsetBytes = 0;
    if (!parseUnsigned(offset, &offsetBytes))
        return malformed(": bad offset '" + offset + "'");
    std::uint64_t sizeBytes = 0;
    if (!parseUnsigned(size, &sizeBytes) || sizeBytes == 0)
        return malformed(": bad size '" + size + "'");
    if (sizeBytes > std::numeric_limits<std::uint64_t>::max() - offsetBytes)
        return malformed(": offset " + offset + " + size " + size +
                         " overflows");

    if (*baseTicks == 0)
        *baseTicks = ticks;
    // FILETIME counts 100 ns ticks; rebase so the trace starts at 0
    // (records are not required to be sorted, so clamp the odd
    // out-of-order timestamp instead of underflowing).
    const std::uint64_t rebased =
        ticks > *baseTicks ? ticks - *baseTicks : 0;
    if (rebased > std::numeric_limits<SimTime>::max() / 100)
        return malformed(": timestamp '" + timestamp +
                         "' is too far past the first record's");
    req->arrival = static_cast<SimTime>(rebased * 100);
    req->lba = offsetBytes / kMsrPageBytes;
    const std::uint64_t endByte = offsetBytes + sizeBytes;
    const std::uint64_t endPage =
        endByte / kMsrPageBytes + (endByte % kMsrPageBytes != 0);
    if (!validPages(endPage - req->lba))
        return malformed(": bad size '" + size + "'");
    req->pages = static_cast<std::uint32_t>(endPage - req->lba);
    return "";
}

}  // namespace

std::string
TraceReader::parse(std::istream &in,
                   std::vector<ssd::HostRequest> *requests)
{
    std::string line;
    std::uint64_t lineNo = 0;
    std::uint64_t baseTicks = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        ssd::HostRequest req;
        const std::string err =
            line.find(',') != std::string::npos
                ? parseMsrLine(line, lineNo, &baseTicks, &req)
                : parseNativeLine(line, lineNo, &req);
        if (!err.empty())
            return err;
        requests->push_back(req);
    }
    return "";
}

std::vector<ssd::HostRequest>
TraceReader::read(std::istream &in)
{
    std::vector<ssd::HostRequest> requests;
    const std::string err = parse(in, &requests);
    if (!err.empty())
        fatal("TraceReader: %s", err.c_str());
    return requests;
}

std::vector<ssd::HostRequest>
TraceReader::readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("TraceReader: cannot open '%s'", path.c_str());
    return read(in);
}

RunResult
replayTrace(ssd::Ssd &ssd,
            const std::vector<ssd::HostRequest> &requests)
{
    RunResult result;
    const MeasuredWindow window(ssd);
    const SimTime start = ssd.queue().now();
    for (auto req : requests) {
        req.arrival += start;  // replay relative to "now"
        ssd.submit(req, &result);
    }
    ssd.queue().run();
    result.close(window);
    return result;
}

}  // namespace cubessd::workload
