#include "src/workload/trace.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

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

/** Parse one native "<arrival_ns> <R|W> <lba> <pages>" line. */
std::string
parseNativeLine(const std::string &line, std::uint64_t lineNo,
                ssd::HostRequest *req)
{
    std::istringstream fields(line);
    char op = 0;
    if (!(fields >> req->arrival >> op >> req->lba >> req->pages) ||
        (op != 'R' && op != 'W') || req->pages == 0) {
        return "malformed trace line " + std::to_string(lineNo) +
               " (expected '<arrival_ns> <R|W> <lba> <pages>'): '" +
               line + "'";
    }
    req->type = op == 'R' ? ssd::IoType::Read : ssd::IoType::Write;
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
    std::istringstream fields(line);
    std::string timestamp, hostname, disk, type, offset, size;
    if (!std::getline(fields, timestamp, ',') ||
        !std::getline(fields, hostname, ',') ||
        !std::getline(fields, disk, ',') ||
        !std::getline(fields, type, ',') ||
        !std::getline(fields, offset, ',') ||
        !std::getline(fields, size, ',')) {
        return "malformed MSR-Cambridge record on line " +
               std::to_string(lineNo) +
               " (expected 'timestamp,hostname,disk,type,offset,size,"
               "latency'): '" + line + "'";
    }

    if (type != "Read" && type != "Write") {
        return "malformed MSR-Cambridge record on line " +
               std::to_string(lineNo) + ": bad I/O type '" + type +
               "' (expected Read or Write)";
    }
    req->type =
        type == "Read" ? ssd::IoType::Read : ssd::IoType::Write;

    char *end = nullptr;
    const std::uint64_t ticks =
        std::strtoull(timestamp.c_str(), &end, 10);
    if (end == timestamp.c_str() || *end != '\0') {
        return "malformed MSR-Cambridge record on line " +
               std::to_string(lineNo) + ": bad timestamp '" +
               timestamp + "'";
    }
    const std::uint64_t offsetBytes =
        std::strtoull(offset.c_str(), &end, 10);
    if (end == offset.c_str() || *end != '\0') {
        return "malformed MSR-Cambridge record on line " +
               std::to_string(lineNo) + ": bad offset '" + offset + "'";
    }
    const std::uint64_t sizeBytes =
        std::strtoull(size.c_str(), &end, 10);
    if (end == size.c_str() || *end != '\0' || sizeBytes == 0) {
        return "malformed MSR-Cambridge record on line " +
               std::to_string(lineNo) + ": bad size '" + size + "'";
    }

    if (*baseTicks == 0)
        *baseTicks = ticks;
    // FILETIME counts 100 ns ticks; rebase so the trace starts at 0
    // (records are not required to be sorted, so clamp the odd
    // out-of-order timestamp instead of underflowing).
    const std::uint64_t rebased =
        ticks > *baseTicks ? ticks - *baseTicks : 0;
    req->arrival = static_cast<SimTime>(rebased * 100);
    req->lba = offsetBytes / kMsrPageBytes;
    const std::uint64_t endByte = offsetBytes + sizeBytes;
    req->pages = static_cast<std::uint32_t>(
        (endByte + kMsrPageBytes - 1) / kMsrPageBytes - req->lba);
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
