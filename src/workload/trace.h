/**
 * @file
 * I/O trace recording and replay.
 *
 * Traces use a simple line-oriented text format, one request per line:
 *
 *   <arrival_ns> <R|W> <lba> <pages>
 *
 * Lines starting with '#' are comments. TraceWriter captures a
 * generated or live request stream; TraceReader loads it back, and
 * replayTrace() submits it open-loop at the recorded arrival times.
 *
 * TraceReader also auto-detects the MSR-Cambridge block-trace CSV
 * format (SNIA IOTTA, one record per line):
 *
 *   <timestamp>,<hostname>,<disk>,<Read|Write>,<offset>,<size>,<latency>
 *
 * where the timestamp is in Windows FILETIME units (100 ns ticks) and
 * offset/size are bytes. Records are rebased so the first one arrives
 * at t=0 and byte ranges are converted to 16 KB logical pages.
 */

#ifndef CUBESSD_WORKLOAD_TRACE_H
#define CUBESSD_WORKLOAD_TRACE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "src/ssd/request.h"
#include "src/ssd/ssd.h"
#include "src/workload/driver.h"

namespace cubessd::workload {

/** Serialize requests to a stream / file. */
class TraceWriter
{
  public:
    /** Write a header comment and all requests to `out`. */
    static void write(std::ostream &out,
                      const std::vector<ssd::HostRequest> &requests);

    /** Convenience: write to a file path. Fatal on I/O error. */
    static void writeFile(const std::string &path,
                          const std::vector<ssd::HostRequest> &requests);
};

/** Parse requests back from a stream / file. */
class TraceReader
{
  public:
    /** @return all requests in the stream; fatal on malformed lines. */
    static std::vector<ssd::HostRequest> read(std::istream &in);

    /** Convenience: read a file path. Fatal on I/O error. */
    static std::vector<ssd::HostRequest>
    readFile(const std::string &path);

    /**
     * Non-fatal parse with format auto-detection (native whitespace
     * format vs MSR-Cambridge CSV, decided per line by the presence
     * of commas). Appends to `requests`.
     * @return empty on success, else a descriptive error naming the
     *         detected format and the offending line.
     */
    static std::string parse(std::istream &in,
                             std::vector<ssd::HostRequest> *requests);
};

/**
 * Submit every request at its recorded arrival time (open loop), run
 * to completion, and measure the replay as one window.
 */
RunResult replayTrace(ssd::Ssd &ssd,
                      const std::vector<ssd::HostRequest> &requests);

}  // namespace cubessd::workload

#endif  // CUBESSD_WORKLOAD_TRACE_H
