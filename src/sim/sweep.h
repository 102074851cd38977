/**
 * @file
 * Parallel sweep execution: a fixed-size worker pool for independent,
 * indexed simulation jobs.
 *
 * The simulator itself is single-threaded by design (one EventQueue,
 * one clock). Sweeps, however, are embarrassingly parallel: every
 * (aging, workload, FTL, seed) cell of a grid owns its RNG streams
 * and its whole Ssd instance, so cells never share mutable state.
 * SweepRunner exploits exactly that structure and nothing more:
 *
 *  - Jobs are identified by a dense index 0..count-1 and handed out
 *    by one mutex-guarded schedule; a worker holds the lock only to
 *    pick its next job, never while running one.
 *  - SweepRunner makes NO ordering promise about execution. The
 *    determinism contract lives one level up: callers store each
 *    job's result into a slot indexed by its job id and merge slots
 *    in INDEX ORDER after run() returns — never in completion order.
 *    Since each cell is internally deterministic, `jobs == 1` and
 *    `jobs == N` then produce bit-identical merged output.
 *  - Errors propagate instead of killing the process: a job that
 *    throws does not abort the sweep; the remaining jobs still run,
 *    and afterwards the LOWEST-index failure is rethrown on the
 *    calling thread as a SweepError. (Lowest-index, not first-in-time:
 *    the reported failure is the same whatever the interleaving.)
 *    fatal()/exit() must never be reached from inside a job — validate
 *    configurations before calling run().
 *
 * Jobs may share setup (SharedSetup): a group of jobs starts from one
 * *base* that is built once and copied for every member but the last
 * to start, which takes the base itself. Bases and running jobs each
 * hold one live state (a device, in the sweep's use), and at most
 * jobs + 1 live states exist at once: one per worker, and one more so
 * a built base can fork while every other worker runs. Independent
 * jobs are the special case of one-job groups with nothing to build.
 *
 * With jobs <= 1 the runner degenerates to a plain sequential loop on
 * the calling thread (no threads are spawned), which is both the
 * default and the reference behaviour the parallel path must match.
 */

#ifndef CUBESSD_SIM_SWEEP_H
#define CUBESSD_SIM_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cubessd::sim {

/**
 * Per-worker load telemetry of one run() call, filled on request.
 * Each worker writes only its own pre-sized slot during the run; the
 * calling thread reads everything after join() — no synchronization
 * beyond thread creation/join is needed. Times are host wall-clock
 * (machine-noisy); job counts are exact.
 */
struct SweepTelemetry
{
    struct Worker
    {
        std::uint64_t jobs = 0;
        /** Jobs claimed outside the worker's static fair share
         *  (job i's "home" worker is i*workers/count) — a measure of
         *  how much the atomic-cursor scheduling rebalanced load. */
        std::uint64_t steals = 0;
        double busyS = 0.0;  ///< summed wall time inside job(i)
        double idleS = 0.0;  ///< worker lifetime minus busy
    };

    double wallS = 0.0;  ///< whole run(), measured on the caller
    std::vector<Worker> workers;

    /** max(busy) / mean(busy): 1.0 = perfectly balanced. */
    double imbalance() const;
};

/** Failure of one sweep job, annotated with the failing job's index. */
class SweepError : public std::runtime_error
{
  public:
    SweepError(std::size_t job, const std::string &message)
        : std::runtime_error("sweep job " + std::to_string(job) + ": " +
                             message),
          job_(job)
    {
    }

    /** Index of the job that failed (lowest, if several did). */
    std::size_t job() const { return job_; }

  private:
    std::size_t job_;
};

/**
 * Setup shared by groups of jobs (SweepRunner::run). `build(g)` makes
 * group g's base once; `fork(i, take)` then gives job i its own
 * starting state, right before job(i) runs on the same worker: a copy
 * of the base, or — for the last member of the group to start —
 * `take = true`, and the base itself may be consumed: every other
 * member's fork has returned by then. Several forks of one base may
 * run at once, so fork must only read the base.
 *
 * A failed build fails every job of its group; a failed fork fails
 * its job. Either way job(i) is not called.
 */
struct SharedSetup
{
    /** Partition of the job indices; each group in ascending order. */
    std::vector<std::vector<std::size_t>> groups;
    std::function<void(std::size_t group)> build;
    std::function<void(std::size_t job, bool take)> fork;
};

class SweepRunner
{
  public:
    /** @param jobs worker threads; <= 1 means run inline, no threads. */
    explicit SweepRunner(unsigned jobs = 1);

    unsigned jobs() const { return jobs_; }

    /** Most live states (bases plus running jobs) at any moment. */
    std::size_t budget() const { return std::size_t{jobs_} + 1; }

    /**
     * Run `job(0) .. job(count-1)`, each exactly once, across the
     * pool; blocks until all have finished. Jobs must be mutually
     * independent (no shared mutable state) apart from `setup`'s
     * bases; they may run in any order and interleaving. If any job
     * (or its build or fork) throws, the rest still run and the
     * lowest-index failure is rethrown as SweepError.
     *
     * With `setup`, workers pick work in this order, within budget():
     *  1. the next member of a built base: a copy while a state is
     *     free, or the last member, which takes the base once no copy
     *     of it is still in progress;
     *  2. a new base of a multi-job group, only while a second state
     *     stays free for its copies (so bases never fill the budget,
     *     and some base can always make progress);
     *  3. a one-job group, which builds, takes and runs its own base.
     * A worker with nothing allowed waits for one of these to open.
     *
     * If `telemetry` is non-null it is reset and filled with one
     * Worker entry per thread actually used (one, on the inline
     * path), even when a job throws. A build's time counts as busy
     * time of the worker that ran it.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &job,
             SweepTelemetry *telemetry = nullptr,
             const SharedSetup *setup = nullptr);

  private:
    unsigned jobs_;
};

/**
 * Resolve a worker count from a command line and an environment:
 * an explicit CLI value > 0 wins; else the named environment
 * variable, if it is a whole-string positive integer that fits an
 * unsigned (anything else — "4x", "-4", an overflow — is ignored);
 * else 1.
 */
unsigned resolveJobs(unsigned cliJobs, const char *envVar);

}  // namespace cubessd::sim

#endif  // CUBESSD_SIM_SWEEP_H
