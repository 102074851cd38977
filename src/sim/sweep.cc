#include "src/sim/sweep.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cubessd::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double
SweepTelemetry::imbalance() const
{
    double maxBusy = 0.0;
    double sumBusy = 0.0;
    for (const Worker &w : workers) {
        maxBusy = std::max(maxBusy, w.busyS);
        sumBusy += w.busyS;
    }
    if (workers.empty() || sumBusy <= 0.0)
        return 1.0;
    return maxBusy / (sumBusy / static_cast<double>(workers.size()));
}

namespace {

/**
 * Rethrow the lowest-index stored failure, if any, as a SweepError.
 * A job that already threw SweepError (e.g. a nested annotated error)
 * is passed through unchanged.
 */
void
rethrowLowest(const std::vector<std::exception_ptr> &errors)
{
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i])
            continue;
        try {
            std::rethrow_exception(errors[i]);
        } catch (const SweepError &) {
            throw;
        } catch (const std::exception &e) {
            throw SweepError(i, e.what());
        } catch (...) {
            throw SweepError(i, "unknown error");
        }
    }
}

/** One unit of work a worker takes from the Schedule. */
struct Task
{
    enum class Kind
    {
        Finished,  ///< nothing left to start: the worker exits
        Build,     ///< build a multi-job group's base
        Copy,      ///< fork a copy of a built base, then run the job
        Take,      ///< the base's last member: take it, run the job
        Solo,      ///< a one-job group: build, take and run it
    };

    Kind kind = Kind::Finished;
    std::size_t group = 0;
    std::size_t job = 0;
};

/**
 * The order in which workers take work, and the live-state budget
 * (see SweepRunner::run). Every method takes the lock; next() blocks
 * until a task is allowed or nothing is left to start.
 */
class Schedule
{
  public:
    Schedule(std::vector<std::vector<std::size_t>> groups,
             std::size_t budget)
        : groups_(std::move(groups)), state_(groups_.size()),
          budget_(budget)
    {
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            (groups_[g].size() > 1 ? multi_ : solo_).push_back(g);
            unstarted_ += groups_[g].size();
        }
    }

    Task
    next()
    {
        std::unique_lock lock(mutex_);
        Task t;
        changed_.wait(lock, [&] {
            t = pick();
            return t.kind != Task::Kind::Finished || unstarted_ == 0;
        });
        return t;
    }

    /** A base finished building (or failed: its jobs never start). */
    void
    built(std::size_t group, bool ok)
    {
        const std::lock_guard lock(mutex_);
        GroupState &g = state_[group];
        if (ok) {
            g.built = true;
        } else {
            unstarted_ -= groups_[group].size();
            g.next = groups_[group].size();
            --live_;
        }
        changed_.notify_all();
    }

    /** A Copy task's fork returned: the base is free to be taken. */
    void
    forked(std::size_t group)
    {
        const std::lock_guard lock(mutex_);
        --state_[group].copying;
        changed_.notify_all();
    }

    /** A job finished (or failed): its live state is gone. */
    void
    finished()
    {
        const std::lock_guard lock(mutex_);
        --live_;
        changed_.notify_all();
    }

    const std::vector<std::size_t> &
    members(std::size_t group) const
    {
        return groups_[group];
    }

  private:
    struct GroupState
    {
        bool built = false;
        std::size_t next = 0;     ///< members started
        std::size_t copying = 0;  ///< forks of the base in progress
    };

    Task
    start(Task::Kind kind, std::size_t group)
    {
        GroupState &g = state_[group];
        const Task t{kind, group, groups_[group][g.next]};
        if (kind != Task::Kind::Build) {
            ++g.next;
            --unstarted_;
        }
        return t;
    }

    Task
    pick()
    {
        // 1. Members of built bases, oldest base first.
        for (const std::size_t group : multi_) {
            GroupState &g = state_[group];
            const std::size_t left = groups_[group].size() - g.next;
            if (!g.built || left == 0)
                continue;
            if (left == 1) {
                if (g.copying == 0)
                    return start(Task::Kind::Take, group);
            } else if (live_ < budget_) {
                ++live_;
                ++g.copying;
                return start(Task::Kind::Copy, group);
            }
        }
        // 2. A new base, leaving a state free for its copies.
        if (nextMulti_ < multi_.size() && live_ + 2 <= budget_) {
            ++live_;
            return start(Task::Kind::Build, multi_[nextMulti_++]);
        }
        // 3. One-job groups fill the remaining workers.
        if (nextSolo_ < solo_.size() && live_ + 1 <= budget_) {
            ++live_;
            return start(Task::Kind::Solo, solo_[nextSolo_++]);
        }
        return {};
    }

    std::mutex mutex_;
    std::condition_variable changed_;
    std::vector<std::vector<std::size_t>> groups_;
    std::vector<GroupState> state_;
    std::vector<std::size_t> multi_;  ///< multi-job groups, in order
    std::vector<std::size_t> solo_;   ///< one-job groups, in order
    std::size_t nextMulti_ = 0;
    std::size_t nextSolo_ = 0;
    std::size_t unstarted_ = 0;  ///< jobs not yet started or failed
    std::size_t live_ = 0;       ///< bases plus running jobs
    const std::size_t budget_;
};

}  // namespace

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {}

void
SweepRunner::run(std::size_t count,
                 const std::function<void(std::size_t)> &job,
                 SweepTelemetry *telemetry, const SharedSetup *setup)
{
    if (telemetry != nullptr)
        *telemetry = SweepTelemetry{};
    if (count == 0)
        return;

    std::vector<std::vector<std::size_t>> groups;
    if (setup != nullptr) {
        groups = setup->groups;
    } else {
        groups.resize(count);
        for (std::size_t i = 0; i < count; ++i)
            groups[i] = {i};
    }
    Schedule schedule(std::move(groups), budget());

    const Clock::time_point runStart = Clock::now();
    std::vector<std::exception_ptr> errors(count);
    // The inline path is the same worker on the calling thread; alone,
    // it never waits (a lone worker always has a task within budget).
    const std::size_t threads =
        jobs_ <= 1 ? 1 : std::min<std::size_t>(jobs_, count);
    // Pre-sized before spawn: worker w writes only workers[w], and
    // the caller reads only after join(), so no locking is needed.
    std::vector<SweepTelemetry::Worker> workers(threads);

    auto runJob = [&](const Task &t, SweepTelemetry::Worker &me,
                      std::size_t self) {
        bool forkedOk = true;
        if (setup != nullptr) {
            try {
                setup->fork(t.job, t.kind != Task::Kind::Copy);
            } catch (...) {
                errors[t.job] = std::current_exception();
                forkedOk = false;
            }
            if (t.kind == Task::Kind::Copy)
                schedule.forked(t.group);
        }
        if (forkedOk) {
            try {
                job(t.job);
            } catch (...) {
                errors[t.job] = std::current_exception();
            }
        }
        ++me.jobs;
        if (t.job * threads / count != self)
            ++me.steals;
        schedule.finished();
    };

    auto worker = [&](std::size_t self) {
        const Clock::time_point birth = Clock::now();
        SweepTelemetry::Worker &me = workers[self];
        for (Task t = schedule.next(); t.kind != Task::Kind::Finished;
             t = schedule.next()) {
            const Clock::time_point taskStart = Clock::now();
            bool builtOk = true;
            if (setup != nullptr && (t.kind == Task::Kind::Build ||
                                     t.kind == Task::Kind::Solo)) {
                try {
                    setup->build(t.group);
                } catch (...) {
                    builtOk = false;
                    for (const std::size_t i : schedule.members(t.group))
                        errors[i] = std::current_exception();
                }
            }
            if (t.kind == Task::Kind::Build)
                schedule.built(t.group, builtOk);
            else if (builtOk)
                runJob(t, me, self);
            else
                schedule.finished();
            me.busyS += secondsSince(taskStart);
        }
        me.idleS = secondsSince(birth) - me.busyS;
    };

    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }

    if (telemetry != nullptr) {
        telemetry->wallS = secondsSince(runStart);
        telemetry->workers = std::move(workers);
    }

    rethrowLowest(errors);
}

unsigned
resolveJobs(unsigned cliJobs, const char *envVar)
{
    if (cliJobs > 0)
        return cliJobs;
    const char *env = envVar != nullptr ? std::getenv(envVar) : nullptr;
    if (env == nullptr)
        return 1;
    unsigned parsed = 0;
    const char *end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec != std::errc{} || ptr != end || parsed == 0)
        return 1;
    return parsed;
}

}  // namespace cubessd::sim
