/**
 * @file
 * SweepRunner: the parallel experiment engine behind the figure
 * benches.
 *
 * A sweep is an ordered list of labelled jobs, each a closure that
 * builds and runs one independent Simulator and returns its result.
 * SweepRunner fans the jobs out over a ThreadPool and hands the
 * results back in submission order, so table-printing code is
 * oblivious to the parallelism. Determinism is the caller's half of
 * the contract: derive each job's RNG seed from the job's identity
 * with deriveSeed() (sim/random.hh), never from shared mutable
 * state, and results are bit-identical for any --jobs value.
 *
 * Each finished job emits one "[job k/N] label: ms (eta s)" line
 * through the logging layer's statusLine(). ETA math runs on
 * std::chrono::steady_clock, so a wall-clock step (NTP, DST) cannot
 * produce a negative or absurd estimate.
 */

#ifndef MACROSIM_SIM_SWEEP_HH
#define MACROSIM_SIM_SWEEP_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "sim/thread_pool.hh"

namespace macrosim
{

/** One cell of a sweep: a display label plus the work itself. */
template <typename Result>
struct SweepJob
{
    std::string label;
    std::function<Result()> fn;
};

/**
 * Default worker count: the MACROSIM_JOBS environment variable if
 * set to a positive integer, else hardware_concurrency().
 */
std::size_t defaultJobs();

class SweepRunner
{
  public:
    /**
     * @p jobs worker threads; 0 means defaultJobs(). @p progress
     * false silences the per-job and aggregate status lines (the
     * test suite runs sweeps quietly).
     */
    explicit SweepRunner(std::size_t jobs = 0, bool progress = true);

    std::size_t jobs() const { return jobs_; }

    /**
     * Run every job and return their results in submission order.
     * A job's exception is rethrown here, after the pool drains.
     */
    template <typename Result>
    std::vector<Result>
    run(const std::string &name, std::vector<SweepJob<Result>> sweep)
    {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point start = Clock::now();
        double busy_ns = 0.0;
        beginSweep(sweep.size(), start);

        std::vector<Result> results(sweep.size());
        std::vector<std::future<void>> futures;
        futures.reserve(sweep.size());
        {
            ThreadPool pool(jobs_);
            for (std::size_t i = 0; i < sweep.size(); ++i) {
                futures.push_back(pool.submit(
                    [this, &results, i, job = std::move(sweep[i]),
                     &busy_ns] {
                        const Clock::time_point t0 = Clock::now();
                        results[i] = job.fn();
                        const double ns = std::chrono::duration<
                            double, std::nano>(Clock::now() - t0)
                                              .count();
                        noteJobDone(job.label, ns, &busy_ns);
                    }));
            }
        } // pool joins here

        for (std::future<void> &f : futures)
            f.get();

        const double wall_ns = std::chrono::duration<double, std::nano>(
                                   Clock::now() - start)
                                   .count();
        noteSweepDone(name, results.size(), wall_ns, busy_ns);
        return results;
    }

  private:
    /** Reset the live progress counters for a new sweep (locked). */
    void beginSweep(std::size_t total,
                    std::chrono::steady_clock::time_point start);

    /**
     * Log one finished job and accumulate busy time (locked). The
     * progress line reports cells done/total plus an ETA projected
     * from monotonic elapsed over cells finished — worker-count
     * agnostic, so it stays honest for any --jobs value.
     */
    void noteJobDone(const std::string &label, double ns,
                     double *busy_ns);

    /** Log the aggregate wall time and parallel speedup. */
    void noteSweepDone(const std::string &name, std::size_t count,
                       double wall_ns, double busy_ns);

    std::size_t jobs_;
    bool progress_;

    /** Live progress state of the sweep currently in run(). */
    std::size_t total_ = 0;
    std::size_t done_ = 0;
    std::chrono::steady_clock::time_point sweepStart_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_SWEEP_HH
