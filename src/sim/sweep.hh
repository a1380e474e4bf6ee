/**
 * @file
 * SweepRunner: the parallel experiment engine behind the figure
 * benches and the campaign runner.
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
 *
 * Cancellation is cooperative: once a SIGINT/SIGTERM arrives after
 * installSweepSignalHandlers() (or a test calls
 * requestSweepInterrupt()), jobs that have not started are skipped,
 * *running jobs drain to completion* — their results are still
 * delivered, so a journaling caller flushes every finished cell —
 * and runCancellable() reports which jobs ran. Benches exit
 * non-zero afterwards via sweepExitStatus().
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

/** A cancellable run's results plus which jobs actually executed. */
template <typename Result>
struct SweepOutcome
{
    /** Submission-order results; skipped slots are default-built. */
    std::vector<Result> results;
    /** ran[i] != 0 iff job i executed to completion. */
    std::vector<std::uint8_t> ran;
    /** Whether a sweep interrupt cut the sweep short. */
    bool interrupted = false;

    std::size_t
    completed() const
    {
        std::size_t n = 0;
        for (const std::uint8_t r : ran)
            n += r;
        return n;
    }
};

/**
 * Default worker count: the MACROSIM_JOBS environment variable if
 * set to a positive integer, else hardware_concurrency().
 */
std::size_t defaultJobs();

/** Serialized status line (threads share the sink). */
void sweepLog(const std::string &line);

/**
 * Install SIGINT/SIGTERM handlers that request cooperative sweep
 * cancellation (drain running cells, skip the rest) instead of the
 * default immediate process death that abandons in-flight cells.
 * Idempotent; called by bench flag parsing and `macrosimctl run`.
 */
void installSweepSignalHandlers();

/** Whether a signal (or requestSweepInterrupt) asked sweeps to stop. */
bool sweepInterrupted();

/** Programmatic equivalent of SIGINT for tests. */
void requestSweepInterrupt();

/** Clear the interrupt latch (tests only; signals stay installed). */
void clearSweepInterrupt();

/** Process exit code honoring interruption: 130 after a cancelled
 *  sweep (the conventional 128+SIGINT), else 0. */
int sweepExitStatus();

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
     * Honors the global signal interrupt (skipped jobs return
     * default-constructed results; check sweepInterrupted()).
     */
    template <typename Result>
    std::vector<Result>
    run(const std::string &name, std::vector<SweepJob<Result>> sweep)
    {
        return runCancellable(name, std::move(sweep)).results;
    }

    /**
     * As run(), but explicit about which jobs executed. On a sweep
     * interrupt the queued-but-unstarted jobs are drained through
     * ThreadPool::cancelPending() (their closures observe
     * ThreadPool::cancelling() and return immediately), running
     * jobs finish normally, and outcome.interrupted is set.
     */
    template <typename Result>
    SweepOutcome<Result>
    runCancellable(const std::string &name,
                   std::vector<SweepJob<Result>> sweep)
    {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point start = Clock::now();
        double busy_ns = 0.0;
        beginSweep(sweep.size(), start);

        SweepOutcome<Result> outcome;
        outcome.results.resize(sweep.size());
        outcome.ran.assign(sweep.size(), 0);

        std::vector<std::future<void>> futures;
        futures.reserve(sweep.size());
        {
            ThreadPool pool(jobs_);
            for (std::size_t i = 0; i < sweep.size(); ++i) {
                SweepJob<Result> &job = sweep[i];
                futures.push_back(pool.submit(
                    [this, &outcome, i, job = std::move(job),
                     &busy_ns] {
                        if (sweepInterrupted()
                            || ThreadPool::cancelling())
                            return;
                        const Clock::time_point t0 = Clock::now();
                        outcome.results[i] = job.fn();
                        outcome.ran[i] = 1;
                        const double ns = std::chrono::duration<
                            double, std::nano>(Clock::now() - t0)
                                              .count();
                        noteJobDone(job.label, ns, &busy_ns);
                    }));
            }

            // Babysit the drain: the moment cancellation is
            // requested, flush the not-yet-started tail through
            // cancelPending() so only in-flight cells remain.
            bool flushed = false;
            for (std::future<void> &f : futures) {
                while (f.wait_for(std::chrono::milliseconds(20))
                       != std::future_status::ready) {
                    if (!flushed && sweepInterrupted()) {
                        pool.cancelPending();
                        flushed = true;
                    }
                }
            }
        } // pool joins here

        // Rethrow a job's exception, if any, after the drain (the
        // old run() contract: a worker crash surfaces here).
        for (std::future<void> &f : futures)
            f.get();
        outcome.interrupted = sweepInterrupted();

        const double wall_ns = std::chrono::duration<double, std::nano>(
                                   Clock::now() - start)
                                   .count();
        noteSweepDone(name, outcome, wall_ns, busy_ns);
        return outcome;
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
    void noteSweepDone(const std::string &name, std::size_t completed,
                       std::size_t count, bool interrupted,
                       double wall_ns, double busy_ns);

    template <typename Result>
    void
    noteSweepDone(const std::string &name,
                  const SweepOutcome<Result> &outcome, double wall_ns,
                  double busy_ns)
    {
        noteSweepDone(name, outcome.completed(),
                      outcome.results.size(), outcome.interrupted,
                      wall_ns, busy_ns);
    }

    std::size_t jobs_;
    bool progress_;

    /** Live progress state of the sweep currently in run(). */
    std::size_t total_ = 0;
    std::size_t done_ = 0;
    std::chrono::steady_clock::time_point sweepStart_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_SWEEP_HH
