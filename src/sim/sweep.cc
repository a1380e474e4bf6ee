#include "sim/sweep.hh"

#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/logging.hh"

namespace macrosim
{

namespace
{

std::mutex progressMutex;

} // namespace

std::size_t
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(std::size_t jobs, bool progress)
    : jobs_(jobs > 0 ? jobs : defaultJobs()), progress_(progress)
{}

void
SweepRunner::beginSweep(std::size_t total,
                        std::chrono::steady_clock::time_point start)
{
    std::lock_guard<std::mutex> lock(progressMutex);
    total_ = total;
    done_ = 0;
    sweepStart_ = start;
}

void
SweepRunner::noteJobDone(const std::string &label, double ns,
                         double *busy_ns)
{
    std::lock_guard<std::mutex> lock(progressMutex);
    *busy_ns += ns;
    ++done_;
    // ETA from monotonic elapsed / cells finished: cells complete in
    // the same ratio no matter how many workers run them, so the
    // estimate holds for any --jobs value.
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - sweepStart_)
            .count();
    const double eta_s = done_ < total_
        ? elapsed_s / static_cast<double>(done_)
            * static_cast<double>(total_ - done_)
        : 0.0;
    if (!progress_)
        return;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  [job %zu/%zu] %s: %.1f ms (eta %.1f s)", done_,
                  total_, label.c_str(), ns * 1e-6, eta_s);
    statusLine(line);
}

void
SweepRunner::noteSweepDone(const std::string &name, std::size_t count,
                           double wall_ns, double busy_ns)
{
    if (!progress_)
        return;
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(1);
    os << "[sweep] " << name << ": " << count << " jobs on " << jobs_
       << " threads, " << wall_ns * 1e-6 << " ms wall, "
       << busy_ns * 1e-6 << " ms cpu, speedup ";
    os.precision(2);
    os << (wall_ns > 0.0 ? busy_ns / wall_ns : 0.0) << "x";
    statusLine(os.str());
}

} // namespace macrosim
