/**
 * @file
 * A fixed-size thread pool for fanning independent simulations out
 * across hardware.
 *
 * Simulator instances are deliberately global-free (simulator.hh),
 * so a sweep over a (workload x network) matrix is embarrassingly
 * parallel: each job builds its own Simulator, runs it, and returns
 * a result. The pool is intentionally minimal — a locked FIFO queue,
 * no work stealing — because jobs are coarse (whole simulations,
 * milliseconds to minutes each) and submission order is the only
 * ordering anyone relies on. Results and exceptions travel back
 * through std::future, so a worker crash surfaces at the caller's
 * get() instead of tearing down the process.
 */

#ifndef MACROSIM_SIM_THREAD_POOL_HH
#define MACROSIM_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace macrosim
{

class ThreadPool
{
  public:
    /** Spawn @p threads workers; 0 is clamped to 1. */
    explicit ThreadPool(std::size_t threads);

    /** Drains: blocks until every submitted task has finished. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Queue @p fn for execution. Tasks start in submission order
     * (FIFO), so a 1-thread pool runs them strictly sequentially.
     * The returned future carries fn's result, or rethrows whatever
     * it threw.
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F &&fn)
    {
        using Result = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        post([task] { (*task)(); });
        return future;
    }

  private:
    void post(std::function<void()> task);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable available_;
    std::deque<std::function<void()>> queue_;
    bool closed_ = false;
    std::vector<std::thread> workers_;
};

} // namespace macrosim

#endif // MACROSIM_SIM_THREAD_POOL_HH
