#include "sim/thread_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace macrosim
{

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t count = std::max<std::size_t>(1, threads);
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    // Workers keep pulling until the queue is empty, so joining
    // them drains every task submitted before destruction.
    available_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_)
            panic("ThreadPool: submit() after destruction began");
        queue_.push_back(std::move(task));
    }
    available_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            available_.wait(lock,
                            [this] { return closed_ || !queue_.empty(); });
            if (queue_.empty())
                return; // closed_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // packaged_task catches the task's exceptions and stores
        // them in the future; nothing escapes into the worker.
        task();
    }
}

} // namespace macrosim
