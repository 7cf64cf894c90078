// Fixed-size thread pool that drains on shutdown.
//
// The pool is deliberately minimal: fixed worker count, FIFO queue, futures
// for joining, no work stealing. The higher-level parallel loop
// (parallel_for) lives in util/executor.hpp and runs on a shared,
// lazily-created global instance of this pool so hot paths do not pay
// thread creation per call.
//
// Shutdown (the destructor or shutdown()) lets workers finish every task
// already queued, then joins. No future is ever broken.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace drel::util {

class ThreadPool {
 public:
    /// Spawns `num_threads` workers (>= 1).
    explicit ThreadPool(std::size_t num_threads);

    /// Equivalent to shutdown().
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t num_threads() const noexcept { return workers_.size(); }

    /// Enqueues a task; the future resolves when it completes (exceptions
    /// propagate through the future). Throws if the pool is shutting down.
    std::future<void> submit(std::function<void()> task);

    /// Stops accepting work, runs everything already queued and joins all
    /// workers. Idempotent; called by ~ThreadPool.
    void shutdown();

 private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable condition_;
    bool stopping_ = false;
    bool joined_ = false;
};

}  // namespace drel::util
