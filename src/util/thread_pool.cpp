#include "util/thread_pool.hpp"

#include <stdexcept>
#include <utility>

namespace drel::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) throw std::invalid_argument("ThreadPool: need >= 1 thread");
    workers_.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (joined_) return;
        stopping_ = true;
    }
    condition_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    const std::lock_guard<std::mutex> lock(mutex_);
    joined_ = true;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) throw std::runtime_error("ThreadPool::submit: pool is shutting down");
        queue_.push(std::move(packaged));
    }
    condition_.notify_one();
    return future;
}

void ThreadPool::worker_loop() {
    while (true) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            condition_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();  // exceptions are captured by the packaged_task
    }
}

}  // namespace drel::util
