// Shared parallel executor: parallel_for on a lazily-created, process-wide
// thread pool.
//
// Design (see DESIGN.md "Concurrency & determinism"):
//
//  * One shared pool. The pool is created on the first parallel call that
//    asks for more than one runner and is reused for the rest of the
//    process, so hot loops (fleet simulation, EM multi-start, bench trial
//    repetitions) do not pay thread creation per call. This also removes a
//    whole class of lifetime bugs the old per-call pool had: the pool
//    outlives every loop, and each submitted task co-owns its loop state
//    through a shared_ptr, so no worker can ever touch a dead stack frame.
//  * Caller participation. A parallel loop submits (runners - 1) claim
//    loops to the pool and runs one itself, then joins. The calling thread
//    is never idle, and a request can exceed the pool size without
//    deadlock — excess runners just queue.
//  * Nested calls serialize. A parallel region entered from inside another
//    parallel region runs the plain serial loop (thread_local flag). Pool
//    threads therefore never block on the pool — the classic
//    nested-parallelism deadlock cannot happen, and per-device work that
//    itself calls parallel code (EM multi-start inside the fleet loop)
//    stays deterministic.
//  * Cooperative cancellation. The first exception a runner catches sets a
//    shared `failed` flag; all runners stop claiming new iterations and the
//    first error is rethrown to the caller after the join. A throwing
//    iteration therefore returns promptly instead of running out the range.
//  * Determinism. Iterations write to caller-indexed slots and derive any
//    randomness from Rng::fork(index), so results are bit-identical at any
//    thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/thread_pool.hpp"

namespace drel::util {

/// Observer hooks that carry per-thread context from the thread submitting
/// a parallel region onto every runner of that region (the obs profiler
/// uses this to keep phase paths schedule-independent: a frame opened
/// inside parallel_for must land under the submitting thread's phase path
/// whether it ran on the caller or on a pool worker).
///
/// Lifecycle per region: `capture()` once on the submitting thread; on each
/// runner `adopt(token)` before the claim loop and `release(cookie)` after
/// it (same thread, including the caller-as-runner); `drop(token)` once
/// when the region's state dies. All functions must be noexcept-safe and
/// thread-safe; any of them may be null. Installed once at startup.
struct ParallelContextHooks {
    void* (*capture)() noexcept = nullptr;
    void* (*adopt)(void* token) noexcept = nullptr;
    void (*release)(void* cookie) noexcept = nullptr;
    void (*drop)(void* token) noexcept = nullptr;
};

/// Installs the process-wide hooks (last call wins; regions already in
/// flight keep the hooks they captured).
void install_parallel_context_hooks(const ParallelContextHooks& hooks) noexcept;

class Executor {
 public:
    /// An executor targeting up to `max_threads` concurrent runners: the
    /// calling thread plus a lazily-created pool of (max_threads - 1)
    /// workers. `max_threads <= 1` builds a serial executor that never
    /// spawns threads.
    explicit Executor(std::size_t max_threads);

    /// Joins the pool (drain policy: in-flight loops finish first).
    ~Executor() = default;

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// The process-wide shared executor. Sized from DREL_NUM_THREADS if set,
    /// else hardware_concurrency, with a floor of 2 so parallel code paths
    /// are exercised even on single-core machines.
    static Executor& global();

    std::size_t max_threads() const noexcept { return max_threads_; }

    /// Runs body(i) for i in [0, count) on up to `num_threads` runners
    /// (clamped to count; the caller is one of them). Iterations are claimed
    /// dynamically from an atomic counter. Rethrows the first exception any
    /// iteration produced; remaining iterations are cooperatively cancelled.
    /// num_threads <= 1 — or a call from inside another parallel region —
    /// degenerates to the plain serial loop.
    void parallel_for(std::size_t count, std::size_t num_threads,
                      const std::function<void(std::size_t)>& body);

 private:
    ThreadPool& pool();

    std::size_t max_threads_;
    std::once_flag pool_once_;
    std::unique_ptr<ThreadPool> pool_;
};

/// Runs body(i) for i in [0, count) across up to `num_threads` runners of
/// the shared global executor. Semantics of Executor::parallel_for.
void parallel_for(std::size_t count, std::size_t num_threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace drel::util
