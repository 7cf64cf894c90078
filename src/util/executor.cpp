#include "util/executor.hpp"

#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

namespace drel::util {
namespace {

/// Set while a thread is executing iterations of some parallel region;
/// nested regions detect it and fall back to the serial loop so pool
/// threads never wait on the pool.
thread_local bool t_in_parallel_region = false;

/// Installed once at startup (profiler static init); loaded per region.
std::atomic<const ParallelContextHooks*> g_context_hooks{nullptr};

std::size_t global_default_threads() {
    if (const char* env = std::getenv("DREL_NUM_THREADS")) {
        try {
            const long parsed = std::stol(env);
            if (parsed >= 1) return static_cast<std::size_t>(parsed);
        } catch (const std::exception&) {
            // fall through to the hardware default
        }
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    // Floor of 2: keep the parallel code paths live on single-core hosts so
    // sanitizer runs exercise real cross-thread interleavings everywhere.
    return std::max<std::size_t>(2, hardware == 0 ? 1 : hardware);
}

/// Shared per-loop state. Every runner co-owns it via shared_ptr, so even a
/// task still sitting in the pool queue when the caller unwinds (e.g. a
/// submit failure mid-fan-out) can never touch a dead stack frame — the fix
/// for the old per-call-pool destruction-order race.
struct LoopState {
    std::function<void(std::size_t)> body;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    /// Context propagation (see ParallelContextHooks): the token captured
    /// on the submitting thread, adopted by every runner, dropped with the
    /// loop state (shared_ptr keeps it alive for queued stragglers).
    const ParallelContextHooks* hooks = nullptr;
    void* context_token = nullptr;

    ~LoopState() {
        if (hooks != nullptr && hooks->drop != nullptr) hooks->drop(context_token);
    }

    void run() {
        const bool was_nested = t_in_parallel_region;
        t_in_parallel_region = true;
        void* context_cookie = nullptr;
        if (hooks != nullptr && hooks->adopt != nullptr) {
            context_cookie = hooks->adopt(context_token);
        }
        while (!failed.load(std::memory_order_acquire)) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) break;
            try {
                body(i);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
                failed.store(true, std::memory_order_release);
                break;
            }
        }
        if (hooks != nullptr && hooks->release != nullptr) hooks->release(context_cookie);
        t_in_parallel_region = was_nested;
    }
};

}  // namespace

void install_parallel_context_hooks(const ParallelContextHooks& hooks) noexcept {
    static ParallelContextHooks storage;
    storage = hooks;
    g_context_hooks.store(&storage, std::memory_order_release);
}

Executor::Executor(std::size_t max_threads)
    : max_threads_(std::max<std::size_t>(1, max_threads)) {}

Executor& Executor::global() {
    static Executor instance(global_default_threads());
    return instance;
}

ThreadPool& Executor::pool() {
    std::call_once(pool_once_, [this] {
        pool_ = std::make_unique<ThreadPool>(max_threads_ - 1);
    });
    return *pool_;
}

void Executor::parallel_for(std::size_t count, std::size_t num_threads,
                            const std::function<void(std::size_t)>& body) {
    if (!body) throw std::invalid_argument("parallel_for: body must be callable");
    if (count == 0) return;
    const std::size_t runners = std::min(num_threads, count);
    if (runners <= 1 || max_threads_ <= 1 || t_in_parallel_region) {
        // Serial path — exceptions cancel the remaining range trivially.
        for (std::size_t i = 0; i < count; ++i) body(i);
        return;
    }

    auto state = std::make_shared<LoopState>();
    state->body = body;  // own a copy: queued tasks must not alias caller refs
    state->count = count;
    state->hooks = g_context_hooks.load(std::memory_order_acquire);
    if (state->hooks != nullptr && state->hooks->capture != nullptr) {
        state->context_token = state->hooks->capture();
    }

    std::vector<std::future<void>> futures;
    futures.reserve(runners - 1);
    for (std::size_t w = 0; w + 1 < runners; ++w) {
        futures.push_back(pool().submit([state] { state->run(); }));
    }
    state->run();  // the caller is runner #0 — never idle while joining
    // run() swallows body exceptions into state->first_error, so get() only
    // waits; the pool outlives the loop, so joining cannot race shutdown.
    for (auto& future : futures) future.get();
    if (state->first_error) std::rethrow_exception(state->first_error);
}

void parallel_for(std::size_t count, std::size_t num_threads,
                  const std::function<void(std::size_t)>& body) {
    Executor::global().parallel_for(count, num_threads, body);
}

}  // namespace drel::util
