// Benchmark-side tracing: clocks, spans around calls into the library's
// layers, and the per-(layer, site) ledger built from them.
//
// A span covers one call, or one block of calls of a single kind, that the
// benchmark makes into a layer's public function. It records the layer and
// call site, its parent span, the recording thread, wall start/end and the
// thread's CPU time, plus how many layer calls (or work items) it covers.
// Spans stay in memory and are written out once, at the end of the run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
std::int64_t wall_ns() noexcept;
/// CPU time of the calling thread, nanoseconds.
std::int64_t thread_cpu_ns() noexcept;
/// CPU time of the whole process (user + sys, all threads), nanoseconds.
std::int64_t process_cpu_ns() noexcept;
/// Small dense id of the calling thread (0 = first thread that asked).
std::uint32_t thread_index() noexcept;

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    const char* layer = "";    ///< "" = structural span, attributed to no layer
    const char* site = "";
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t cpu_ns = 0;
    std::uint64_t calls = 0;
};

/// Per-(layer, site) sums over recorded spans.
struct SiteTotals {
    std::int64_t cpu_ns = 0;
    std::int64_t wall_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t spans = 0;

    SiteTotals& operator+=(const SiteTotals& o) noexcept {
        cpu_ns += o.cpu_ns;
        wall_ns += o.wall_ns;
        calls += o.calls;
        spans += o.spans;
        return *this;
    }
};

class Tracer {
 public:
    std::uint64_t next_id() noexcept;
    void record(const Span& span);
    /// A span that could not be stored (out of memory); the ledger is then
    /// incomplete and the run must not pass.
    void note_dropped() noexcept { dropped_.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

    /// Sums by (layer, site); structural spans are skipped.
    std::map<std::pair<std::string, std::string>, SiteTotals> totals() const;
    /// Per-span CPU durations (ns) of one site, in recording order.
    std::vector<std::int64_t> span_cpu(const std::string& layer, const std::string& site) const;
    std::size_t size() const;

    /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
    void write_json(const std::string& path) const;

 private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
    std::uint64_t next_id_ = 1;  // guarded by mutex_
    std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span. Inactive (records nothing, reads no clock) when `tracer` is
/// null, so the same call sites serve traced and untraced code paths.
class ScopedSpan {
 public:
    ScopedSpan(Tracer* tracer, const char* layer, const char* site, std::uint64_t parent = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const noexcept { return span_.id; }
    void add_calls(std::uint64_t n) noexcept { span_.calls += n; }

 private:
    Tracer* tracer_;
    Span span_;
    std::int64_t cpu_start_ = 0;
};

}  // namespace perfbench
