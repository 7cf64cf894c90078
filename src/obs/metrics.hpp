// Deterministic metrics registry for the EM/DRO/fleet hot paths.
//
// Design contract (see DESIGN.md "Observability"):
//
//  * Event COUNTS are deterministic. Counters and histograms record integer
//    event counts/values only; every shard/bucket is an unsigned integer, so
//    aggregation is a commutative sum and the aggregate is bit-identical at
//    any thread count — provided the instrumented computation itself is
//    deterministic, which the concurrency layer guarantees (per-index RNG
//    forking, indexed slots, fixed-order scans). Gauges carry doubles but
//    must only be set from deterministic code points (e.g. the encoded
//    prior size on the simulation driver thread).
//  * Wall-clock stays out. The registry records no times (the phase
//    profiler, obs/profiler.hpp, owns all timing), so golden files and
//    cross-thread diffs can assert byte equality of the deterministic JSON.
//  * Hot-path cost is a few nanoseconds. Counter::add is one relaxed
//    fetch_add on a cache-line-padded per-thread shard (no contention, no
//    locks); instrumentation sites cache the Counter& in a function-local
//    static so the name lookup happens once per process. DREL_METRICS=0
//    turns every recording call into an early return.
//  * Snapshots include only metrics touched since the last reset().
//    Registration is lazy (first use), so the set of *registered* metrics
//    depends on which code paths ran earlier in the process; filtering to
//    touched metrics makes a snapshot a pure function of the instrumented
//    run, not of process history — what the golden-file tests pin down.
//
// Registry::global() is the process-wide instance every instrumentation
// site uses. Handles returned by counter()/gauge()/histogram() are
// stable for the life of the process; reset() zeroes values without
// invalidating handles.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace drel::obs {

/// Bench sidecar document version. v2 added the optional "health" block
/// (fleet telemetry: RoundSeries, latency histograms, SLO report); v3
/// dropped the wall-clock "timing" block. The golden metric documents
/// (tests/golden/*.json) carry their own version, so sidecar changes do not
/// re-record them.
inline constexpr std::uint64_t kBenchSidecarSchemaVersion = 3;

/// False iff the environment sets DREL_METRICS=0 (checked once, cached),
/// unless a ScopedMetricsEnabledForTesting override is active.
bool metrics_enabled() noexcept;

/// RAII test hook forcing metrics_enabled() to a fixed value for the
/// scope's lifetime. The env value is cached once per process, so tests
/// exercising the DREL_METRICS=0 fast path in-process need this. Not for
/// production code; scopes must not nest across threads.
class ScopedMetricsEnabledForTesting {
 public:
    explicit ScopedMetricsEnabledForTesting(bool enabled) noexcept;
    ScopedMetricsEnabledForTesting(const ScopedMetricsEnabledForTesting&) = delete;
    ScopedMetricsEnabledForTesting& operator=(const ScopedMetricsEnabledForTesting&) = delete;
    ~ScopedMetricsEnabledForTesting();

 private:
    int previous_;
};

namespace detail {
/// Small dense id of the calling thread, assigned on first use.
std::size_t thread_slot() noexcept;
}  // namespace detail

/// Monotone event counter, sharded across threads. add() is wait-free; the
/// total is the sum over shards (exact — integer addition commutes).
class Counter {
 public:
    void add(std::uint64_t n = 1) noexcept {
        if (!metrics_enabled()) return;
        shards_[detail::thread_slot() & (kShards - 1)].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t total() const noexcept {
        std::uint64_t sum = 0;
        for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
        return sum;
    }

    void reset() noexcept {
        for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
    }

 private:
    static constexpr std::size_t kShards = 32;  // power of two (mask-indexed)
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Shard, kShards> shards_;
};

/// Last-written double value. Only set gauges from deterministic,
/// schedule-independent code points — "last write wins" across racing
/// threads would break the determinism contract.
class Gauge {
 public:
    void set(double value) noexcept {
        if (!metrics_enabled()) return;
        value_.store(value, std::memory_order_relaxed);
        touched_.store(true, std::memory_order_release);
    }

    double value() const noexcept { return value_.load(std::memory_order_relaxed); }
    bool touched() const noexcept { return touched_.load(std::memory_order_acquire); }

    void reset() noexcept {
        value_.store(0.0, std::memory_order_relaxed);
        touched_.store(false, std::memory_order_release);
    }

 private:
    std::atomic<double> value_{0.0};
    std::atomic<bool> touched_{false};
};

/// Sentinel returned by quantile_bound when the requested rank lands in the
/// overflow bucket — the histogram has no upper bound for those values.
inline constexpr std::uint64_t kHistogramOverflowBound =
    ~static_cast<std::uint64_t>(0);

/// Value-type copy of a Histogram's state. Histogram itself holds atomics
/// and is pinned in place; reports that must carry histogram data by value
/// (e.g. the fleet telemetry in EngineReport) carry snapshots instead. All
/// fields are integers, so two snapshots of the same event stream compare
/// equal byte-for-byte regardless of thread or shard count.
///
/// A snapshot is also a plain single-owner accumulator: a worker takes a
/// snapshot of the destination histogram once, clear()s it per slice,
/// tallies the slice with observe() (no atomics, no metrics gate) and
/// hands the result to Histogram::merge in one call.
struct HistogramSnapshot {
    std::vector<std::uint64_t> bounds;   ///< ascending, upper-inclusive
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /// Adds one observation to the bucket Histogram::observe would pick.
    /// Requires buckets.size() == bounds.size() + 1.
    void observe(std::uint64_t value) noexcept;

    /// Zeroes buckets, count and sum; keeps the bounds.
    void clear() noexcept;

    /// Nearest-rank quantile resolved to a bucket UPPER BOUND: the bound of
    /// the first bucket whose cumulative count reaches ceil(q * count). A
    /// conservative (never under-reporting) estimate — exact values inside
    /// a bucket are not retained. Returns 0 on an empty snapshot and
    /// kHistogramOverflowBound when the rank falls in the overflow bucket.
    /// Throws std::invalid_argument unless 0 <= q <= 1.
    std::uint64_t quantile_bound(double q) const;

    /// {"bounds": [...], "buckets": [...], "count": N, "sum": S} — the same
    /// shape the registry's deterministic snapshot uses for histograms.
    JsonValue to_json() const;

    friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

/// Fixed-bucket histogram of unsigned integer observations (iteration
/// counts, payload bytes, ...). Bounds are upper-inclusive and fixed at
/// registration; one overflow bucket is appended. All state is integer, so
/// the aggregate is deterministic like Counter.
class Histogram {
 public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    void observe(std::uint64_t value) noexcept;

    /// Adds a tallied slice in one step: the same state `other.count`
    /// observe() calls of its values would leave. A no-op under
    /// DREL_METRICS=0, like observe(). Throws std::invalid_argument when
    /// `other` was tallied over different bounds.
    void merge(const HistogramSnapshot& other);

    const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
    std::vector<std::uint64_t> bucket_counts() const;
    std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

    /// Value-type copy of the current state.
    HistogramSnapshot snapshot() const;

    void reset() noexcept;

 private:
    std::vector<std::uint64_t> bounds_;                       ///< ascending, upper-inclusive
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;   ///< bounds_.size() + 1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

class Registry {
 public:
    /// The process-wide registry all instrumentation sites use.
    static Registry& global();

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Lookup-or-create by name; returned references stay valid for the
    /// registry's lifetime. histogram() with bounds different from the
    /// first registration throws std::invalid_argument.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name, std::vector<std::uint64_t> bounds);

    /// Zeroes every metric (handles stay valid). Used by tests to scope a
    /// snapshot to exactly one scenario.
    void reset();

    /// Deterministic section: {"counters": {...}, "gauges": {...},
    /// "histograms": {...}}, sorted by name, only metrics touched since the
    /// last reset. Byte-identical across thread counts for deterministic
    /// workloads.
    JsonValue deterministic_snapshot() const;

 private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Bench sidecar document (schema v3, validated by tests/test_bench_schema):
///   {"schema_version": kBenchSidecarSchemaVersion, "bench": name,
///    "deterministic": {counters, gauges, histograms},
///    "health": <fleet telemetry, only when provided>}
/// The optional `health` pointer attaches a pre-built fleet-telemetry block
/// (see health::FleetTelemetry::to_json); nullptr omits the key.
JsonValue bench_sidecar_json(std::string_view bench_name,
                             const JsonValue* health = nullptr);

/// Writes bench_sidecar_json(bench_name, health).dump() + "\n" to `path`.
/// Returns false (and logs a warning) if the file cannot be written.
bool write_bench_sidecar(std::string_view bench_name, const std::string& path,
                         const JsonValue* health = nullptr);

}  // namespace drel::obs
