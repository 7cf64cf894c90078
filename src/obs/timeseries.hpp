// Deterministic fleet-telemetry primitives: per-round time-series and a
// bounded flight recorder.
//
// RoundSeries is a fixed-schema column store of unsigned 64-bit integers,
// appended exactly once per round from the simulation DRIVER thread (the
// engine's kRoundEnd handler). Everything is integral — time-valued columns
// carry virtual-clock MILLIseconds, never wall clock and never doubles — so
// a series is bit-identical across thread counts and repeated runs, and its
// JSON can be golden-pinned like the metrics registry's deterministic
// snapshot. The schema is a pointer to caller-owned static storage: an
// enabled series allocates only its row storage, a disabled one
// (DREL_METRICS=0) allocates nothing and stays observably empty, mirroring
// the Counter::add early-return contract.
//
// FlightRecorder is a bounded ring buffer of the last N engine events
// (round, virtual time, event kind, shard, queue depth), recorded on the
// driver thread as the event loop pops them. It is a diagnostics artifact —
// cheap enough to leave on, dumped as JSON on fault or on demand via
// DREL_FLIGHT_RECORDER=<path> — and is explicitly NOT part of any
// determinism/golden contract (its content is a partition function: which
// arrival events exist depends on the shard layout). The ring is allocated
// lazily on the first recorded event, so DREL_METRICS=0 costs one branch
// and zero bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace drel::obs {

/// Doubling log-spaced histogram bounds [lo, 2lo, 4lo, ...] up to and
/// including the first bound >= hi. The fixed-bounds building block for the
/// virtual-latency histograms: bounds are a pure function of (lo, hi), so
/// snapshots of the same event stream are bit-identical at any thread or
/// shard count. Throws std::invalid_argument on lo == 0 or hi < lo.
std::vector<std::uint64_t> log_spaced_bounds(std::uint64_t lo, std::uint64_t hi);

/// Fixed-schema uint64 time-series, one appended row per round.
///
/// The column-name table must outlive the series (pass a static array; the
/// series stores only the pointer). Copyable — reports carry their series
/// by value.
class RoundSeries {
 public:
    /// Empty series with no schema; append_row on it throws.
    RoundSeries() = default;

    /// `names` points at `num_columns` static strings naming the columns.
    RoundSeries(const char* const* names, std::size_t num_columns);

    std::size_t num_columns() const noexcept { return num_columns_; }
    std::size_t num_rows() const noexcept {
        return num_columns_ == 0 ? 0 : data_.size() / num_columns_;
    }

    /// Index of the named column; throws std::invalid_argument if absent.
    std::size_t column_index(std::string_view name) const;

    /// Appends one row of `num_columns()` values. Early-returns (recording
    /// nothing, allocating nothing) when metrics are disabled — the
    /// recording-site contract shared with Counter::add. Throws
    /// std::invalid_argument on a size mismatch or an empty schema.
    void append_row(const std::vector<std::uint64_t>& values);

    /// Value at (row, col); throws std::out_of_range outside the series.
    std::uint64_t at(std::size_t row, std::size_t col) const;

    /// Column-maximum over all rows (0 for an empty series).
    std::uint64_t column_max(std::size_t col) const;

    /// {"columns": [names...], "rows": [[v, ...], ...]} — deterministic:
    /// fixed column order, integer values only.
    JsonValue to_json() const;

 private:
    const char* const* names_ = nullptr;  ///< static storage, caller-owned
    std::size_t num_columns_ = 0;
    std::vector<std::uint64_t> data_;     ///< row-major, rows * num_columns_
};

/// One recorded engine event. `kind` must point at a static string (the
/// engine passes to_string(EventKind) literals).
struct FlightEvent {
    std::uint64_t seq = 0;        ///< recorder-assigned, monotone
    std::uint32_t round = 0;
    std::uint32_t shard = 0;
    double virtual_time = 0.0;    ///< virtual seconds at the event
    const char* kind = "";
    std::uint64_t queue_depth = 0;
};

/// Bounded ring of the last `capacity` events. Single-writer (the driver
/// thread); readers only after the run.
class FlightRecorder {
 public:
    explicit FlightRecorder(std::size_t capacity);

    std::size_t capacity() const noexcept { return capacity_; }
    /// Events currently retained (<= capacity).
    std::size_t size() const noexcept;
    /// Events ever recorded (the ring keeps the last `capacity` of them).
    std::uint64_t total_recorded() const noexcept { return next_seq_; }
    /// True once the ring storage exists; stays false under DREL_METRICS=0
    /// (the zero-allocation contract the disabled-path test pins).
    bool buffer_allocated() const noexcept { return !ring_.empty(); }

    /// Records one event; early-returns when metrics are disabled.
    void record(std::uint32_t round, double virtual_time, const char* kind,
                std::uint32_t shard, std::uint64_t queue_depth);

    /// Retained events, oldest first.
    std::vector<FlightEvent> events() const;

    /// {"capacity": N, "total_recorded": M, "events": [{seq, round,
    /// virtual_time, kind, shard, queue_depth}, ...]} oldest-first.
    JsonValue to_json() const;

    /// Writes to_json().dump() + "\n" to `path`; returns false (and logs a
    /// warning) on failure — a diagnostics problem never aborts a run.
    bool dump(const std::string& path) const;

 private:
    std::size_t capacity_ = 0;
    std::uint64_t next_seq_ = 0;
    std::vector<FlightEvent> ring_;  ///< lazily sized to capacity_
};

/// Value of DREL_FLIGHT_RECORDER, or empty when unset. Read per call (not
/// cached) so tests and operators can toggle it between runs.
std::string flight_recorder_env_path();

}  // namespace drel::obs
