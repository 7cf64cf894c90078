#include "obs/timeseries.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace drel::obs {

std::vector<std::uint64_t> log_spaced_bounds(std::uint64_t lo, std::uint64_t hi) {
    if (lo == 0) throw std::invalid_argument("log_spaced_bounds: lo must be > 0");
    if (hi < lo) throw std::invalid_argument("log_spaced_bounds: hi must be >= lo");
    std::vector<std::uint64_t> bounds;
    std::uint64_t b = lo;
    for (;;) {
        bounds.push_back(b);
        if (b >= hi) break;
        if (b > std::numeric_limits<std::uint64_t>::max() / 2) {
            bounds.push_back(std::numeric_limits<std::uint64_t>::max());
            break;
        }
        b *= 2;
    }
    return bounds;
}

// --------------------------------------------------------------- RoundSeries

RoundSeries::RoundSeries(const char* const* names, std::size_t num_columns)
    : names_(names), num_columns_(num_columns) {
    if (num_columns_ > 0 && names_ == nullptr) {
        throw std::invalid_argument("RoundSeries: null column-name table");
    }
}

std::size_t RoundSeries::column_index(std::string_view name) const {
    for (std::size_t c = 0; c < num_columns_; ++c) {
        if (name == names_[c]) return c;
    }
    throw std::invalid_argument("RoundSeries::column_index: no column named '" +
                                std::string(name) + "'");
}

void RoundSeries::append_row(const std::vector<std::uint64_t>& values) {
    if (!metrics_enabled()) return;
    if (num_columns_ == 0) {
        throw std::invalid_argument("RoundSeries::append_row: series has no schema");
    }
    if (values.size() != num_columns_) {
        throw std::invalid_argument("RoundSeries::append_row: row width mismatch");
    }
    data_.insert(data_.end(), values.begin(), values.end());
}

std::uint64_t RoundSeries::at(std::size_t row, std::size_t col) const {
    if (col >= num_columns_ || row >= num_rows()) {
        throw std::out_of_range("RoundSeries::at: index out of range");
    }
    return data_[row * num_columns_ + col];
}

std::uint64_t RoundSeries::column_max(std::size_t col) const {
    if (col >= num_columns_) {
        throw std::out_of_range("RoundSeries::column_max: column out of range");
    }
    std::uint64_t best = 0;
    for (std::size_t r = 0; r < num_rows(); ++r) {
        best = std::max(best, data_[r * num_columns_ + col]);
    }
    return best;
}

JsonValue RoundSeries::to_json() const {
    JsonValue::Array columns;
    for (std::size_t c = 0; c < num_columns_; ++c) {
        columns.emplace_back(std::string(names_[c]));
    }
    JsonValue::Array rows;
    for (std::size_t r = 0; r < num_rows(); ++r) {
        JsonValue::Array row;
        for (std::size_t c = 0; c < num_columns_; ++c) {
            row.emplace_back(data_[r * num_columns_ + c]);
        }
        rows.emplace_back(std::move(row));
    }
    JsonValue::Object out;
    out.emplace("columns", std::move(columns));
    out.emplace("rows", std::move(rows));
    return JsonValue(std::move(out));
}

// ------------------------------------------------------------ FlightRecorder

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) {
        throw std::invalid_argument("FlightRecorder: capacity must be > 0");
    }
}

std::size_t FlightRecorder::size() const noexcept {
    return next_seq_ < capacity_ ? static_cast<std::size_t>(next_seq_) : capacity_;
}

void FlightRecorder::record(std::uint32_t round, double virtual_time, const char* kind,
                            std::uint32_t shard, std::uint64_t queue_depth) {
    if (!metrics_enabled()) return;
    if (ring_.empty()) ring_.resize(capacity_);
    FlightEvent& slot = ring_[static_cast<std::size_t>(next_seq_ % capacity_)];
    slot.seq = next_seq_;
    slot.round = round;
    slot.shard = shard;
    slot.virtual_time = virtual_time;
    slot.kind = kind;
    slot.queue_depth = queue_depth;
    ++next_seq_;
}

std::vector<FlightEvent> FlightRecorder::events() const {
    std::vector<FlightEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t first = next_seq_ - n;
    for (std::uint64_t s = first; s < next_seq_; ++s) {
        out.push_back(ring_[static_cast<std::size_t>(s % capacity_)]);
    }
    return out;
}

JsonValue FlightRecorder::to_json() const {
    JsonValue::Array events_json;
    for (const FlightEvent& e : events()) {
        JsonValue::Object entry;
        entry.emplace("seq", e.seq);
        entry.emplace("round", static_cast<std::uint64_t>(e.round));
        entry.emplace("virtual_time", e.virtual_time);
        entry.emplace("kind", std::string(e.kind));
        entry.emplace("shard", static_cast<std::uint64_t>(e.shard));
        entry.emplace("queue_depth", e.queue_depth);
        events_json.emplace_back(std::move(entry));
    }
    JsonValue::Object out;
    out.emplace("capacity", static_cast<std::uint64_t>(capacity_));
    out.emplace("total_recorded", next_seq_);
    out.emplace("events", std::move(events_json));
    return JsonValue(std::move(out));
}

bool FlightRecorder::dump(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        DREL_LOG_WARN("obs") << "cannot write flight-recorder dump " << path;
        return false;
    }
    out << to_json().dump() << "\n";
    return static_cast<bool>(out);
}

std::string flight_recorder_env_path() {
    const char* env = std::getenv("DREL_FLIGHT_RECORDER");
    return env != nullptr ? std::string(env) : std::string();
}

}  // namespace drel::obs
