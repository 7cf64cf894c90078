#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/logging.hpp"

namespace drel::obs {

namespace {

// -1 = no override (use the cached env value), 0 = forced off, 1 = forced on.
std::atomic<int> metrics_override{-1};

}  // namespace

bool metrics_enabled() noexcept {
    const int forced = metrics_override.load(std::memory_order_relaxed);
    if (forced >= 0) return forced != 0;
    static const bool enabled = [] {
        const char* env = std::getenv("DREL_METRICS");
        return !(env != nullptr && env[0] == '0' && env[1] == '\0');
    }();
    return enabled;
}

ScopedMetricsEnabledForTesting::ScopedMetricsEnabledForTesting(bool enabled) noexcept
    : previous_(metrics_override.exchange(enabled ? 1 : 0, std::memory_order_relaxed)) {}

ScopedMetricsEnabledForTesting::~ScopedMetricsEnabledForTesting() {
    metrics_override.store(previous_, std::memory_order_relaxed);
}

namespace detail {

std::size_t thread_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

}  // namespace detail

// ----------------------------------------------------------------- histogram

namespace {

/// Upper-inclusive bucket of `value`; bounds.size() is the overflow bucket.
/// Every histogram in the library has the powers of two from 1 as bounds,
/// where the bucket is ceil(log2 value): that bucket is tried first and
/// kept when its neighbouring bounds confirm it (the overflow bucket's
/// upper bound counting as infinite), and any other bound set falls back
/// to the binary search, so the result is the same for every bound set.
std::size_t bucket_of(const std::vector<std::uint64_t>& bounds, std::uint64_t value) noexcept {
    const auto guess =
        static_cast<std::size_t>(value == 0 ? 0 : std::bit_width(value - 1));
    if (guess <= bounds.size() && (guess == bounds.size() || bounds[guess] >= value) &&
        (guess == 0 || bounds[guess - 1] < value)) {
        return guess;
    }
    return static_cast<std::size_t>(std::lower_bound(bounds.begin(), bounds.end(), value) -
                                    bounds.begin());
}

}  // namespace

void HistogramSnapshot::observe(std::uint64_t value) noexcept {
    ++buckets[bucket_of(bounds, value)];
    ++count;
    sum += value;
}

void HistogramSnapshot::clear() noexcept {
    std::fill(buckets.begin(), buckets.end(), 0);
    count = 0;
    sum = 0;
}

std::uint64_t HistogramSnapshot::quantile_bound(double q) const {
    if (!(q >= 0.0 && q <= 1.0)) {
        throw std::invalid_argument("quantile_bound: q must be in [0, 1]");
    }
    if (count == 0) return 0;
    // Nearest rank: the ceil(q * count)-th observation in sorted order
    // (1-based); q = 0 resolves to the first observation's bucket.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank == 0) rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cumulative += buckets[i];
        if (cumulative >= rank) {
            return i < bounds.size() ? bounds[i] : kHistogramOverflowBound;
        }
    }
    return kHistogramOverflowBound;  // unreachable when count matches buckets
}

JsonValue HistogramSnapshot::to_json() const {
    JsonValue::Array bounds_json;
    for (const std::uint64_t b : bounds) bounds_json.emplace_back(b);
    JsonValue::Array buckets_json;
    for (const std::uint64_t b : buckets) buckets_json.emplace_back(b);
    JsonValue::Object out;
    out.emplace("bounds", std::move(bounds_json));
    out.emplace("buckets", std::move(buckets_json));
    out.emplace("count", count);
    out.emplace("sum", sum);
    return JsonValue(std::move(out));
}

Histogram::Histogram(std::vector<std::uint64_t> bounds) : bounds_(std::move(bounds)) {
    if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
        std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
        throw std::invalid_argument("Histogram: bounds must be strictly ascending");
    }
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
}

void Histogram::observe(std::uint64_t value) noexcept {
    if (!metrics_enabled()) return;
    buckets_[bucket_of(bounds_, value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::merge(const HistogramSnapshot& other) {
    if (!metrics_enabled()) return;
    if (other.bounds != bounds_ || other.buckets.size() != bounds_.size() + 1) {
        throw std::invalid_argument("Histogram::merge: snapshot has different bounds");
    }
    for (std::size_t i = 0; i < other.buckets.size(); ++i) {
        if (other.buckets[i] != 0) {
            buckets_[i].fetch_add(other.buckets[i], std::memory_order_relaxed);
        }
    }
    count_.fetch_add(other.count, std::memory_order_relaxed);
    sum_.fetch_add(other.sum, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
}

HistogramSnapshot Histogram::snapshot() const {
    HistogramSnapshot out;
    out.bounds = bounds_;
    out.buckets = bucket_counts();
    out.count = count();
    out.sum = sum();
    return out;
}

void Histogram::reset() noexcept {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------------ registry

Registry& Registry::global() {
    static Registry* instance = new Registry();  // leaked: outlive all users
    return *instance;
}

Counter& Registry::counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<std::uint64_t> bounds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
                 .first;
    } else if (it->second->bounds() != bounds) {
        throw std::invalid_argument("Registry::histogram: '" + std::string(name) +
                                    "' re-registered with different bounds");
    }
    return *it->second;
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
}

JsonValue Registry::deterministic_snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    JsonValue::Object counters;
    for (const auto& [name, c] : counters_) {
        if (const std::uint64_t total = c->total(); total > 0) counters.emplace(name, total);
    }
    JsonValue::Object gauges;
    for (const auto& [name, g] : gauges_) {
        if (g->touched()) gauges.emplace(name, g->value());
    }
    JsonValue::Object histograms;
    for (const auto& [name, h] : histograms_) {
        if (h->count() == 0) continue;
        JsonValue::Array bounds;
        for (const std::uint64_t b : h->bounds()) bounds.emplace_back(b);
        JsonValue::Array buckets;
        for (const std::uint64_t b : h->bucket_counts()) buckets.emplace_back(b);
        JsonValue::Object entry;
        entry.emplace("bounds", std::move(bounds));
        entry.emplace("buckets", std::move(buckets));
        entry.emplace("count", h->count());
        entry.emplace("sum", h->sum());
        histograms.emplace(name, std::move(entry));
    }
    JsonValue::Object out;
    out.emplace("counters", std::move(counters));
    out.emplace("gauges", std::move(gauges));
    out.emplace("histograms", std::move(histograms));
    return JsonValue(std::move(out));
}

// ------------------------------------------------------------------- sidecar

JsonValue bench_sidecar_json(std::string_view bench_name, const JsonValue* health) {
    const Registry& registry = Registry::global();
    JsonValue::Object doc;
    doc.emplace("schema_version", kBenchSidecarSchemaVersion);
    doc.emplace("bench", std::string(bench_name));
    doc.emplace("deterministic", registry.deterministic_snapshot());
    if (health != nullptr) doc.emplace("health", *health);
    return JsonValue(std::move(doc));
}

bool write_bench_sidecar(std::string_view bench_name, const std::string& path,
                         const JsonValue* health) {
    std::ofstream out(path);
    if (!out) {
        DREL_LOG_WARN("obs") << "cannot write metrics sidecar " << path;
        return false;
    }
    out << bench_sidecar_json(bench_name, health).dump() << "\n";
    return static_cast<bool>(out);
}

}  // namespace drel::obs
