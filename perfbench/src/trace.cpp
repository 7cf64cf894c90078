#include "trace.hpp"

#include <atomic>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::int64_t clock_ns(clockid_t clock) noexcept {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::atomic<std::uint32_t> g_next_thread{0};
thread_local std::uint32_t t_thread = UINT32_MAX;

}  // namespace

std::int64_t wall_ns() noexcept { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() noexcept { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() noexcept { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::uint32_t thread_index() noexcept {
    if (t_thread == UINT32_MAX) t_thread = g_next_thread.fetch_add(1);
    return t_thread;
}

std::uint64_t Tracer::next_id() noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void Tracer::record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::map<std::pair<std::string, std::string>, SiteTotals> Tracer::totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::pair<std::string, std::string>, SiteTotals> out;
    for (const Span& span : spans_) {
        if (span.layer[0] == '\0') continue;
        out[{span.layer, span.site}] +=
            SiteTotals{span.cpu_ns, span.end_ns - span.start_ns, span.calls, 1};
    }
    return out;
}

std::vector<std::int64_t> Tracer::span_cpu(const std::string& layer,
                                           const std::string& site) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::int64_t> out;
    for (const Span& span : spans_) {
        if (layer == span.layer && site == span.site) out.push_back(span.cpu_ns);
    }
    return out;
}

std::size_t Tracer::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void Tracer::write_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const std::string name =
            s.layer[0] == '\0' ? std::string(s.site) : std::string(s.layer) + "." + s.site;
        out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":\"" << name
            << "\",\"cat\":\"" << (s.layer[0] == '\0' ? "structure" : s.layer)
            << "\",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
            << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"cpu_us\":" << static_cast<double>(s.cpu_ns) / 1e3 << ",\"calls\":" << s.calls
            << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* layer, const char* site,
                       std::uint64_t parent)
    : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->next_id();
    span_.parent = parent;
    span_.layer = layer;
    span_.site = site;
    span_.thread = thread_index();
    span_.start_ns = wall_ns();
    cpu_start_ = thread_cpu_ns();
}

ScopedSpan::~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.cpu_ns = thread_cpu_ns() - cpu_start_;
    span_.end_ns = wall_ns();
    try {
        tracer_->record(span_);
    } catch (...) {
        tracer_->note_dropped();
    }
}

}  // namespace perfbench
