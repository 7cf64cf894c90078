#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__linux__)
#include <ctime>
#endif

#include "obs/metrics.hpp"
#include "util/executor.hpp"
#include "util/logging.hpp"

namespace drel::obs {
namespace detail {

namespace {

/// Phase names are string literals, but the same literal can have a
/// different address in every translation unit — key children by content.
struct NameLess {
    bool operator()(const char* a, const char* b) const noexcept {
        return std::strcmp(a, b) < 0;
    }
};

}  // namespace

struct ProfileNode {
    const char* name;
    ProfileNode* parent;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> wall_ns{0};
    std::atomic<std::uint64_t> cpu_ns{0};
    /// Mutated only by the owning thread (under the state mutex); read by
    /// snapshots (under the same mutex). The owner's lock-free lookups can
    /// never race its own inserts.
    std::map<const char*, std::unique_ptr<ProfileNode>, NameLess> children;

    ProfileNode(const char* n, ProfileNode* p) : name(n), parent(p) {}
};

struct ProfileThreadState {
    /// Guards children-map inserts against concurrent snapshot walks.
    mutable std::mutex mutex;
    ProfileNode root{"", nullptr};
    ProfileNode* current = &root;
    /// The owning thread's dense id: the trace events' "tid".
    const std::size_t slot = thread_slot();
};

namespace {

/// All thread states ever created. States are leaked deliberately: pool
/// threads live for the process, and a snapshot taken after a thread died
/// must still see its frames.
struct StateRegistry {
    std::mutex mutex;
    std::vector<ProfileThreadState*> states;

    static StateRegistry& instance() {
        static StateRegistry* registry = new StateRegistry();  // leaked
        return *registry;
    }
};

/// Trace events of completed frames, appended from any thread while
/// tracing is on. Times are microseconds since the buffer's creation, which
/// the startup wiring below forces at static initialization.
struct TraceBuffer {
    struct Event {
        const char* name;
        std::uint64_t ts_us;
        std::uint64_t dur_us;
        std::size_t tid;
    };

    const std::uint64_t epoch_ns = profile_wall_ns();
    mutable std::mutex mutex;
    std::string path;
    std::vector<Event> events;

    static TraceBuffer& instance() {
        static TraceBuffer* buffer = new TraceBuffer();  // leaked: outlives all frames
        return *buffer;
    }
};

std::atomic<bool> g_trace_enabled{false};

/// Both ends are truncated to microseconds before subtracting, so an event
/// nested in another never ends after it in the document.
void trace_append(const char* name, std::size_t tid, std::uint64_t start_ns,
                  std::uint64_t end_ns) noexcept {
    TraceBuffer& buffer = TraceBuffer::instance();
    const std::uint64_t ts_us = (start_ns - buffer.epoch_ns) / 1000;
    const std::uint64_t end_us = (end_ns - buffer.epoch_ns) / 1000;
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(TraceBuffer::Event{name, ts_us, end_us - ts_us, tid});
}

bool env_profile_enabled(const char* env) noexcept {
    return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

ProfileNode* find_or_create_child(ProfileThreadState& state, ProfileNode* parent,
                                  const char* name) {
    const auto it = parent->children.find(name);
    if (it != parent->children.end()) return it->second.get();
    const std::lock_guard<std::mutex> lock(state.mutex);
    return parent->children.emplace(name, std::make_unique<ProfileNode>(name, parent))
        .first->second.get();
}

}  // namespace

std::atomic<bool> g_profile_enabled{false};

ProfileThreadState& profile_thread_state() {
    thread_local ProfileThreadState* state = [] {
        auto* s = new ProfileThreadState();  // leaked via the registry
        StateRegistry& registry = StateRegistry::instance();
        const std::lock_guard<std::mutex> lock(registry.mutex);
        registry.states.push_back(s);
        return s;
    }();
    return *state;
}

ProfileNode* profile_push(ProfileThreadState& state, const char* name) {
    ProfileNode* node = find_or_create_child(state, state.current, name);
    state.current = node;
    return node;
}

void profile_pop(ProfileThreadState& state, ProfileNode* node, std::uint64_t wall_ns,
                 std::uint64_t cpu_ns) {
    node->count.fetch_add(1, std::memory_order_relaxed);
    node->wall_ns.fetch_add(wall_ns, std::memory_order_relaxed);
    node->cpu_ns.fetch_add(cpu_ns, std::memory_order_relaxed);
    state.current = node->parent;
}

std::uint64_t profile_wall_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t profile_cpu_ns() noexcept {
#if defined(__linux__)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
#endif
    return 0;
}

// --------------------------------------------------- executor context hooks
//
// The executor invokes these around every parallel region (see
// util::ParallelContextHooks): capture the submitting thread's phase path
// once, replay it onto each runner's own tree for the duration of its claim
// loop. Worker frames then merge under the same path the serial execution
// would produce — the determinism contract's load-bearing piece.

namespace {

void* hook_capture() noexcept {
    if (!profiler_enabled()) return nullptr;
    ProfileThreadState& state = profile_thread_state();
    if (state.current == &state.root) return nullptr;
    auto* path = new std::vector<const char*>();
    for (ProfileNode* n = state.current; n->parent != nullptr; n = n->parent) {
        path->push_back(n->name);
    }
    std::reverse(path->begin(), path->end());
    return path;
}

void* hook_adopt(void* token) noexcept {
    if (token == nullptr) return nullptr;
    const auto* path = static_cast<std::vector<const char*>*>(token);
    ProfileThreadState& state = profile_thread_state();
    ProfileNode* previous = state.current;
    ProfileNode* node = &state.root;
    for (const char* name : *path) node = find_or_create_child(state, node, name);
    state.current = node;
    return previous;
}

void hook_release(void* cookie) noexcept {
    if (cookie == nullptr) return;
    profile_thread_state().current = static_cast<ProfileNode*>(cookie);
}

void hook_drop(void* token) noexcept {
    delete static_cast<std::vector<const char*>*>(token);
}

void profile_report_at_exit() {
    const std::string text = Profiler::global().report();
    std::fputs("\n=== drel profile (DREL_PROFILE) ===\n", stderr);
    std::fputs(text.c_str(), stderr);
}

/// Output path for DREL_PROFILE=<path> (empty = stderr report).
std::string& profile_output_path() {
    static std::string* path = new std::string();  // leaked
    return *path;
}

void profile_write_json_at_exit() {
    const std::string& path = profile_output_path();
    std::ofstream out(path);
    if (!out) {
        DREL_LOG_WARN("obs") << "cannot write profile file " << path;
        return;
    }
    out << Profiler::global().json() << "\n";
    if (out) DREL_LOG_INFO("obs") << "profile written to " << path;
}

void trace_flush_at_exit() { (void)Profiler::global().flush_trace(); }

/// Startup wiring, run once during static initialization of the obs
/// library: install the executor hooks unconditionally (no-ops while
/// disabled), pin the trace epoch, and honor DREL_TRACE and DREL_PROFILE.
const bool g_profiler_init = [] {
    util::ParallelContextHooks hooks;
    hooks.capture = &hook_capture;
    hooks.adopt = &hook_adopt;
    hooks.release = &hook_release;
    hooks.drop = &hook_drop;
    util::install_parallel_context_hooks(hooks);

    TraceBuffer& trace = TraceBuffer::instance();
    if (const char* env = std::getenv("DREL_TRACE"); env != nullptr && env[0] != '\0') {
        trace.path = env;
        g_trace_enabled.store(true, std::memory_order_relaxed);
        g_profile_enabled.store(true, std::memory_order_relaxed);
        std::atexit(&trace_flush_at_exit);
    }
    if (const char* env = std::getenv("DREL_PROFILE"); env_profile_enabled(env)) {
        g_profile_enabled.store(true, std::memory_order_relaxed);
        if (std::strcmp(env, "1") == 0 || std::strcmp(env, "stderr") == 0) {
            std::atexit(&profile_report_at_exit);
        } else {
            profile_output_path() = env;
            std::atexit(&profile_write_json_at_exit);
        }
    }
    return true;
}();

}  // namespace
}  // namespace detail

// ------------------------------------------------------------ ProfileFrame

void ProfileFrame::enter(const char* name) noexcept {
    state_ = &detail::profile_thread_state();
    node_ = detail::profile_push(*state_, name);
    wall_start_ = detail::profile_wall_ns();
    cpu_start_ = detail::profile_cpu_ns();
}

void ProfileFrame::leave() noexcept {
    const std::uint64_t wall_end = detail::profile_wall_ns();
    const std::uint64_t cpu = detail::profile_cpu_ns() - cpu_start_;
    detail::profile_pop(*state_, node_, wall_end - wall_start_, cpu);
    if (detail::g_trace_enabled.load(std::memory_order_relaxed)) {
        detail::trace_append(node_->name, state_->slot, wall_start_, wall_end);
    }
}

// ---------------------------------------------------------------- Profiler

Profiler& Profiler::global() {
    static Profiler* instance = new Profiler();  // leaked: outlives all frames
    return *instance;
}

void Profiler::enable() noexcept {
    detail::g_profile_enabled.store(true, std::memory_order_relaxed);
}

void Profiler::enable_trace(std::string path) {
    detail::TraceBuffer& buffer = detail::TraceBuffer::instance();
    {
        const std::lock_guard<std::mutex> lock(buffer.mutex);
        buffer.path = std::move(path);
    }
    detail::g_trace_enabled.store(true, std::memory_order_relaxed);
    enable();
}

void Profiler::clear_trace() {
    detail::TraceBuffer& buffer = detail::TraceBuffer::instance();
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.clear();
}

std::string Profiler::trace_json() const {
    const detail::TraceBuffer& buffer = detail::TraceBuffer::instance();
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    JsonValue::Array trace_events;
    trace_events.reserve(buffer.events.size());
    for (const detail::TraceBuffer::Event& e : buffer.events) {
        JsonValue::Object event;
        event.emplace("name", e.name);
        event.emplace("cat", "drel");
        event.emplace("ph", "X");
        event.emplace("pid", std::uint64_t{1});
        event.emplace("tid", static_cast<std::uint64_t>(e.tid));
        event.emplace("ts", e.ts_us);
        event.emplace("dur", e.dur_us);
        trace_events.push_back(std::move(event));
    }
    JsonValue::Object doc;
    doc.emplace("traceEvents", std::move(trace_events));
    doc.emplace("displayTimeUnit", "ms");
    return JsonValue(std::move(doc)).dump(0);
}

bool Profiler::flush_trace() {
    detail::TraceBuffer& buffer = detail::TraceBuffer::instance();
    std::string path;
    {
        const std::lock_guard<std::mutex> lock(buffer.mutex);
        path = buffer.path;
    }
    if (path.empty()) return false;
    const std::string document = trace_json();
    std::ofstream out(path);
    if (!out) {
        DREL_LOG_WARN("obs") << "cannot write trace file " << path;
        return false;
    }
    out << document << "\n";
    if (!out) return false;
    clear_trace();
    DREL_LOG_INFO("obs") << "trace written to " << path;
    return true;
}

namespace {

void reset_subtree(detail::ProfileNode& node) {
    node.count.store(0, std::memory_order_relaxed);
    node.wall_ns.store(0, std::memory_order_relaxed);
    node.cpu_ns.store(0, std::memory_order_relaxed);
    for (auto& [name, child] : node.children) reset_subtree(*child);
}

void merge_subtree(const detail::ProfileNode& node, const std::string& parent_path,
                   std::map<std::string, Profiler::PhaseStats>& merged) {
    const std::string path =
        parent_path.empty() ? std::string(node.name) : parent_path + "/" + node.name;
    Profiler::PhaseStats& stats = merged[path];
    const std::uint64_t wall = node.wall_ns.load(std::memory_order_relaxed);
    const std::uint64_t cpu = node.cpu_ns.load(std::memory_order_relaxed);
    stats.count += node.count.load(std::memory_order_relaxed);
    stats.wall_ns += wall;
    stats.cpu_ns += cpu;
    if (!parent_path.empty()) {
        Profiler::PhaseStats& parent = merged[parent_path];
        parent.child_wall_ns += wall;
        parent.child_cpu_ns += cpu;
    }
    for (const auto& [name, child] : node.children) merge_subtree(*child, path, merged);
}

double ns_to_seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Self time clamped at zero: with parallelism, children adopted onto
/// workers can accumulate more inclusive time than the submitting phase.
std::uint64_t self_ns(std::uint64_t inclusive, std::uint64_t children) {
    return inclusive > children ? inclusive - children : 0;
}

}  // namespace

void Profiler::reset() {
    detail::StateRegistry& registry = detail::StateRegistry::instance();
    const std::lock_guard<std::mutex> registry_lock(registry.mutex);
    for (detail::ProfileThreadState* state : registry.states) {
        const std::lock_guard<std::mutex> state_lock(state->mutex);
        reset_subtree(state->root);
    }
}

std::map<std::string, Profiler::PhaseStats> Profiler::merged_phases() const {
    std::map<std::string, PhaseStats> merged;
    detail::StateRegistry& registry = detail::StateRegistry::instance();
    const std::lock_guard<std::mutex> registry_lock(registry.mutex);
    for (const detail::ProfileThreadState* state : registry.states) {
        const std::lock_guard<std::mutex> state_lock(state->mutex);
        for (const auto& [name, child] : state->root.children) {
            merge_subtree(*child, "", merged);
        }
    }
    // Drop never-completed paths (e.g. synthetic adoption chains whose real
    // frames all sit in other threads' trees contribute count 0 here but
    // merge with the real counts above; a path at 0 after merging saw no
    // completed frame anywhere).
    for (auto it = merged.begin(); it != merged.end();) {
        it = it->second.count == 0 ? merged.erase(it) : std::next(it);
    }
    return merged;
}

JsonValue Profiler::deterministic_snapshot() const {
    JsonValue::Object phases;
    for (const auto& [path, stats] : merged_phases()) phases.emplace(path, stats.count);
    JsonValue::Object out;
    out.emplace("phases", std::move(phases));
    return JsonValue(std::move(out));
}

JsonValue Profiler::timing_snapshot() const {
    JsonValue::Object timings;
    for (const auto& [path, stats] : merged_phases()) {
        JsonValue::Object entry;
        entry.emplace("count", stats.count);
        entry.emplace("wall_seconds", ns_to_seconds(stats.wall_ns));
        entry.emplace("self_wall_seconds",
                      ns_to_seconds(self_ns(stats.wall_ns, stats.child_wall_ns)));
        entry.emplace("cpu_seconds", ns_to_seconds(stats.cpu_ns));
        entry.emplace("self_cpu_seconds",
                      ns_to_seconds(self_ns(stats.cpu_ns, stats.child_cpu_ns)));
        timings.emplace(path, std::move(entry));
    }
    return JsonValue(std::move(timings));
}

std::string Profiler::json() const {
    JsonValue::Object doc;
    doc.emplace("schema_version", kProfileSchemaVersion);
    doc.emplace("counts", deterministic_snapshot().at("phases"));
    doc.emplace("timing", timing_snapshot());
    return JsonValue(std::move(doc)).dump();
}

std::string Profiler::report() const {
    const std::map<std::string, PhaseStats> merged = merged_phases();
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-52s %10s %12s %12s %12s\n", "phase", "count",
                  "wall ms", "self ms", "cpu ms");
    out += line;
    for (const auto& [path, stats] : merged) {
        const std::size_t depth =
            static_cast<std::size_t>(std::count(path.begin(), path.end(), '/'));
        const std::size_t leaf = path.rfind('/');
        const std::string label = std::string(2 * depth, ' ') +
                                  (leaf == std::string::npos ? path : path.substr(leaf + 1));
        std::snprintf(line, sizeof(line), "%-52s %10llu %12.3f %12.3f %12.3f\n",
                      label.c_str(), static_cast<unsigned long long>(stats.count),
                      ns_to_seconds(stats.wall_ns) * 1e3,
                      ns_to_seconds(self_ns(stats.wall_ns, stats.child_wall_ns)) * 1e3,
                      ns_to_seconds(stats.cpu_ns) * 1e3);
        out += line;
    }
    return out;
}

}  // namespace drel::obs
