// Hierarchical phase profiler: where does the time go?
//
// Every DREL_PROFILE_SCOPE("name") opens one *phase frame* on the calling
// thread's frame stack. Frames nest: a frame opened while another is
// active becomes its child, so each thread accumulates a tree of phases
// keyed by name. Snapshots merge the per-thread trees by '/'-joined phase
// *path* into one document. The profiler is the process's only timer.
//
// Determinism contract (mirrors metrics.hpp):
//
//  * Call COUNTS per phase path are deterministic — bit-identical at any
//    thread count for a deterministic workload. This needs the paths
//    themselves to be schedule-independent, which is why the profiler
//    installs util::ParallelContextHooks: the executor carries the
//    submitting thread's phase path onto every runner of a parallel
//    region, so a frame opened inside parallel_for lands under the same
//    path whether it ran on the caller or on a pool worker.
//    deterministic_snapshot() therefore contains counts ONLY and is safe
//    to golden-diff across DREL_NUM_THREADS settings.
//  * Wall/CPU time is segregated. timing_snapshot() reports inclusive and
//    self (exclusive) wall time plus per-thread CPU time per path; with
//    parallelism a phase's children can legitimately accumulate more
//    inclusive time than the phase itself (they run concurrently), so
//    self time is clamped at zero.
//
// Cost model: when profiling is off (no DREL_PROFILE, no enable() call), a
// frame is one relaxed atomic load and an untaken branch — no clock reads,
// no locks, no allocation — so DREL_PROFILE_SCOPE can live permanently in
// hot paths, including the linalg kernels. When on, a frame costs four
// clock reads (wall + thread-CPU at entry and exit) and a map lookup in the
// thread's own tree; only the first visit of a (parent, name) edge takes
// the thread-state mutex to insert a node.
//
// Trace timeline: while a trace path is set, every frame that completes
// also appends one chrome://tracing complete event {name, start, duration,
// thread slot} to a buffer the profiler owns, from the same two wall-clock
// reads the frame takes anyway — so a timeline and a profile always agree
// on phase boundaries, one event per frame. Appends take a short mutex, so
// frames sit at solve/device granularity, not inside per-example loops.
// Trace times are wall clock and never feed the metrics registry.
//
// Environment: DREL_PROFILE=1 (or "stderr") enables profiling at startup
// and prints the merged report to stderr at process exit; DREL_PROFILE set
// to anything else enables profiling and writes the full JSON document
// (counts + timing) to that path at exit. Unset or "0" leaves profiling
// off. DREL_TRACE=<path> enables profiling with tracing on and writes the
// trace document to that path at exit; load it in chrome://tracing or
// Perfetto.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hpp"

namespace drel::obs {

/// Version stamp embedded in every exported profile document.
inline constexpr std::uint64_t kProfileSchemaVersion = 1;

namespace detail {
/// Off/on flag, read on every frame entry. Lives here so the disabled
/// check inlines to one relaxed load at the call site.
extern std::atomic<bool> g_profile_enabled;

struct ProfileNode;
struct ProfileThreadState;

/// Thread-local profiler state (created and registered on first use).
ProfileThreadState& profile_thread_state();

/// Descends from state.current to (creating if needed) the child `name`,
/// makes it current, and returns it.
ProfileNode* profile_push(ProfileThreadState& state, const char* name);

/// Records one completed visit of `node` and restores current to its
/// parent. Durations are nanoseconds.
void profile_pop(ProfileThreadState& state, ProfileNode* node, std::uint64_t wall_ns,
                 std::uint64_t cpu_ns);

std::uint64_t profile_wall_ns() noexcept;
std::uint64_t profile_cpu_ns() noexcept;
}  // namespace detail

/// True while the profiler records frames.
inline bool profiler_enabled() noexcept {
    return detail::g_profile_enabled.load(std::memory_order_relaxed);
}

/// Merged view of all per-thread trees. Facade over process-wide state —
/// there is intentionally exactly one profiler per process, because frames
/// are recorded through a thread-local stack.
class Profiler {
 public:
    static Profiler& global();

    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    bool enabled() const noexcept { return profiler_enabled(); }
    void enable() noexcept;

    /// Zeroes every phase's count/time on every thread (tree structure and
    /// handles survive). Call from a quiescent point: a frame open across
    /// reset() records its full duration when it closes.
    void reset();

    struct PhaseStats {
        std::uint64_t count = 0;          ///< completed visits (deterministic)
        std::uint64_t wall_ns = 0;        ///< inclusive wall time
        std::uint64_t cpu_ns = 0;         ///< inclusive per-thread CPU time
        std::uint64_t child_wall_ns = 0;  ///< sum over direct children
        std::uint64_t child_cpu_ns = 0;
    };

    /// Per-thread trees merged by '/'-joined phase path, sorted by path.
    /// Paths whose merged count is zero are dropped (mirrors the
    /// touched-only filtering of the metrics registry).
    std::map<std::string, PhaseStats> merged_phases() const;

    /// Deterministic section: {"phases": {"<path>": count, ...}}.
    /// Byte-identical across thread counts for deterministic workloads.
    JsonValue deterministic_snapshot() const;

    /// {"<path>": {count, wall_seconds, self_wall_seconds, cpu_seconds,
    /// self_cpu_seconds}} — never golden-diffed.
    JsonValue timing_snapshot() const;


    /// Full document: {"schema_version": N, "counts": {...},
    /// "timing": {...}} — what DREL_PROFILE=<path> writes at exit.
    std::string json() const;

    /// Human-readable tree (indent = depth, columns: count, incl/self wall
    /// ms, cpu ms), sorted by path.
    std::string report() const;

    /// Sets the trace output path, turns tracing on and enables the
    /// profiler. Replaces any earlier path; buffered events are kept.
    void enable_trace(std::string path);
    void clear_trace();

    /// The chrome://tracing document for every buffered event:
    /// {"traceEvents": [{name, cat:"drel", ph:"X", pid:1, tid, ts, dur}],
    /// "displayTimeUnit": "ms"}, times in microseconds since startup.
    std::string trace_json() const;

    /// Writes trace_json() to the trace path and clears the buffer. Returns
    /// false (logging a warning on IO error) when no path is set or the
    /// write fails.
    bool flush_trace();

 private:
    Profiler() = default;
};

/// RAII phase frame. Near-free when profiling is off at entry; a frame that
/// began while on always completes (pops and records, plus a trace event
/// while tracing), so the stack never corrupts. Unwinding through an
/// exception pops normally (destructor).
class ProfileFrame {
 public:
    explicit ProfileFrame(const char* name) noexcept {
        if (!profiler_enabled()) return;
        enter(name);
    }
    ProfileFrame(const ProfileFrame&) = delete;
    ProfileFrame& operator=(const ProfileFrame&) = delete;
    ~ProfileFrame() {
        if (node_ != nullptr) leave();
    }

 private:
    void enter(const char* name) noexcept;
    void leave() noexcept;

    detail::ProfileThreadState* state_ = nullptr;
    detail::ProfileNode* node_ = nullptr;
    std::uint64_t wall_start_ = 0;
    std::uint64_t cpu_start_ = 0;
};

}  // namespace drel::obs

#define DREL_OBS_CONCAT_IMPL(a, b) a##b
#define DREL_OBS_CONCAT(a, b) DREL_OBS_CONCAT_IMPL(a, b)
/// One scoped phase frame (and, while tracing, one trace event). `name`
/// must be a string literal.
#define DREL_PROFILE_SCOPE(name) \
    ::drel::obs::ProfileFrame DREL_OBS_CONCAT(drel_obs_frame_, __LINE__) { name }
