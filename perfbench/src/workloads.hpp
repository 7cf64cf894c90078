// The benchmark's three workloads, the configs they drive the public
// fleet drivers with, and the output checks every run must pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "edgesim/lifecycle.hpp"
#include "edgesim/server.hpp"

namespace perfbench {

inline constexpr std::size_t kThreads = 4;

enum class WorkloadKind { kScale, kLifecycle };

struct Workload {
    const char* name;
    WorkloadKind kind;
    std::uint64_t default_seed;
    /// A timed run cycles through this many input seeds derived from the
    /// workload seed (input_seed), so one run's figures average over
    /// several fleets instead of hanging on one draw of the population.
    std::size_t inputs_per_run;
};

/// The i-th input seed of a run: the workload seed itself for i = 0, then
/// strides far enough apart that nearby workload seeds share no input.
inline std::uint64_t input_seed(std::uint64_t seed, std::size_t i) {
    return seed + static_cast<std::uint64_t>(i) * 1000003u;
}

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// The driver configs, at `threads` runners (reports do not depend on it).
drel::edgesim::ScaleFleetConfig scale_config(const Workload& workload, std::size_t threads);
drel::edgesim::LifecycleConfig lifecycle_config(std::size_t threads);

/// One driver run, checked.
struct RunResult {
    std::uint64_t device_rounds = 0;  ///< device-rounds the fleet actually ran
    std::uint64_t failed = 0;         ///< failed device-rounds (see check_failures)
    double accuracy_sum = 0.0;        ///< over scored device-rounds
    std::uint64_t scored = 0;
    std::uint64_t digest = 0;         ///< FNV-1a over the report's deterministic fields
    std::vector<std::string> check_failures;

    // Cost of the driver call alone (checks excluded).
    double wall_s = 0.0;
    double cpu_s = 0.0;               ///< process CPU, all threads
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;

    std::optional<drel::edgesim::ScaleFleetReport> scale;
    std::optional<drel::edgesim::LifecycleReport> lifecycle;
    /// Registry counter deltas over a lifecycle run.
    std::uint64_t lifecycle_uploads = 0;
    std::uint64_t lifecycle_rebroadcasts = 0;

    double mean_accuracy() const noexcept {
        return scored == 0 ? 0.0 : accuracy_sum / static_cast<double>(scored);
    }
};

/// Runs the workload through its public driver and checks the report. A
/// driver exception is caught: every device-round of the run counts as
/// failed and the message lands in check_failures.
RunResult run_workload(const Workload& workload, std::uint64_t seed, std::size_t threads);

}  // namespace perfbench
