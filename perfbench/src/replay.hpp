// Traced replays: each re-issues a workload's own call pattern — same
// config, seed and (round, device) cells — against the layers' public
// functions, with a span around every call or block of calls.
//
// The drivers make most layer calls internally, so the benchmark cannot
// wrap them in place. Instead a replay rebuilds the driver's inputs from
// the seed, walks the same rounds and devices in the same order, and
// reconciles what it counted against the real run's report. Sites whose
// name starts with "probe." time a layer the workload does not call (or
// re-time a call on a copy so the replayed streams stay aligned); they feed
// per-call costs only and are never attributed to the workload's CPU.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "edgesim/scheduler.hpp"
#include "edgesim/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// An EventQueue that logs every call, so the replay can re-issue the whole
/// sequence afterwards in one block span (a single call is too short to
/// time on its own).
class LoggedQueue {
 public:
    void schedule(double time, drel::edgesim::EventKind kind, std::size_t round,
                  std::size_t shard = 0, std::size_t device = 0);
    drel::edgesim::Event pop();
    bool empty() const noexcept { return queue_.empty(); }
    std::uint64_t total_popped() const noexcept { return queue_.total_popped(); }

    /// Re-issues the logged calls on fresh queues (site
    /// edgesim.scheduler/schedule_pop, calls = events popped).
    void time_calls(Tracer& tracer, std::uint64_t parent) const;

 private:
    struct Op {
        bool pop = false;
        drel::edgesim::Event event;
    };
    drel::edgesim::EventQueue queue_;
    std::vector<Op> log_;
};

/// A CloudServer that logs every call (batches are copied), re-issued the
/// same way (site edgesim.server/offer, calls = offers).
class LoggedServer {
 public:
    explicit LoggedServer(const drel::edgesim::ServerConfig& config);
    void begin_round(std::size_t round);
    bool offer(drel::edgesim::UploadBatch batch, double now);
    void drain_until(double now);
    std::vector<std::pair<std::size_t, drel::linalg::Vector>> take_serviced_thetas();
    std::uint64_t offers() const noexcept { return offers_; }

    void time_calls(Tracer& tracer, std::uint64_t parent) const;

 private:
    struct Op {
        enum Kind { kBeginRound, kOffer, kDrain, kTake } kind = kBeginRound;
        std::size_t round = 0;
        double time = 0.0;
        drel::edgesim::UploadBatch batch;
    };
    drel::edgesim::ServerConfig config_;
    drel::edgesim::CloudServer server_;
    std::vector<Op> log_;
    std::uint64_t offers_ = 0;
};

struct ReplayCounts {
    std::uint64_t rounds = 0;
    std::uint64_t device_rounds = 0;  ///< device-rounds the fleet ran

    // Calls the workload itself makes, counted at the replay's call sites.
    std::uint64_t streams = 0;        ///< device_stream derivations
    std::uint64_t fault_cells = 0;    ///< fault queries that drew (active plan)
    std::uint64_t churn_cells = 0;    ///< churn queries that drew (active plan)
    std::uint64_t membership_events = 0;
    std::uint64_t events = 0;         ///< scheduler events popped
    std::uint64_t offers = 0;
    std::uint64_t encodes = 0;
    std::uint64_t decodes = 0;
    std::uint64_t fits = 0;
    std::uint64_t non_finite_fits = 0;
    std::uint64_t outer_iterations = 0;
    std::uint64_t gibbs_observations_at_close = 0;

    std::vector<std::string> mismatches;  ///< reconciliation failures
};

ReplayCounts replay_scale(const Workload& workload, std::uint64_t seed,
                          const RunResult& reference, Tracer& tracer);
ReplayCounts replay_lifecycle(std::uint64_t seed, const RunResult& reference, Tracer& tracer);

/// Probes shared by both replays for layers a workload does not call.
void probe_learner_layers(std::uint64_t seed, Tracer& tracer, std::uint64_t parent);

/// Re-derives the streams Shard::run_round derives for its slice (kWork,
/// and kLatency with its first draw), in its own stack-local pattern (site
/// stats.rng/probe.run_round_streams): what the no-op run_round span
/// spends on streams, so the ledger can subtract it to get the fold.
void time_run_round_streams(const drel::stats::Rng& device_root, std::size_t round,
                            const drel::edgesim::ShardLayout& layout,
                            const std::uint8_t* participating, Tracer& tracer,
                            std::uint64_t parent);

}  // namespace perfbench
