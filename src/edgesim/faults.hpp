// Deterministic fault injection for the edge-fleet simulators.
//
// Production edge fleets are defined by partial participation: devices
// crash mid-training, straggle past the round deadline, install corrupted
// or stale priors, and lose uploads to flaky links. The simulators
// (simulation.hpp, lifecycle.hpp) must be able to *measure* the method
// under those faults — deterministically, so a chaos run is exactly
// reproducible from a seed and bit-identical at any thread count.
//
// The mechanism is a FaultPlan: a forked RNG stream (separate from the
// simulation's data/training streams, so enabling faults never perturbs
// the healthy path) from which every per-(round, device) fault decision is
// derived as a PURE FUNCTION of (plan seed, round, device). Decisions are
// threshold tests (u < prob) against uniforms drawn in a fixed order, so
//   * querying order is irrelevant (schedule independence), and
//   * for a fixed seed the set of faulted devices grows monotonically in
//     the fault rate — what makes "accuracy degrades monotonically in
//     fault rate" a testable property instead of a statistical hope.
//
// Degradation is never fatal: every fault maps to a DegradedReason the
// simulators report per device instead of throwing. The graceful paths —
// local-only ERM when no valid prior installs, retry-with-backoff then
// skip for uploads, untrained scoring for crashed devices — live in the
// simulators; this module only schedules the faults and names the
// outcomes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace drel::edgesim {

/// Why a device's round ended on a degraded path instead of the paper's
/// main path (prior-guided EM-DRO training + delivered upload).
enum class DegradedReason : std::uint8_t {
    kNone = 0,          ///< healthy: trained with a valid, current prior
    kCrashed,           ///< died mid-training; scored as the untrained model
    kStraggler,         ///< missed the round deadline; result discarded
    kFallbackLocalErm,  ///< no valid prior (outage/corruption); local-only ERM
    kStalePrior,        ///< trained against an out-of-date prior
    kUploadDropped,     ///< trained fine but the upload never arrived
    kNonFinite,         ///< solver hit a non-finite state; fell back to ERM
    kBackpressure,      ///< delivered, but the cloud's admission queue was full
    kRejoinStalePrior,  ///< first round back after Dead; resumed on an old prior
};

struct FaultConfig {
    // Per-(round, device) fault probabilities. All must lie in [0, 1].
    double crash_prob = 0.0;          ///< device dies mid-training
    double straggler_prob = 0.0;      ///< device exceeds the round deadline
    double prior_corrupt_prob = 0.0;  ///< broadcast payload arrives garbled
    double prior_stale_prob = 0.0;    ///< device keeps an out-of-date prior
    double link_outage_prob = 0.0;    ///< transient outage: no broadcast at all
    double upload_fail_prob = 0.0;    ///< per-ATTEMPT device->cloud loss
    double upload_garble_prob = 0.0;  ///< delivered upload carries non-finite values

    // Upload retry policy. Time is SIMULATED seconds (deterministic), never
    // wall clock: exponential backoff with jitter, capped by the round
    // deadline — exhaustion skips the upload, it never aborts the round.
    int max_upload_attempts = 4;
    double upload_backoff_base_seconds = 0.5;
    double upload_backoff_jitter = 0.1;       ///< +-fraction of each backoff
    /// Caps the simulated upload retries: the loop stops once the backoffs
    /// run past it. The fleet engine's `deadline_seconds` caps device
    /// latencies in the same round, and run_fleet_engine rejects an active
    /// plan whose value differs from it.
    double round_deadline_seconds = 30.0;

    /// Extra stream separation from the simulation seed; two plans with
    /// different seeds over the same run draw independent fault patterns.
    std::uint64_t seed = 0;

    /// True iff any fault probability is positive (the plan does work).
    bool any() const noexcept;

    /// Throws std::invalid_argument on probabilities outside [0, 1],
    /// max_upload_attempts < 1, or non-positive backoff/deadline.
    void validate() const;

    /// Every fault probability set to clamp(rate, 0, 1) — the chaos bench's
    /// single-knob sweep. Retry policy fields keep their defaults.
    static FaultConfig uniform(double rate);
};

/// Faults scheduled for one (round, device) cell.
struct DeviceFaultDecision {
    bool crash = false;
    bool straggler = false;
    bool prior_corrupt = false;
    bool prior_stale = false;
    bool link_outage = false;
    double corrupt_position = 0.0;  ///< in [0,1): which payload byte to garble

    /// The broadcast prior installs intact this round.
    bool prior_usable() const noexcept { return !prior_corrupt && !link_outage; }
};

/// Outcome of the simulated retrying upload path.
struct UploadOutcome {
    bool delivered = false;
    bool garbled = false;           ///< delivered, but payload is non-finite
    int attempts = 0;
    int retries = 0;                ///< attempts - 1 (the backoff count)
    double simulated_seconds = 0.0; ///< backoff time accrued before success/give-up
};

/// The plan purposes a thread memoizes round links for (cell_stream), one
/// per plan kind and purpose: a device's cells alternate between purposes
/// within a round, so each keeps its own slot.
enum class CellLinkSlot : std::uint8_t {
    kFaultDecision = 0,  ///< FaultPlan::device_faults
    kFaultUpload,        ///< FaultPlan::upload_outcome
    kChurnDecision,      ///< ChurnPlan::device_churn
};

/// The (round, device) cell stream stream.fork(purpose).fork(round)
/// .fork(device). The (purpose, round) link does not change within a
/// round, so each thread derives it once per round and slot: the memo is
/// keyed by the stream's seed, `purpose` and `round`, everything the link
/// depends on, and keeps the link's seed. The result is bit-identical to
/// the chained forks in any query order on any thread.
stats::Rng cell_stream(const stats::Rng& stream, CellLinkSlot slot, std::uint64_t purpose,
                       std::size_t round, std::size_t device);

/// Seeded schedule of per-round, per-device faults. Copyable; a
/// default-constructed plan is inactive (never schedules a fault) and
/// costs one branch per query.
class FaultPlan {
 public:
    /// Inactive plan: every decision is all-clear.
    FaultPlan() = default;

    /// Derives the plan's private stream from `base` (base is not
    /// advanced). Throws std::invalid_argument if `config` is invalid.
    FaultPlan(const FaultConfig& config, const stats::Rng& base);

    const FaultConfig& config() const noexcept { return config_; }
    bool active() const noexcept { return active_; }

    /// The faults scheduled for (round, device). Pure function of the plan
    /// seed and the cell — independent of query order and thread schedule.
    DeviceFaultDecision device_faults(std::size_t round, std::size_t device) const;

    /// Simulated retry loop for one device's upload: per-attempt loss with
    /// probability upload_fail_prob, exponential backoff with jitter
    /// between attempts, give-up past max attempts or the round deadline.
    /// Deterministic per cell like device_faults.
    UploadOutcome upload_outcome(std::size_t round, std::size_t device) const;

    /// Deterministically garbles a copy of `payload`: the magic header is
    /// damaged (so the strict decoder always rejects it — a device can
    /// never install a garbled prior) plus one decision-selected body byte.
    std::vector<std::uint8_t> corrupt_payload(const std::vector<std::uint8_t>& payload,
                                              const DeviceFaultDecision& decision) const;

 private:
    FaultConfig config_;
    stats::Rng stream_{0};
    bool active_ = false;
};

/// Bumps the fault.injected.* counters for one applied decision. Call
/// exactly once per (round, device) cell the simulator actually applies,
/// so counts stay deterministic and schedule-independent.
void record_injected_faults(const DeviceFaultDecision& decision);

/// Adds `count` to fault.degraded.<reason> in one Counter::add. kNone and
/// count == 0 are no-ops.
void record_degradation(DegradedReason reason, std::uint64_t count = 1);

}  // namespace drel::edgesim
