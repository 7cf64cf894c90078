// Fleet health telemetry: the per-round series schema, the telemetry bundle
// reports carry, and a declarative SLO evaluation layer.
//
// The split of responsibilities (see DESIGN.md "Fleet health telemetry"):
// this header DEFINES the fleet series schema and how to judge it; FILLING
// it is the fleet engine's job (src/edgesim/server.cpp, at kRoundEnd on the
// driver thread). health stays ignorant of edgesim types, so obs does not
// gain a dependency on the simulator.
//
// Determinism contract. Everything in the main telemetry block — the
// RoundSeries and the upload-latency histogram — is integer-valued, sampled
// on the driver thread, and a pure function of per-DEVICE quantities folded
// in global device order; it is therefore bit-identical across thread
// counts AND shard counts (whenever every batch is admitted, the same
// domain as the engine's own determinism claim). Quantities that are
// genuinely functions of the partition — per-shard device counts, batch
// service waits, serviced-batch lag — live in a separate "partition"
// sub-block that to_json can exclude, and that golden/byte-identity tests
// do exclude. An SLO report evaluated over the main block inherits its
// determinism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace drel::health {

/// Columns of the fleet RoundSeries, one row per engine round. All values
/// are unsigned integers; times are virtual-clock milliseconds. Columns
/// through kLatencyMaxMs are partition-independent per-device folds; the
/// two kQueue*/kServiced* columns read server state that only backlogs
/// (and therefore only deviates across partitions) when the server is
/// configured slower than the offered load.
enum class FleetCol : std::size_t {
    kRound = 0,
    kVirtualCloseMs,         ///< virtual time at kRoundEnd, ms
    kDevices,
    kHealthy,                ///< devices with DegradedReason::kNone
    kDegraded,               ///< devices with any other reason
    kDegradedCrashed,
    kDegradedStraggler,
    kDegradedFallback,
    kDegradedNonFinite,
    kDegradedBackpressure,
    kStalePriors,            ///< stale-prior flag (fact, not winning reason)
    kUploadsAttempted,
    kUploadsDelivered,
    kUploadsDropped,
    kUploadsGarbled,
    kUploadsRejected,        ///< devices lost to admission backpressure
    kUploadRetries,
    /// Peak settled server-queue depth this round (the high-water mark
    /// across admissions, after each admission's own drain), so the
    /// queue-depth SLO judges the worst backlog, not a sample. The JSON
    /// column keeps its original name "queue_depth_at_close" for schema
    /// stability; at round close the queue has drained to at most this.
    kQueueDepthAtClose,
    kServicedLagged,         ///< batches serviced this round but admitted earlier
    kBroadcastBytes,
    kUploadBytes,
    kPriorComponents,
    kRebroadcast,            ///< 0/1: prior pushed to the next round's fleet
    kLatencyP50Ms,
    kLatencyP99Ms,
    kLatencyMaxMs,
    kNumColumns
};

inline constexpr std::size_t kFleetNumColumns =
    static_cast<std::size_t>(FleetCol::kNumColumns);

/// A RoundSeries carrying the fleet schema.
obs::RoundSeries make_fleet_series();

/// Convenience index for row vectors: row[idx(FleetCol::kDevices)] = ...
inline constexpr std::size_t idx(FleetCol col) noexcept {
    return static_cast<std::size_t>(col);
}

/// Columns of the membership RoundSeries — the liveness/churn side-channel
/// the engine appends one row per round when membership is enabled. State
/// counts are the census at round CLOSE (post-heartbeat); event counts are
/// the round's accumulation. A run without membership appends nothing, so
/// this series is empty — and absent from JSON — for every pre-churn run,
/// which is what keeps the old goldens byte-stable.
enum class MembershipCol : std::size_t {
    kRound = 0,
    kCapacity,          ///< total device slots (members + reserved tail)
    kMembers,           ///< alive + suspect at close (the scheduling set)
    kAlive,
    kSuspect,
    kDead,
    kJoining,           ///< admitted; promoted at the next round start
    kUnknown,           ///< reserved capacity never yet joined
    kParticipating,     ///< slots that actually ran this round (start snapshot)
    kJoins,             ///< Unknown -> Joining this round
    kRejoins,           ///< Dead -> Joining this round
    kLeaves,            ///< voluntary departures this round
    kHeartbeatsMissed,
    kDeaths,            ///< leaves + suspect timeouts this round
    kRecoveries,        ///< Suspect -> Alive heartbeats this round
    kRejoinsStale,      ///< promotions that resumed on an out-of-date prior
    kChurnEvents,       ///< joins + rejoins + leaves + heartbeats_missed
    kPriorVersion,      ///< server-side broadcast version at close
    kNumColumns
};

inline constexpr std::size_t kMembershipNumColumns =
    static_cast<std::size_t>(MembershipCol::kNumColumns);

/// A RoundSeries carrying the membership schema.
obs::RoundSeries make_membership_series();

inline constexpr std::size_t idx(MembershipCol col) noexcept {
    return static_cast<std::size_t>(col);
}

// ---------------------------------------------------------------------------
// SLO evaluation.

enum class Verdict { kPass, kWarn, kFail };
const char* to_string(Verdict verdict) noexcept;

/// Per-round rule over series columns: observed = numerator / denominator
/// for each row (denominator "" reads the numerator column as an absolute
/// value; rows whose denominator is 0 are skipped). The rule fails/warns if
/// ANY round reaches the threshold (thresholds are >=, fail checked first).
struct RatioSlo {
    std::string name;
    std::string numerator;     ///< column name
    std::string denominator;   ///< column name, or "" for an absolute rule
    double warn = 0.0;
    double fail = 0.0;
};

/// Whole-run rule over the upload-latency histogram: observed =
/// quantile_bound(quantile) in virtual milliseconds. An overflow-bucket
/// quantile (kHistogramOverflowBound) always fails.
struct QuantileSlo {
    std::string name;
    double quantile = 0.99;
    std::uint64_t warn_ms = 0;
    std::uint64_t fail_ms = 0;
};

struct Slo {
    std::vector<RatioSlo> round_rules;
    std::vector<QuantileSlo> latency_rules;
    /// Rules judged against the MEMBERSHIP series. Skipped wholesale when
    /// the run tracked no membership (empty series), so zero-churn SLO
    /// reports keep their historical rule list.
    std::vector<RatioSlo> membership_rules;

    /// The default fleet SLOs wired into the benches and the smoke test:
    /// backpressure-rejection rate (warn 1%, fail 5%), degraded fraction
    /// (warn 50%, fail 90%), queue-depth ceiling at round close (warn 1,
    /// fail 1024), and p99 upload latency (warn 61 s, fail 120 s — healthy
    /// and straggler latencies stay under the warn line at the default
    /// 30 s deadline, so a warn means the virtual geometry changed).
    /// Membership rules (judged only on churn runs): suspect fraction of
    /// the member set (warn 25%, fail 50% — half the fleet in the gray
    /// zone means heartbeats are lying) and a mass-extinction guard on the
    /// dead fraction of capacity (warn 60%, fail 95%).
    static Slo fleet_default();

    /// fleet_default() plus a bandwidth rule: mean broadcast bytes per
    /// device per round (broadcast_bytes / devices) must stay under
    /// warn/fail ceilings. Kept OUT of fleet_default() so pre-bandwidth
    /// golden SLO reports stay byte-identical; the scale bench and the
    /// wire-v2 rows opt in.
    static Slo fleet_with_bandwidth(double warn_bytes_per_device,
                                    double fail_bytes_per_device);
};

/// One evaluated rule. `first_violating_round` is the kRound value of the
/// earliest row that reached the final verdict's threshold; it is only
/// meaningful when has_round && verdict != kPass (whole-run latency rules
/// have no per-round attribution).
struct SloResult {
    std::string name;
    Verdict verdict = Verdict::kPass;
    double observed = 0.0;      ///< worst value across rounds (or the quantile)
    double warn = 0.0;
    double fail = 0.0;
    bool has_round = false;
    std::uint64_t first_violating_round = 0;

    obs::JsonValue to_json() const;
};

/// Aggregate verdict = worst rule verdict. An SLO evaluated on an EMPTY
/// series (e.g. a DREL_METRICS=0 run) passes vacuously.
struct SloReport {
    Verdict verdict = Verdict::kPass;
    std::vector<SloResult> rules;

    obs::JsonValue to_json() const;
};

// ---------------------------------------------------------------------------
// The telemetry bundle reports carry.

struct FleetTelemetry {
    /// Main block — partition-independent, golden-pinned.
    obs::RoundSeries series = make_fleet_series();
    obs::HistogramSnapshot upload_latency_ms;

    /// Membership/churn series — part of the main (partition-independent)
    /// block, but populated only when the engine runs with membership
    /// enabled; empty otherwise and then omitted from JSON entirely.
    obs::RoundSeries membership = make_membership_series();

    /// Partition block — functions of the shard layout, excluded from
    /// byte-identity claims and goldens.
    std::vector<std::uint64_t> shard_devices;   ///< devices per shard
    obs::HistogramSnapshot service_wait_ms;     ///< batch arrival -> service done

    /// {"series": ..., "upload_latency_ms": ..., ["membership": ...,]
    ///  ["slo": ...,] ["partition": {"shard_devices": [...],
    ///  "service_wait_ms": ...}]}. Pass include_partition = false to get
    /// exactly the byte-identity surface the tests and goldens compare.
    obs::JsonValue to_json(const SloReport* slo = nullptr,
                           bool include_partition = true) const;
};

/// Evaluates `slo` against the telemetry's main block.
SloReport evaluate(const Slo& slo, const FleetTelemetry& telemetry);

}  // namespace drel::health
