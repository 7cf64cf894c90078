// The cloud as a long-running server loop + the event-driven fleet engine.
//
// CloudServer models the ingestion side of the paper's cloud at deployment
// scale: shard upload batches carry sufficient statistics (shard.hpp),
// pass ADMISSION CONTROL against a bounded queue, and are
// serviced at a configurable rate on the virtual clock. A full queue
// REJECTS the batch — backpressure — and every device whose upload rode in
// it is reported as DegradedReason::kBackpressure, never an abort: the same
// graceful-degradation contract the fault plan established.
//
// run_fleet_engine is the event loop that ties scheduler + shards + server
// together. It owns the virtual clock and the round lifecycle:
//
//   kRoundStart(r)  — run every shard's slice (parallel_for over shards),
//                     schedule each non-empty batch's kUploadArrival at
//                     round_start + shard completion + uplink latency
//   kUploadArrival  — server admission (accept/merge or reject/backpressure)
//   kRoundEnd(r)    — drain the server, close the round (integer tallies
//                     per shard slice, parallel_for over shards), hand the
//                     round's uploads (sorted by GLOBAL device index, so
//                     arrival order is irrelevant) to the driver's
//                     round_end callback, account broadcast bytes,
//                     schedule kRoundStart(r + 1)
//
// Determinism: the close reads the round's final SoA. Its integer counts,
// per-reason counters and latency histogram are tallied per shard slice
// and merged in shard order — integer sums are exactly associative, so
// the merge equals a device-order pass. The float accuracy sums are one
// serial device-order pass, and the latency percentiles are selected from
// the participants' latencies, whose order cannot change a selected value.
// The round_end callback consumes uploads in device order. So reports are
// bit-identical across thread counts AND across shard counts whenever
// every batch is admitted (the default config). Under deliberate backpressure the report is still bit-identical
// across thread counts for a fixed shard count; which devices get rejected
// genuinely depends on how the fleet is sharded, and that is modelled, not
// hidden. Wall-clock fields (wall_seconds, device_rounds_per_second) are
// measured OUTSIDE the virtual clock and excluded from determinism claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "edgesim/faults.hpp"
#include "edgesim/membership.hpp"
#include "edgesim/shard.hpp"
#include "edgesim/transfer.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace drel::edgesim {

/// Cloud/server-side sub-stream purposes, forked from a server root that is
/// DISJOINT from the device root (lifecycle forks them from different
/// tags), so cloud updates can never alias a device stream — the second
/// half of the aliasing fix.
enum class ServerStream : std::uint64_t {
    kPosteriorUpdate = 0,  ///< online DP refresh sweeps
    kKlEstimate = 1,       ///< Monte-Carlo symmetric-KL rebroadcast trigger
};

/// Collision-free per-round server stream: server_root.fork(round)
/// .fork(purpose).
stats::Rng server_stream(const stats::Rng& server_root, std::size_t round,
                         ServerStream purpose);

struct ServerConfig {
    /// Batches that may sit in the admission queue awaiting service; an
    /// arrival that finds the queue full is rejected (backpressure).
    std::size_t queue_capacity = 4096;
    /// Virtual seconds the server spends ingesting one batch. 0 = the
    /// server keeps up with any offered load (no backpressure ever).
    double service_seconds_per_batch = 0.0;

    /// Throws std::invalid_argument on capacity == 0 or negative service.
    void validate() const;
};

/// Long-running ingestion server on the virtual clock. Batches survive
/// round boundaries: a batch still queued when a round closes is serviced
/// later and contributes to a later refresh — lag, not loss.
class CloudServer {
 public:
    explicit CloudServer(ServerConfig config);

    const ServerConfig& config() const noexcept { return config_; }

    /// Admission control at virtual time `now`: first services everything
    /// due, then either enqueues the batch (true) or rejects it under
    /// backpressure (false), then services anything already due again — a
    /// zero-service batch completes at its own arrival instant, so it never
    /// lingers as phantom depth. The caller keeps responsibility for
    /// marking the rejected batch's devices degraded, so it may move
    /// `batch.devices` out first: rejected_uploads() counts a rejected
    /// batch by `batch.stats.count`.
    bool offer(UploadBatch batch, double now);

    /// Services every queued batch whose completion lands at or before
    /// `now`, collecting its thetas (if carried).
    void drain_until(double now);

    /// Uploads serviced since the last take, sorted by (round, global
    /// device index) — arrival-order independent. Clears the buffer.
    std::vector<std::pair<std::size_t, linalg::Vector>> take_serviced_thetas();

    std::size_t queue_depth() const noexcept { return queue_.size(); }
    std::size_t rejected_uploads() const noexcept { return rejected_uploads_; }

    /// Tells the server which round the virtual clock is in, so drain can
    /// classify a serviced batch as LAGGED (admitted in an earlier round —
    /// the "lag, not loss" telemetry signal), and resets the per-round
    /// queue high-water mark to the carried-over backlog. The engine calls
    /// this at every kRoundStart.
    void begin_round(std::size_t round) noexcept {
        current_round_ = round;
        queue_high_water_ = queue_.size();
    }

    /// Peak SETTLED queue depth since begin_round: the max over post-offer
    /// states after each offer's own drain. This is what the telemetry's
    /// queue-depth column carries — the worst backlog the round ever held,
    /// not a sample at close.
    std::size_t queue_high_water() const noexcept { return queue_high_water_; }

    /// Batches serviced so far whose round predates the round they were
    /// serviced in. Monotone; the telemetry layer takes per-round deltas.
    std::size_t serviced_lagged_batches() const noexcept { return serviced_lagged_batches_; }

    /// Optional telemetry sink: every serviced batch records its virtual
    /// arrival -> service-completion wait (milliseconds) here. The histogram
    /// must outlive the server or be detached with nullptr. Service waits
    /// are a partition function (batch framing depends on the shard
    /// layout), so this feeds the health block's partition section only.
    void set_service_wait_histogram(obs::Histogram* histogram) noexcept {
        service_wait_histogram_ = histogram;
    }

 private:
    struct Pending {
        UploadBatch batch;
        double arrival = 0.0;
    };
    struct ServicedTheta {
        std::size_t round = 0;
        std::size_t device = 0;
        linalg::Vector theta;
    };

    ServerConfig config_;
    std::deque<Pending> queue_;
    double busy_until_ = 0.0;
    std::vector<ServicedTheta> serviced_thetas_;
    std::size_t rejected_uploads_ = 0;
    std::size_t serviced_lagged_batches_ = 0;
    std::size_t queue_high_water_ = 0;
    std::size_t current_round_ = 0;
    obs::Histogram* service_wait_histogram_ = nullptr;
};

// ---------------------------------------------------------------------------
// The event-driven engine.

struct EngineConfig {
    std::size_t rounds = 0;
    std::size_t devices_per_round = 0;
    std::size_t theta_dim = 0;

    /// 0 = one shard per thread (at least 1).
    std::size_t num_shards = 0;
    /// Worker threads for the per-round shard fan-out. Any value produces a
    /// bit-identical report.
    std::size_t num_threads = 1;

    // Virtual-clock geometry. Defaults keep every healthy upload inside its
    // own round (deadline + uplink < round_seconds), which preserves the
    // classic lifecycle semantics of "this round's uploads refresh this
    // round's prior".
    double round_seconds = 60.0;    ///< virtual period between round starts
    /// Device completion deadline: caps healthy latencies, places
    /// stragglers past it and crashes at it. An active fault plan's
    /// `FaultConfig::round_deadline_seconds`, which caps the upload
    /// retries, must equal it; run_fleet_engine throws otherwise.
    double deadline_seconds = 30.0;
    double uplink_seconds = 0.5;    ///< shard batch -> server transfer time

    /// Ship raw thetas in batches (full-fidelity Gibbs refresh). false =
    /// sufficient statistics only (the scale path).
    bool keep_thetas = true;

    /// Bytes charged once at round 0 for the bootstrap broadcast. The
    /// lifecycle passes the bare payload size (its historical accounting);
    /// the scale path passes payload * fleet size.
    std::size_t initial_broadcast_bytes = 0;
    std::size_t initial_prior_components = 0;

    ServerConfig server;

    /// Device liveness & churn. The default (no churn, no reserved tail)
    /// disables membership entirely: no membership events, no membership
    /// telemetry, the exact pre-membership engine behavior.
    MembershipConfig membership;

    /// Throws std::invalid_argument on zero dimensions or a geometry where
    /// a healthy upload could not land before its round closes.
    void validate() const;
};

/// The driver's round-close decision, returned by RoundEndFn.
struct RoundEndDecision {
    /// The refreshed prior moved enough to justify a push to the NEXT
    /// round's fleet. Ignored on the final round — there is no next fleet,
    /// so nothing is pushed and nothing is charged (the final-round
    /// accounting fix).
    bool rebroadcast = false;
    std::size_t payload_bytes = 0;      ///< per-device bytes of the pushed prior
    std::size_t prior_components = 0;   ///< components the next round will see
};

/// Called at every kRoundEnd with the drained server; consumes
/// take_serviced_thetas() and decides about a re-push.
using RoundEndFn = std::function<RoundEndDecision(std::size_t round, CloudServer& server)>;

struct EngineRoundStats {
    std::size_t round = 0;
    double mean_accuracy = 0.0;
    double novel_mode_accuracy = -1.0;  ///< -1 if no novel device scored
    std::size_t prior_components = 0;
    bool rebroadcast = false;
    std::size_t broadcast_bytes = 0;    ///< bytes charged to the broadcast budget this round

    std::size_t devices_scored = 0;
    std::size_t uploads_attempted = 0;  ///< devices that tried to upload
    std::size_t uploads_delivered = 0;  ///< devices whose upload survived the air
    std::size_t crashed = 0;
    std::size_t stragglers = 0;
    std::size_t fallbacks = 0;
    std::size_t stale_priors = 0;
    std::size_t uploads_dropped = 0;
    std::size_t uploads_garbled = 0;
    std::size_t non_finite = 0;
    std::size_t backpressure_rejected = 0;  ///< uploads rejected at admission

    std::size_t upload_bytes = 0;       ///< device->shard on-air bytes (every attempt)
    std::size_t batch_bytes = 0;        ///< shard->server batch bytes (admitted or not)
    std::size_t upload_retries = 0;

    // Virtual-latency tail over the round's participating devices (every
    // slot without membership; crashes pinned at the deadline, stragglers
    // past it). Non-member slots never ran and are left out. 0 when no
    // device ran.
    double latency_p50_seconds = 0.0;
    double latency_p99_seconds = 0.0;
    double latency_p999_seconds = 0.0;
    double latency_max_seconds = 0.0;

    /// Per-device outcome in GLOBAL device order.
    std::vector<DegradedReason> device_degraded;
};

struct EngineReport {
    std::vector<EngineRoundStats> rounds;
    std::size_t total_broadcast_bytes = 0;
    std::size_t total_upload_bytes = 0;
    std::size_t total_batch_bytes = 0;
    std::size_t total_upload_retries = 0;
    std::size_t total_backpressure_rejected = 0;
    double virtual_seconds = 0.0;        ///< clock at the final event
    std::uint64_t events_processed = 0;
    /// Peak EventQueue size over the whole run (scheduler backlog, not the
    /// server's admission queue) — capacity planning for the event heap.
    std::size_t max_event_queue_depth = 0;

    /// Fleet health telemetry sampled at every kRoundEnd: the per-round
    /// series + upload-latency histogram (main block — bit-identical across
    /// thread and shard counts under full admission) and the
    /// partition-scoped extras. Empty under DREL_METRICS=0.
    health::FleetTelemetry telemetry;

    // Wall-clock observability — NOT covered by determinism claims.
    double wall_seconds = 0.0;
    double device_rounds_per_second = 0.0;

    /// Mean (broadcast + upload + batch) bytes per device per round — the
    /// first-class transfer-cost metric.
    double bytes_per_device_round() const noexcept;
};

/// Runs the event loop: `work` per device (round, global index, work
/// stream, shard arena), `round_end` at each round close. `device_root`,
/// the fault plan, and the churn plan are the only randomness sources; the
/// engine itself never draws. A non-null `batch_score` lets `work` defer
/// its accuracy (DeviceResult::defer_score): each shard then scores its
/// slice per tile of dp::BatchResponsibilities::kTileDevices devices —
/// same reports, one kernel invocation per tile instead of one per device.
///
/// `churn` (when non-null and active, or when config.membership reserves
/// tail capacity) switches the engine into membership mode: a server-side
/// MembershipTable evolves on kHeartbeatDeadline / kDeviceJoin /
/// kDeviceRejoin events, shards skip non-member slots through the
/// participation mask, rebroadcasts reach (and are charged for) only Alive
/// devices, rejoiners resume with DegradedReason::kRejoinStalePrior when
/// they missed a broadcast, and the report's telemetry grows a membership
/// series. nullptr or an inactive plan with no reserved tail reproduces
/// the fixed-population engine bit for bit.
///
/// Throws std::invalid_argument, before any draw, when `config` is invalid
/// or an active fault plan's round_deadline_seconds differs from
/// config.deadline_seconds.
EngineReport run_fleet_engine(const EngineConfig& config, const stats::Rng& device_root,
                              const FaultPlan& plan, const DeviceWork& work,
                              const RoundEndFn& round_end,
                              const BatchScoreFn* batch_score = nullptr,
                              const ChurnPlan* churn = nullptr);

// ---------------------------------------------------------------------------
// The scale path: ≥100k simulated devices per round.

/// Fleet-scale run with cheap per-device work: each device samples its mode,
/// perturbs the mode parameters, scores the broadcast prior by MAP-component
/// recovery, and uploads sufficient statistics through the sharded engine.
/// This is the deployment-shape benchmark — throughput, tail latency, and
/// bytes/device/round — not a training-accuracy experiment.
struct ScaleFleetConfig {
    std::size_t devices_per_round = 100000;
    std::size_t rounds = 3;
    std::size_t feature_dim = 8;
    std::size_t num_modes = 6;
    double mode_radius = 2.5;
    double within_mode_var = 0.05;

    std::size_t num_shards = 0;   ///< 0 = one per thread
    std::size_t num_threads = 1;

    /// Deterministic re-push cadence: the prior is rebroadcast after every
    /// `rebroadcast_every`-th round (0 = never). A fixed cadence keeps the
    /// byte accounting bit-identical across shard counts — no FP threshold
    /// on a shard-order-dependent statistic.
    std::size_t rebroadcast_every = 2;

    double round_seconds = 60.0;
    /// Copied to EngineConfig::deadline_seconds; must equal
    /// faults.round_deadline_seconds when any fault is on.
    double deadline_seconds = 30.0;
    double uplink_seconds = 0.5;
    ServerConfig server;
    FaultConfig faults;
    /// Liveness/churn knobs; defaults keep the scale path churn-free (and
    /// its goldens byte-stable). The churn plan forks its own stream, so
    /// enabling churn never perturbs the mode/fault/device draws.
    MembershipConfig membership;

    /// Broadcast wire options. Every option charges real encoded frames:
    /// the bootstrap push is a full frame (nobody holds a base yet), every
    /// v2 re-push is delta-eligible against it. This is what the bench's
    /// bytes/device/round column and the bandwidth SLO measure.
    EncodingOptions wire;
};

struct ScaleFleetReport {
    EngineReport engine;
    std::size_t prior_components = 0;
    std::size_t payload_bytes = 0;          ///< encoded prior size (per device)
    /// Fraction of scored devices whose MAP prior component matched their
    /// generating mode — the scale path's cheap quality proxy.
    double mode_recovery_rate = 0.0;
};

ScaleFleetReport run_scale_fleet(const ScaleFleetConfig& config, stats::Rng& rng);

}  // namespace drel::edgesim
