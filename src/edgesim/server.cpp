#include "edgesim/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dp/batch_responsibilities.hpp"
#include "dp/mixture_prior.hpp"
#include "edgesim/scheduler.hpp"
#include "edgesim/transfer.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "stats/descriptive.hpp"
#include "stats/multivariate_normal.hpp"
#include "util/executor.hpp"

namespace drel::edgesim {

stats::Rng server_stream(const stats::Rng& server_root, std::size_t round,
                         ServerStream purpose) {
    return server_root.fork(round).fork(static_cast<std::uint64_t>(purpose));
}

void ServerConfig::validate() const {
    if (queue_capacity == 0) {
        throw std::invalid_argument("ServerConfig: queue_capacity must be >= 1");
    }
    if (!(service_seconds_per_batch >= 0.0) || !std::isfinite(service_seconds_per_batch)) {
        throw std::invalid_argument(
            "ServerConfig: service_seconds_per_batch must be finite and >= 0");
    }
}

CloudServer::CloudServer(ServerConfig config) : config_(config) { config_.validate(); }

bool CloudServer::offer(UploadBatch batch, double now) {
    drain_until(now);
    if (queue_.size() >= config_.queue_capacity) {
        rejected_uploads_ += batch.stats.count;
        static obs::Counter& rejected =
            obs::Registry::global().counter("server.batches_rejected");
        rejected.add(1);
        return false;
    }
    queue_.push_back({std::move(batch), now});
    static obs::Counter& admitted = obs::Registry::global().counter("server.batches_admitted");
    admitted.add(1);
    // Service anything due at this very instant (a zero-service batch
    // completes at its own arrival), THEN record the settled depth: the
    // high-water mark tracks real backlog, never the phantom depth between
    // a push and its immediate drain.
    drain_until(now);
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    return true;
}

void CloudServer::drain_until(double now) {
    while (!queue_.empty()) {
        Pending& head = queue_.front();
        const double start = std::max(busy_until_, head.arrival);
        const double done = start + config_.service_seconds_per_batch;
        if (done > now) break;
        busy_until_ = done;
        const auto round = static_cast<std::size_t>(head.batch.round);
        for (auto& [device, theta] : head.batch.thetas) {
            serviced_thetas_.push_back({round, device, std::move(theta)});
        }
        if (round < current_round_) ++serviced_lagged_batches_;
        if (service_wait_histogram_ != nullptr) {
            service_wait_histogram_->observe(
                static_cast<std::uint64_t>(std::llround((done - head.arrival) * 1000.0)));
        }
        queue_.pop_front();
    }
}

std::vector<std::pair<std::size_t, linalg::Vector>> CloudServer::take_serviced_thetas() {
    std::sort(serviced_thetas_.begin(), serviced_thetas_.end(),
              [](const ServicedTheta& a, const ServicedTheta& b) {
                  return a.round != b.round ? a.round < b.round : a.device < b.device;
              });
    std::vector<std::pair<std::size_t, linalg::Vector>> out;
    out.reserve(serviced_thetas_.size());
    for (auto& entry : serviced_thetas_) {
        out.emplace_back(entry.device, std::move(entry.theta));
    }
    serviced_thetas_.clear();
    return out;
}

void EngineConfig::validate() const {
    if (rounds == 0) throw std::invalid_argument("EngineConfig: rounds must be >= 1");
    if (devices_per_round == 0) {
        throw std::invalid_argument("EngineConfig: devices_per_round must be >= 1");
    }
    if (theta_dim == 0) throw std::invalid_argument("EngineConfig: theta_dim must be >= 1");
    if (!(round_seconds > 0.0) || !std::isfinite(round_seconds)) {
        throw std::invalid_argument("EngineConfig: round_seconds must be finite and > 0");
    }
    if (!(deadline_seconds > 0.0) || !std::isfinite(deadline_seconds)) {
        throw std::invalid_argument("EngineConfig: deadline_seconds must be finite and > 0");
    }
    if (!(uplink_seconds >= 0.0) || !std::isfinite(uplink_seconds)) {
        throw std::invalid_argument("EngineConfig: uplink_seconds must be finite and >= 0");
    }
    if (deadline_seconds + uplink_seconds > round_seconds) {
        throw std::invalid_argument(
            "EngineConfig: deadline_seconds + uplink_seconds must not exceed round_seconds "
            "(a healthy upload must land before its round closes)");
    }
    server.validate();
    membership.validate(devices_per_round, round_seconds);
}

double EngineReport::bytes_per_device_round() const noexcept {
    std::size_t device_rounds = 0;
    for (const EngineRoundStats& round : rounds) device_rounds += round.device_degraded.size();
    if (device_rounds == 0) return 0.0;
    const double total = static_cast<double>(total_broadcast_bytes) +
                         static_cast<double>(total_upload_bytes) +
                         static_cast<double>(total_batch_bytes);
    return total / static_cast<double>(device_rounds);
}

namespace {

constexpr std::size_t kNumDegradedReasons =
    static_cast<std::size_t>(DegradedReason::kRejoinStalePrior) + 1;

/// Last-N engine events the flight recorder retains (diagnostics; dumped
/// when DREL_FLIGHT_RECORDER names a path).
constexpr std::size_t kFlightRecorderCapacity = 1024;

/// Integer tallies of a closed round. Integer sums are exactly
/// associative, so slices tallied per shard and merged in shard order equal
/// one device-order pass at any partition and thread count.
struct RoundCounts {
    std::array<std::size_t, kNumDegradedReasons> reasons{};  ///< slots per DegradedReason
    std::size_t participating = 0;  ///< member slots (every slot without membership)
    std::size_t scored = 0;
    std::size_t stale_priors = 0;
    std::size_t uploads_attempted = 0;
    std::size_t uploads_delivered = 0;
    std::size_t uploads_dropped = 0;
    std::size_t uploads_garbled = 0;
    std::size_t upload_attempts = 0;  ///< Σ on-air tries (the upload byte ledger)
    std::size_t upload_retries = 0;

    RoundCounts& operator+=(const RoundCounts& other) noexcept {
        for (std::size_t r = 0; r < kNumDegradedReasons; ++r) reasons[r] += other.reasons[r];
        participating += other.participating;
        scored += other.scored;
        stale_priors += other.stale_priors;
        uploads_attempted += other.uploads_attempted;
        uploads_delivered += other.uploads_delivered;
        uploads_dropped += other.uploads_dropped;
        uploads_garbled += other.uploads_garbled;
        upload_attempts += other.upload_attempts;
        upload_retries += other.upload_retries;
        return *this;
    }
};

/// One shard slice's share of the close, reused across rounds. Cache-line
/// aligned: neighbouring slices are tallied on different threads.
struct alignas(64) SliceTally {
    RoundCounts counts;
    /// Delivered, intact, admitted uploads: device completion plus one
    /// uplink, in virtual milliseconds.
    obs::HistogramSnapshot upload_latency_ms;
};

/// The close's float folds, one serial device-order pass.
struct AccuracySums {
    double accuracy = 0.0;
    double novel = 0.0;
    std::size_t novel_scored = 0;
};

/// Member latencies lie in [0, 2 * deadline): healthy and crashed devices
/// at most the deadline, stragglers below twice it. The tail is selected
/// from buckets over that range, about 64 members a bucket at most
/// kMaxLatencyBuckets buckets: a 64-device fleet keeps one bucket and a
/// 100k fleet selects inside a few hundred values.
constexpr std::size_t kMaxLatencyBuckets = 4096;

stats::RankBuckets latency_buckets(const EngineConfig& config) {
    return stats::RankBuckets(
        std::clamp<std::size_t>(config.devices_per_round / 64, 1, kMaxLatencyBuckets),
        2.0 * config.deadline_seconds);
}

/// The close's scratch, reused across rounds: one tally and one latency
/// block per shard slice, the slices' member latencies grouped by bucket,
/// and the bucket the selection gathers.
struct CloseScratch {
    explicit CloseScratch(const EngineConfig& config) : buckets(latency_buckets(config)) {}

    stats::RankBuckets buckets;
    std::vector<SliceTally> tallies;
    std::vector<stats::RankBlock> latency_blocks;
    std::vector<double> grouped_latencies;
    std::vector<double> selection;
};

/// Tallies the slice's FINAL SoA rows — read at kRoundEnd, after the
/// rejoin overlay and the backpressure marks, so nothing needs correcting
/// — copies its outcomes into `degraded_out` and groups its members'
/// latencies by bucket into its own block of `grouped`. Touches only the
/// slice's indices.
void tally_slice(const RoundSoA& soa, const ShardLayout& slice,
                 const std::uint8_t* participating, double uplink_seconds,
                 const stats::RankBuckets& buckets, SliceTally& tally,
                 stats::RankBlock& latencies, double* grouped, DegradedReason* degraded_out) {
    RoundCounts c;
    tally.upload_latency_ms.clear();
    for (std::size_t j = slice.begin; j < slice.end; ++j) {
        const DegradedReason reason = soa.degraded[j];
        const bool attempted = soa.upload_attempts[j] > 0;
        const bool delivered = soa.upload_delivered[j] != 0;
        const bool garbled = soa.upload_garbled[j] != 0;
        ++c.reasons[static_cast<std::size_t>(reason)];
        c.participating += participating == nullptr || participating[j] != 0 ? 1 : 0;
        c.scored += soa.scored[j] != 0 ? 1 : 0;
        // Stale and dropped are facts about the round, not about which
        // reason ultimately won the device's slot: a stale device whose
        // solver also degraded is still a stale device, and an undelivered
        // attempt is dropped whatever else went wrong.
        c.stale_priors += soa.stale_prior[j] != 0 ? 1 : 0;
        c.uploads_attempted += attempted ? 1 : 0;
        c.uploads_delivered += delivered ? 1 : 0;
        c.uploads_dropped += attempted && !delivered ? 1 : 0;
        c.uploads_garbled += garbled ? 1 : 0;
        c.upload_attempts += soa.upload_attempts[j];
        c.upload_retries += soa.upload_retries[j];
        // The latency histogram models each admitted upload as dispatched
        // at device completion and delivered one uplink later — a
        // per-device quantity, independent of how the fleet is sharded.
        if (delivered && !garbled && reason != DegradedReason::kBackpressure) {
            tally.upload_latency_ms.observe(static_cast<std::uint64_t>(
                std::llround((soa.latency_seconds[j] + uplink_seconds) * 1000.0)));
        }
    }
    tally.counts = c;
    // The latency tail counts only devices that ran: a non-member slot's
    // latency is its reset value, not a measurement.
    latencies.assign(buckets, soa.latency_seconds.data() + slice.begin,
                     participating == nullptr ? nullptr : participating + slice.begin,
                     slice.size(), grouped + slice.begin);
    std::copy(soa.degraded.begin() + static_cast<std::ptrdiff_t>(slice.begin),
              soa.degraded.begin() + static_cast<std::ptrdiff_t>(slice.end),
              degraded_out + slice.begin);
}

/// Sums the scored devices' accuracies in device order: float addition is
/// not associative, so this fold stays one pass, run as one task of the
/// close's fan-out.
AccuracySums fold_accuracy(const RoundSoA& soa) {
    AccuracySums sums;
    for (std::size_t j = 0; j < soa.size(); ++j) {
        if (soa.scored[j] == 0) continue;
        sums.accuracy += soa.accuracy[j];
        if (soa.novel[j] != 0) {
            ++sums.novel_scored;
            sums.novel += soa.accuracy[j];
        }
    }
    return sums;
}

/// A join or rejoin the round-start scan found, scheduled after the scan.
struct Admission {
    std::size_t device = 0;
    EventKind kind = EventKind::kDeviceJoin;
};

/// Overlays rejoin staleness on the slice's rows: the rejoiner trained
/// this round (graceful resume), the flag just names its out-of-date prior.
/// A stronger reason already in the slot (crash, drop) wins; the stale FACT
/// is recorded either way.
void overlay_rejoin_staleness(const MembershipTable& table, const ShardLayout& slice,
                              RoundSoA& soa) {
    for (std::size_t j = slice.begin; j < slice.end; ++j) {
        if (!table.resumed_stale(j)) continue;
        soa.stale_prior[j] = 1;
        if (soa.degraded[j] == DegradedReason::kNone) {
            soa.degraded[j] = DegradedReason::kRejoinStalePrior;
        }
    }
}

/// The round's join/rejoin admissions in the slice, in device order. Only
/// Unknown and Dead slots consult the plan, so the event count is bounded
/// by the reserved tail plus the dead set.
void scan_admissions(const MembershipTable& table, const ChurnPlan& plan, std::size_t round,
                     const ShardLayout& slice, std::vector<Admission>& out) {
    out.clear();
    for (std::size_t j = slice.begin; j < slice.end; ++j) {
        const LivenessState st = table.state(j);
        if (st == LivenessState::kUnknown) {
            if (plan.device_churn(round, j).join) out.push_back({j, EventKind::kDeviceJoin});
        } else if (st == LivenessState::kDead) {
            if (plan.device_churn(round, j).rejoin) {
                out.push_back({j, EventKind::kDeviceRejoin});
            }
        }
    }
}

/// Folds the closed round's final SoA into the round's stats entry, the
/// report totals, the upload-latency histogram and the fault.degraded.*
/// counters. One fan-out runs the device-order accuracy fold as its first
/// task and one tally per shard slice after it; the driver then merges the
/// slices' integers in shard order and selects the latency tail inside the
/// buckets that hold its ranks. Every result is independent of the shard
/// partition and the thread schedule. Returns the merged counts, which the
/// telemetry sample reads too.
RoundCounts finalize_round(const RoundSoA& soa, const std::vector<ShardLayout>& layouts,
                           const std::uint8_t* participating, const EngineConfig& config,
                           std::size_t num_threads, CloseScratch& scratch,
                           obs::Histogram& upload_latency, EngineRoundStats& stats,
                           EngineReport& report) {
    DREL_PROFILE_SCOPE("engine.finalize_round");
    stats.device_degraded.resize(soa.size());
    scratch.grouped_latencies.resize(soa.size());
    AccuracySums sums;
    util::parallel_for(layouts.size() + 1, num_threads, [&](std::size_t task) {
        if (task == 0) {
            sums = fold_accuracy(soa);
            return;
        }
        const std::size_t s = task - 1;
        tally_slice(soa, layouts[s], participating, config.uplink_seconds, scratch.buckets,
                    scratch.tallies[s], scratch.latency_blocks[s],
                    scratch.grouped_latencies.data(), stats.device_degraded.data());
    });

    RoundCounts total;
    for (std::size_t s = 0; s < layouts.size(); ++s) {
        total += scratch.tallies[s].counts;
        upload_latency.merge(scratch.tallies[s].upload_latency_ms);
    }
    for (std::size_t r = 0; r < kNumDegradedReasons; ++r) {
        record_degradation(static_cast<DegradedReason>(r), total.reasons[r]);
    }

    const auto reason_count = [&](DegradedReason reason) {
        return total.reasons[static_cast<std::size_t>(reason)];
    };
    stats.devices_scored = total.scored;
    stats.crashed = reason_count(DegradedReason::kCrashed);
    stats.stragglers = reason_count(DegradedReason::kStraggler);
    stats.fallbacks = reason_count(DegradedReason::kFallbackLocalErm);
    stats.non_finite = reason_count(DegradedReason::kNonFinite);
    stats.backpressure_rejected = reason_count(DegradedReason::kBackpressure);
    stats.stale_priors = total.stale_priors;
    stats.uploads_attempted = total.uploads_attempted;
    stats.uploads_delivered = total.uploads_delivered;
    stats.uploads_dropped = total.uploads_dropped;
    stats.uploads_garbled = total.uploads_garbled;
    stats.upload_bytes = total.upload_attempts * config.theta_dim * sizeof(double);
    stats.upload_retries = total.upload_retries;
    if (stats.devices_scored > 0) {
        stats.mean_accuracy = sums.accuracy / static_cast<double>(stats.devices_scored);
    }
    if (sums.novel_scored > 0) {
        stats.novel_mode_accuracy = sums.novel / static_cast<double>(sums.novel_scored);
    }
    // The latency tail; with no member the stats entry keeps its zeros.
    if (total.participating > 0) {
        constexpr std::array<double, 3> kTail = {0.50, 0.99, 0.999};
        std::array<double, 3> tail{};
        drel::stats::select_nearest_ranks(scratch.buckets, scratch.latency_blocks.data(),
                                          layouts.size(), kTail.data(), kTail.size(),
                                          tail.data(), scratch.selection);
        stats.latency_p50_seconds = tail[0];
        stats.latency_p99_seconds = tail[1];
        stats.latency_p999_seconds = tail[2];
        stats.latency_max_seconds = -std::numeric_limits<double>::infinity();
        for (const drel::stats::RankBlock& block : scratch.latency_blocks) {
            stats.latency_max_seconds = std::max(stats.latency_max_seconds, block.max());
        }
    }

    report.total_upload_bytes += stats.upload_bytes;
    report.total_batch_bytes += stats.batch_bytes;
    report.total_upload_retries += stats.upload_retries;
    report.total_backpressure_rejected += stats.backpressure_rejected;
    return total;
}

}  // namespace

EngineReport run_fleet_engine(const EngineConfig& config, const stats::Rng& device_root,
                              const FaultPlan& plan, const DeviceWork& work,
                              const RoundEndFn& round_end,
                              const BatchScoreFn* batch_score,
                              const ChurnPlan* churn) {
    DREL_PROFILE_SCOPE("engine.run");
    config.validate();
    // One round deadline: the plan's caps the upload retries, the engine's
    // caps device latencies, and an active plan must mean the same round.
    if (plan.active() && plan.config().round_deadline_seconds != config.deadline_seconds) {
        throw std::invalid_argument(
            "run_fleet_engine: an active fault plan's round_deadline_seconds must equal "
            "EngineConfig::deadline_seconds");
    }
    const auto wall_start = std::chrono::steady_clock::now();

    // Membership engages when churn can actually happen or capacity is
    // reserved for joins; otherwise every membership hook below is skipped
    // and the engine reproduces its fixed-population behavior bit for bit.
    static const ChurnPlan kInactiveChurn;
    const ChurnPlan& churn_plan = churn != nullptr ? *churn : kInactiveChurn;
    const bool membership_on =
        churn_plan.active() || config.membership.enabled(config.devices_per_round);
    MembershipTable membership_table;
    if (membership_on) {
        config.membership.validate_timing(config.round_seconds);
        membership_table = MembershipTable(
            config.devices_per_round,
            config.membership.effective_initial_members(config.devices_per_round),
            config.membership.suspect_rounds_to_dead);
    }

    const std::size_t num_threads = std::max<std::size_t>(1, config.num_threads);
    const std::size_t num_shards =
        config.num_shards > 0 ? config.num_shards : num_threads;
    const std::vector<ShardLayout> layouts =
        make_shard_layouts(config.devices_per_round, num_shards);
    std::vector<Shard> shards;
    shards.reserve(layouts.size());
    for (const ShardLayout& layout : layouts) shards.emplace_back(layout, config.theta_dim);

    CloudServer server(config.server);
    EventQueue queue;
    RoundSoA soa;
    soa.resize(config.devices_per_round);
    std::vector<ShardRoundOutput> outputs(shards.size());
    std::vector<std::vector<Admission>> admissions(shards.size());

    EngineReport report;
    report.rounds.reserve(config.rounds);
    std::size_t current_components = config.initial_prior_components;

    // Fleet health telemetry (DESIGN.md "Fleet health telemetry"). The
    // series, histograms, and recorder are LOCAL to this run — never
    // registry metrics — so engine runs cannot pollute golden registry
    // snapshots, and every recording site sits on the driver thread.
    obs::FlightRecorder recorder(kFlightRecorderCapacity);
    obs::Histogram upload_latency(obs::log_spaced_bounds(1, std::uint64_t{1} << 20));
    obs::Histogram service_wait(obs::log_spaced_bounds(1, std::uint64_t{1} << 20));
    CloseScratch close_scratch(config);
    close_scratch.tallies.resize(layouts.size());
    close_scratch.latency_blocks.resize(layouts.size());
    for (SliceTally& tally : close_scratch.tallies) {
        tally.upload_latency_ms = upload_latency.snapshot();  // sized to the bounds
    }
    server.set_service_wait_histogram(&service_wait);
    std::vector<std::uint64_t> telemetry_row(health::kFleetNumColumns, 0);
    std::vector<std::uint64_t> membership_row(health::kMembershipNumColumns, 0);
    std::size_t lagged_at_prev_close = 0;
    std::size_t rejected_at_prev_close = 0;
    const std::string recorder_path = obs::flight_recorder_env_path();

    const auto run_event_loop = [&] {
        while (!queue.empty()) {
        const Event event = queue.pop();
        recorder.record(event.round, event.time, to_string(event.kind), event.shard,
                        static_cast<std::uint64_t>(server.queue_depth()));
        const std::size_t round = event.round;
        switch (event.kind) {
            case EventKind::kRoundStart: {
                DREL_PROFILE_SCOPE("engine.round_start");
                server.begin_round(round);
                // Promote Joining slots and snapshot the participation mask
                // BEFORE the shard fan-out — the mask must be immutable
                // while shards read it.
                if (membership_on) membership_table.begin_round();
                EngineRoundStats stats;
                stats.round = round;
                stats.prior_components = current_components;
                if (round == 0) {
                    stats.broadcast_bytes += config.initial_broadcast_bytes;
                    report.total_broadcast_bytes += config.initial_broadcast_bytes;
                }
                report.rounds.push_back(std::move(stats));

                const std::uint8_t* participating =
                    membership_on ? membership_table.participation().data() : nullptr;
                // Each slice task resets its SoA rows, runs its shard, then
                // the slice's membership passes: the table is read-only
                // until the next event, and a slice writes only its own SoA
                // rows and admission list.
                util::parallel_for(shards.size(), num_threads, [&](std::size_t s) {
                    soa.reset(layouts[s].begin, layouts[s].end);
                    outputs[s] = shards[s].run_round(round, device_root, plan, work, soa,
                                                     config.deadline_seconds,
                                                     config.keep_thetas, batch_score,
                                                     participating);
                    if (membership_on) {
                        overlay_rejoin_staleness(membership_table, layouts[s], soa);
                        scan_admissions(membership_table, churn_plan, round, layouts[s],
                                        admissions[s]);
                    }
                });
                // Arrivals scheduled in shard order: deterministic seq
                // numbers, hence a deterministic event sequence.
                for (std::size_t s = 0; s < outputs.size(); ++s) {
                    if (outputs[s].batch.stats.count == 0) continue;
                    queue.schedule(
                        event.time + outputs[s].completion_seconds + config.uplink_seconds,
                        EventKind::kUploadArrival, static_cast<std::uint32_t>(round),
                        static_cast<std::uint32_t>(s));
                }
                if (membership_on) {
                    // Join/rejoin admissions, slice by slice: device order,
                    // so a deterministic event sequence.
                    for (const std::vector<Admission>& slice : admissions) {
                        for (const Admission& admission : slice) {
                            queue.schedule(event.time + config.membership.join_seconds,
                                           admission.kind, static_cast<std::uint32_t>(round),
                                           0, static_cast<std::uint32_t>(admission.device));
                        }
                    }
                    // One heartbeat deadline per round folds every alive/
                    // suspect device's leave/heartbeat outcome — scheduled
                    // before kRoundEnd so it precedes the close even if the
                    // two ever share a timestamp.
                    queue.schedule(event.time + config.membership.heartbeat_seconds,
                                   EventKind::kHeartbeatDeadline,
                                   static_cast<std::uint32_t>(round));
                }
                queue.schedule(event.time + config.round_seconds, EventKind::kRoundEnd,
                               static_cast<std::uint32_t>(round));
                break;
            }
            case EventKind::kHeartbeatDeadline: {
                membership_table.heartbeat_deadline(round, churn_plan, num_threads);
                break;
            }
            case EventKind::kDeviceJoin: {
                membership_table.apply_join(event.device);
                break;
            }
            case EventKind::kDeviceRejoin: {
                membership_table.apply_rejoin(event.device);
                break;
            }
            case EventKind::kUploadArrival: {
                UploadBatch batch = std::move(outputs[event.shard].batch);
                outputs[event.shard].batch = UploadBatch{};
                EngineRoundStats& stats = report.rounds[round];
                stats.batch_bytes += batch.on_air_bytes;
                const std::vector<std::size_t> members = std::move(batch.devices);
                if (!server.offer(std::move(batch), event.time)) {
                    // Rejected at admission: every upload in the batch is
                    // lost to backpressure. Keep any stronger reason the
                    // device already carries.
                    for (const std::size_t device : members) {
                        if (soa.degraded[device] == DegradedReason::kNone) {
                            soa.degraded[device] = DegradedReason::kBackpressure;
                        }
                    }
                }
                break;
            }
            case EventKind::kRoundEnd: {
                DREL_PROFILE_SCOPE("engine.round_end");
                server.drain_until(event.time);
                EngineRoundStats& stats = report.rounds[round];
                const RoundCounts closed = finalize_round(
                    soa, layouts,
                    membership_on ? membership_table.participation().data() : nullptr, config,
                    num_threads, close_scratch, upload_latency, stats, report);

                const RoundEndDecision decision = round_end(round, server);
                current_components = decision.prior_components;
                const bool has_next_round = round + 1 < config.rounds;
                // The final round has no next fleet: nothing is pushed and
                // nothing is charged, whatever the driver decided.
                stats.rebroadcast = decision.rebroadcast && has_next_round;
                if (stats.rebroadcast) {
                    // Broadcasts reach (and are charged for) only Alive
                    // devices: Suspect devices miss the push — that is the
                    // staleness a rejoin later surfaces — and Dead/Unknown
                    // slots cost nothing.
                    const std::size_t fleet = membership_on
                                                  ? membership_table.alive_count()
                                                  : config.devices_per_round;
                    const std::size_t bytes = decision.payload_bytes * fleet;
                    stats.broadcast_bytes += bytes;
                    report.total_broadcast_bytes += bytes;
                    if (membership_on) membership_table.record_broadcast();
                }
                if (has_next_round) {
                    queue.schedule(event.time, EventKind::kRoundStart,
                                   static_cast<std::uint32_t>(round + 1));
                }

                // Health-series sample for the closed round: driver thread,
                // virtual clock only, from the close's partition-independent
                // tallies.
                using health::FleetCol;
                using health::idx;
                const auto u64 = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
                const auto virtual_ms = [](double seconds) {
                    return static_cast<std::uint64_t>(std::llround(seconds * 1000.0));
                };
                std::vector<std::uint64_t>& row = telemetry_row;
                row[idx(FleetCol::kRound)] = u64(round);
                row[idx(FleetCol::kVirtualCloseMs)] = virtual_ms(event.time);
                row[idx(FleetCol::kDevices)] = u64(soa.size());
                // Non-member slots stay kNone and count as healthy.
                const std::size_t healthy =
                    closed.reasons[static_cast<std::size_t>(DegradedReason::kNone)];
                row[idx(FleetCol::kHealthy)] = u64(healthy);
                row[idx(FleetCol::kDegraded)] = u64(soa.size() - healthy);
                row[idx(FleetCol::kDegradedCrashed)] = u64(stats.crashed);
                row[idx(FleetCol::kDegradedStraggler)] = u64(stats.stragglers);
                row[idx(FleetCol::kDegradedFallback)] = u64(stats.fallbacks);
                row[idx(FleetCol::kDegradedNonFinite)] = u64(stats.non_finite);
                row[idx(FleetCol::kDegradedBackpressure)] = u64(stats.backpressure_rejected);
                row[idx(FleetCol::kStalePriors)] = u64(stats.stale_priors);
                row[idx(FleetCol::kUploadsAttempted)] = u64(stats.uploads_attempted);
                row[idx(FleetCol::kUploadsDelivered)] = u64(stats.uploads_delivered);
                row[idx(FleetCol::kUploadsDropped)] = u64(stats.uploads_dropped);
                row[idx(FleetCol::kUploadsGarbled)] = u64(stats.uploads_garbled);
                row[idx(FleetCol::kUploadsRejected)] =
                    u64(server.rejected_uploads() - rejected_at_prev_close);
                row[idx(FleetCol::kUploadRetries)] = u64(stats.upload_retries);
                row[idx(FleetCol::kQueueDepthAtClose)] = u64(server.queue_high_water());
                row[idx(FleetCol::kServicedLagged)] =
                    u64(server.serviced_lagged_batches() - lagged_at_prev_close);
                row[idx(FleetCol::kBroadcastBytes)] = u64(stats.broadcast_bytes);
                row[idx(FleetCol::kUploadBytes)] = u64(stats.upload_bytes);
                row[idx(FleetCol::kPriorComponents)] = u64(stats.prior_components);
                row[idx(FleetCol::kRebroadcast)] = stats.rebroadcast ? 1 : 0;
                row[idx(FleetCol::kLatencyP50Ms)] = virtual_ms(stats.latency_p50_seconds);
                row[idx(FleetCol::kLatencyP99Ms)] = virtual_ms(stats.latency_p99_seconds);
                row[idx(FleetCol::kLatencyMaxMs)] = virtual_ms(stats.latency_max_seconds);
                report.telemetry.series.append_row(row);
                if (membership_on) {
                    // Membership sample for the closed round: census at
                    // close (post-heartbeat, post-broadcast) plus the
                    // round's event counters — driver thread, so it shares
                    // the main series' determinism contract.
                    const MembershipCounts mc = membership_table.counts();
                    using health::MembershipCol;
                    std::vector<std::uint64_t>& mrow = membership_row;
                    mrow[idx(MembershipCol::kRound)] = u64(round);
                    mrow[idx(MembershipCol::kCapacity)] = u64(membership_table.capacity());
                    mrow[idx(MembershipCol::kMembers)] = u64(mc.alive + mc.suspect);
                    mrow[idx(MembershipCol::kAlive)] = u64(mc.alive);
                    mrow[idx(MembershipCol::kSuspect)] = u64(mc.suspect);
                    mrow[idx(MembershipCol::kDead)] = u64(mc.dead);
                    mrow[idx(MembershipCol::kJoining)] = u64(mc.joining);
                    mrow[idx(MembershipCol::kUnknown)] = u64(mc.unknown);
                    mrow[idx(MembershipCol::kParticipating)] = u64(closed.participating);
                    mrow[idx(MembershipCol::kJoins)] = u64(mc.joins);
                    mrow[idx(MembershipCol::kRejoins)] = u64(mc.rejoins);
                    mrow[idx(MembershipCol::kLeaves)] = u64(mc.leaves);
                    mrow[idx(MembershipCol::kHeartbeatsMissed)] = u64(mc.heartbeats_missed);
                    mrow[idx(MembershipCol::kDeaths)] = u64(mc.deaths);
                    mrow[idx(MembershipCol::kRecoveries)] = u64(mc.recoveries);
                    mrow[idx(MembershipCol::kRejoinsStale)] = u64(mc.rejoins_stale);
                    mrow[idx(MembershipCol::kChurnEvents)] = u64(mc.churn_events());
                    mrow[idx(MembershipCol::kPriorVersion)] = membership_table.prior_version();
                    report.telemetry.membership.append_row(mrow);
                }
                rejected_at_prev_close = server.rejected_uploads();
                lagged_at_prev_close = server.serviced_lagged_batches();
                break;
            }
        }
        }
    };

    queue.schedule(0.0, EventKind::kRoundStart, 0);
    if (recorder_path.empty()) {
        run_event_loop();
    } else {
        // A fault mid-run still flushes the recorder: the tail of the event
        // stream is exactly the diagnostic a crash needs.
        try {
            run_event_loop();
        } catch (...) {
            recorder.dump(recorder_path);
            throw;
        }
        recorder.dump(recorder_path);
    }
    server.set_service_wait_histogram(nullptr);
    report.telemetry.upload_latency_ms = upload_latency.snapshot();
    report.telemetry.service_wait_ms = service_wait.snapshot();
    if (obs::metrics_enabled()) {
        report.telemetry.shard_devices.reserve(layouts.size());
        for (const ShardLayout& layout : layouts) {
            report.telemetry.shard_devices.push_back(
                static_cast<std::uint64_t>(layout.end - layout.begin));
        }
    }

    report.virtual_seconds = queue.now();
    report.events_processed = queue.total_popped();
    report.max_event_queue_depth = queue.high_water();
    const auto wall_end = std::chrono::steady_clock::now();
    report.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
    if (report.wall_seconds > 0.0) {
        report.device_rounds_per_second =
            static_cast<double>(config.rounds * config.devices_per_round) /
            report.wall_seconds;
    }
    return report;
}

// ---------------------------------------------------------------------------
// Scale path.

ScaleFleetReport run_scale_fleet(const ScaleFleetConfig& config, stats::Rng& rng) {
    DREL_PROFILE_SCOPE("engine.scale_fleet");
    const std::size_t num_modes = std::max<std::size_t>(1, config.num_modes);
    const std::size_t dim = std::max<std::size_t>(1, config.feature_dim);

    // Oracle-style broadcast prior straight from the synthesized mode
    // centers: the scale bench measures the machinery (throughput, tails,
    // bytes), not prior inference, so the cheap per-device work only has to
    // exercise real mixture evaluations.
    stats::Rng mode_rng = rng.fork(11);
    std::vector<linalg::Vector> means;
    means.reserve(num_modes);
    std::vector<stats::MultivariateNormal> atoms;
    atoms.reserve(num_modes);
    for (std::size_t k = 0; k < num_modes; ++k) {
        linalg::Vector mean = mode_rng.standard_normal_vector(dim);
        for (double& m : mean) m *= config.mode_radius;
        atoms.push_back(stats::MultivariateNormal::isotropic(mean, config.within_mode_var));
        means.push_back(std::move(mean));
    }
    const dp::MixturePrior prior(linalg::Vector(num_modes, 1.0), std::move(atoms));
    // Broadcast byte accounting from real frames: the bootstrap push is
    // full (devices hold no base), and because the oracle prior never moves
    // in this bench, every v2 delta re-push collapses to header + presence
    // bytes — the steady-state cost a converged fleet actually pays.
    config.wire.validate();
    EncodingOptions bootstrap_wire = config.wire;
    bootstrap_wire.delta = false;
    bootstrap_wire.prior_version = 0;
    const std::size_t payload_bytes = encode_prior(prior, bootstrap_wire).size();
    EncodingOptions push = config.wire;
    push.prior_version = 1;
    const PriorBase base{&prior, 0};
    const std::size_t rebroadcast_bytes =
        encode_prior(prior, push, push.delta ? &base : nullptr).size();

    EngineConfig engine;
    engine.rounds = config.rounds;
    engine.devices_per_round = config.devices_per_round;
    engine.theta_dim = dim;
    engine.num_shards = config.num_shards;
    engine.num_threads = config.num_threads;
    engine.round_seconds = config.round_seconds;
    engine.deadline_seconds = config.deadline_seconds;
    engine.uplink_seconds = config.uplink_seconds;
    engine.keep_thetas = false;  // sufficient statistics only on the wire
    // The bootstrap broadcast reaches only the devices that boot Alive —
    // the reserved tail hasn't joined yet. Without membership this is the
    // whole fleet, exactly the historical accounting.
    engine.initial_broadcast_bytes =
        payload_bytes *
        config.membership.effective_initial_members(config.devices_per_round);
    engine.initial_prior_components = num_modes;
    engine.server = config.server;
    engine.membership = config.membership;

    const stats::Rng device_root = rng.fork(4);
    const FaultPlan plan(config.faults, rng);
    const ChurnPlan churn(config.membership.churn, rng);
    const double within_sd = std::sqrt(std::max(0.0, config.within_mode_var));

    const DeviceWork work = [&](std::size_t round, std::size_t device, stats::Rng& work_rng,
                                util::Workspace& ws) {
        DeviceResult result;
        const std::size_t mode = work_rng.uniform_index(means.size());
        // The shard gives the theta back to `ws` once it is scored and
        // counted, so the next device's take reuses its storage.
        linalg::Vector theta = ws.take(dim);
        work_rng.normals(theta.data(), dim);
        const linalg::Vector& mean = means[mode];
        for (std::size_t r = 0; r < dim; ++r) theta[r] = mean[r] + within_sd * theta[r];

        // Scoring is deferred: the shard hands its thetas to the batched
        // responsibilities kernel a tile at a time, instead of K tiny
        // solves per device here.
        result.scored = true;
        result.defer_score = true;
        result.score_tag = mode;

        const UploadOutcome up = plan.upload_outcome(round, device);
        result.attempted_upload = true;
        result.upload_attempts = up.attempts;
        result.upload_retries = up.retries;
        result.upload_delivered = up.delivered;
        result.upload_garbled = up.garbled;
        result.extra_seconds = up.simulated_seconds;
        if (!up.delivered) {
            result.reason = DegradedReason::kUploadDropped;
        }
        // theta is always populated — the batch scorer needs it even when
        // the upload is dropped or garbled (the shard only batches it
        // upload-side when delivered && !garbled).
        result.theta = std::move(theta);
        return result;
    };

    const dp::BatchResponsibilities batch_prior(prior);
    const BatchScoreFn batch_score = [&](std::size_t /*round*/, const std::size_t* tags,
                                         const double* thetas, std::size_t count,
                                         std::size_t theta_dim, double* accuracy_out,
                                         util::Workspace& ws) {
        (void)theta_dim;
        batch_prior.score_match_into(thetas, count, tags, accuracy_out, ws);
    };

    const RoundEndFn round_end = [&](std::size_t round, CloudServer& /*server*/) {
        RoundEndDecision decision;
        decision.prior_components = num_modes;
        decision.payload_bytes = rebroadcast_bytes;
        // Deterministic cadence instead of a shard-order-sensitive FP
        // threshold, so the byte ledger is bit-identical across partitions.
        decision.rebroadcast = config.rebroadcast_every > 0 &&
                               (round + 1) % config.rebroadcast_every == 0;
        return decision;
    };

    ScaleFleetReport report;
    report.engine =
        run_fleet_engine(engine, device_root, plan, work, round_end, &batch_score, &churn);
    report.prior_components = num_modes;
    report.payload_bytes = payload_bytes;
    double accuracy_weighted = 0.0;
    std::size_t scored = 0;
    for (const EngineRoundStats& round : report.engine.rounds) {
        accuracy_weighted += round.mean_accuracy * static_cast<double>(round.devices_scored);
        scored += round.devices_scored;
    }
    if (scored > 0) report.mode_recovery_rate = accuracy_weighted / static_cast<double>(scored);
    return report;
}

}  // namespace drel::edgesim
