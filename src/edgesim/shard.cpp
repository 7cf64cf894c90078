#include "edgesim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dp/batch_responsibilities.hpp"
#include "obs/profiler.hpp"

namespace drel::edgesim {

stats::Rng device_stream(const stats::Rng& device_root, std::size_t round,
                         std::size_t device, DeviceStream purpose) {
    return device_root.fork(round).fork(device).fork(static_cast<std::uint64_t>(purpose));
}

std::vector<ShardLayout> make_shard_layouts(std::size_t devices, std::size_t num_shards) {
    if (num_shards == 0) num_shards = 1;
    std::vector<ShardLayout> layouts(num_shards);
    const std::size_t base = devices / num_shards;
    const std::size_t extra = devices % num_shards;
    std::size_t begin = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t size = base + (s < extra ? 1 : 0);
        layouts[s].index = s;
        layouts[s].begin = begin;
        layouts[s].end = begin + size;
        begin += size;
    }
    return layouts;
}

void UploadStats::add(const linalg::Vector& theta) {
    if (count == 0 && sum.empty()) {
        sum.assign(theta.size(), 0.0);
        sum_sq.assign(theta.size(), 0.0);
    }
    if (theta.size() != sum.size()) {
        throw std::invalid_argument("UploadStats::add: dimension mismatch");
    }
    for (std::size_t i = 0; i < theta.size(); ++i) {
        sum[i] += theta[i];
        sum_sq[i] += theta[i] * theta[i];
    }
    ++count;
}

std::size_t UploadStats::encoded_bytes() const noexcept {
    // count (u64) + two double vectors; an empty batch still ships the count.
    return sizeof(std::uint64_t) + 2 * sum.size() * sizeof(double);
}

void RoundSoA::resize(std::size_t devices) {
    accuracy.resize(devices);
    latency_seconds.resize(devices);
    degraded.resize(devices);
    scored.resize(devices);
    novel.resize(devices);
    stale_prior.resize(devices);
    upload_attempts.resize(devices);
    upload_delivered.resize(devices);
    upload_garbled.resize(devices);
    upload_retries.resize(devices);
    reset(0, devices);
}

void RoundSoA::reset(std::size_t begin, std::size_t end) {
    const auto clear = [&](auto& column, auto value) {
        std::fill(column.begin() + static_cast<std::ptrdiff_t>(begin),
                  column.begin() + static_cast<std::ptrdiff_t>(end), value);
    };
    clear(accuracy, 0.0);
    clear(latency_seconds, 0.0);
    clear(degraded, DegradedReason::kNone);
    clear(scored, std::uint8_t{0});
    clear(novel, std::uint8_t{0});
    clear(stale_prior, std::uint8_t{0});
    clear(upload_attempts, std::uint16_t{0});
    clear(upload_delivered, std::uint8_t{0});
    clear(upload_garbled, std::uint8_t{0});
    clear(upload_retries, std::uint32_t{0});
}

Shard::Shard(ShardLayout layout, std::size_t theta_dim)
    : layout_(layout),
      theta_dim_(theta_dim),
      workspace_(std::make_unique<util::Workspace>()) {}

ShardRoundOutput Shard::run_round(std::size_t round, const stats::Rng& device_root,
                                  const FaultPlan& plan, const DeviceWork& work,
                                  RoundSoA& soa, double deadline_seconds,
                                  bool keep_thetas, const BatchScoreFn* batch_score,
                                  const std::uint8_t* participating) {
    DREL_PROFILE_SCOPE("engine.shard_round");
    if (layout_.end > soa.size()) {
        throw std::invalid_argument("Shard::run_round: SoA smaller than shard range");
    }
    ShardRoundOutput out;
    out.batch.round = static_cast<std::uint32_t>(round);
    out.batch.shard = static_cast<std::uint32_t>(layout_.index);
    defer_devices_.clear();
    defer_tags_.clear();
    defer_thetas_.clear();
    constexpr std::size_t kTile = dp::BatchResponsibilities::kTileDevices;
    if (batch_score != nullptr) {
        defer_devices_.reserve(kTile);
        defer_tags_.reserve(kTile);
        defer_thetas_.reserve(kTile * theta_dim_);
        defer_accuracy_.reserve(kTile);
    }

    // device_stream(device_root, round, j, purpose), split at its links:
    // the round link is forked once per shard-round and the device link
    // once per device that draws, and both purposes hang off that same
    // device link.
    const stats::Rng round_link = device_root.fork(round);

    for (std::size_t j = layout_.begin; j < layout_.end; ++j) {
        // Non-member slot (Unknown/Joining/Dead): skip without renumbering.
        // The SoA row keeps its freshly-reset defaults, and no stream is
        // touched — a skipped device's RNG cells stay byte-identical for
        // the round it rejoins.
        if (participating != nullptr && participating[j] == 0) continue;
        const DeviceFaultDecision faults = plan.device_faults(round, j);
        if (plan.active()) record_injected_faults(faults);

        DeviceResult result;
        // The completing path must stay the fall-through: placed behind a
        // jump, it cost scale_100k about 9 % CPU per device-round on a
        // 4-core Xeon. Its latency is a bounded healthy draw plus whatever
        // simulated time the work accrued (upload backoff).
        double latency = deadline_seconds;
        if (!faults.crash && !faults.straggler) [[likely]] {
            const stats::Rng device_link = round_link.fork(j);
            stats::Rng work_rng =
                device_link.fork(static_cast<std::uint64_t>(DeviceStream::kWork));
            result = work(round, j, work_rng, *workspace_);
            stats::Rng lat_rng =
                device_link.fork(static_cast<std::uint64_t>(DeviceStream::kLatency));
            latency = std::min(
                deadline_seconds * (0.05 + 0.20 * lat_rng.uniform()) + result.extra_seconds,
                deadline_seconds);
            out.completion_seconds = std::max(out.completion_seconds, latency);
        } else if (faults.crash) {
            // Died mid-round: no work, no stream, no draw. Pinned AT the
            // deadline for the percentile arrays.
            result.reason = DegradedReason::kCrashed;
        } else {
            // Finished past the deadline; the late result is discarded, so
            // the work never runs. Its latency stream keeps the healthy
            // draw first and lands past the deadline on the second.
            result.reason = DegradedReason::kStraggler;
            stats::Rng lat_rng = round_link.fork(j).fork(
                static_cast<std::uint64_t>(DeviceStream::kLatency));
            (void)lat_rng.uniform();
            latency = deadline_seconds * (1.5 + 0.5 * lat_rng.uniform());
        }

        // Collect deferred thetas BEFORE the upload block may move the
        // vector into the batch. Accuracy for these devices is written when
        // their tile is scored; the placeholder keeps the slot defined.
        const bool deferred = result.defer_score && batch_score != nullptr;
        if (deferred) {
            if (result.theta.size() != theta_dim_) {
                throw std::invalid_argument(
                    "Shard::run_round: defer_score without a populated theta");
            }
            defer_devices_.push_back(j);
            defer_tags_.push_back(result.score_tag);
            defer_thetas_.insert(defer_thetas_.end(), result.theta.begin(),
                                 result.theta.end());
        }

        soa.accuracy[j] = result.accuracy;
        soa.latency_seconds[j] = latency;
        soa.degraded[j] = result.reason;
        soa.scored[j] = result.scored ? 1 : 0;
        soa.novel[j] = result.novel ? 1 : 0;
        soa.stale_prior[j] = result.stale_prior ? 1 : 0;
        soa.upload_attempts[j] = static_cast<std::uint16_t>(
            std::min<int>(result.upload_attempts, 0xFFFF));
        soa.upload_delivered[j] = result.upload_delivered ? 1 : 0;
        soa.upload_garbled[j] = result.upload_garbled ? 1 : 0;
        soa.upload_retries[j] = static_cast<std::uint32_t>(std::max(0, result.upload_retries));

        if (result.attempted_upload && result.upload_delivered && !result.upload_garbled) {
            out.batch.stats.add(result.theta);
            out.batch.devices.push_back(j);
            if (keep_thetas) out.batch.thetas.emplace_back(j, std::move(result.theta));
        }
        // A theta the batch did not keep goes back to the arena, so a work
        // callback that takes its theta from it allocates nothing.
        workspace_->give(std::move(result.theta));
        // A full tile is scored while its thetas are still in cache. Every
        // device is scored on its own theta, so where the tiles break never
        // moves a bit.
        if (deferred && defer_devices_.size() == kTile) {
            score_deferred(round, *batch_score, soa);
        }
    }
    if (!defer_devices_.empty()) score_deferred(round, *batch_score, soa);

    out.batch.on_air_bytes = out.batch.stats.count == 0
                                 ? 0
                                 : out.batch.stats.encoded_bytes() +
                                       (keep_thetas ? out.batch.stats.count * theta_dim_ *
                                                          sizeof(double)
                                                    : 0);
    return out;
}

void Shard::score_deferred(std::size_t round, const BatchScoreFn& batch_score, RoundSoA& soa) {
    DREL_PROFILE_SCOPE("engine.shard_batch_score");
    defer_accuracy_.assign(defer_devices_.size(), 0.0);
    batch_score(round, defer_tags_.data(), defer_thetas_.data(), defer_devices_.size(),
                theta_dim_, defer_accuracy_.data(), *workspace_);
    for (std::size_t i = 0; i < defer_devices_.size(); ++i) {
        soa.accuracy[defer_devices_[i]] = defer_accuracy_[i];
    }
    defer_devices_.clear();
    defer_tags_.clear();
    defer_thetas_.clear();
}

}  // namespace drel::edgesim
