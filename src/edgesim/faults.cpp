#include "edgesim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace drel::edgesim {
namespace {

void check_probability(double p, const char* name) {
    if (!(p >= 0.0) || !(p <= 1.0)) {
        throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                    " must lie in [0, 1]");
    }
}

/// One memoized round link. It keeps the link's seed, not an Rng, so the
/// thread-local slots are zero-initialised without a constructor.
struct CellLink {
    std::uint64_t stream_seed;
    std::uint64_t purpose;
    std::uint64_t round;
    std::uint64_t link_seed;
    bool valid;
};

constexpr std::size_t kCellLinkSlots =
    static_cast<std::size_t>(CellLinkSlot::kChurnDecision) + 1;
thread_local CellLink cell_links[kCellLinkSlots];

}  // namespace

stats::Rng cell_stream(const stats::Rng& stream, CellLinkSlot slot, std::uint64_t purpose,
                       std::size_t round, std::size_t device) {
    CellLink& link = cell_links[static_cast<std::size_t>(slot)];
    if (!link.valid || link.stream_seed != stream.seed() || link.purpose != purpose ||
        link.round != round) {
        link = {stream.seed(), purpose, round, stream.fork(purpose).fork(round).seed(), true};
    }
    return stats::Rng(link.link_seed).fork(device);
}

bool FaultConfig::any() const noexcept {
    return crash_prob > 0.0 || straggler_prob > 0.0 || prior_corrupt_prob > 0.0 ||
           prior_stale_prob > 0.0 || link_outage_prob > 0.0 || upload_fail_prob > 0.0 ||
           upload_garble_prob > 0.0;
}

void FaultConfig::validate() const {
    check_probability(crash_prob, "crash_prob");
    check_probability(straggler_prob, "straggler_prob");
    check_probability(prior_corrupt_prob, "prior_corrupt_prob");
    check_probability(prior_stale_prob, "prior_stale_prob");
    check_probability(link_outage_prob, "link_outage_prob");
    check_probability(upload_fail_prob, "upload_fail_prob");
    check_probability(upload_garble_prob, "upload_garble_prob");
    if (max_upload_attempts < 1) {
        throw std::invalid_argument("FaultConfig: max_upload_attempts must be >= 1");
    }
    if (!(upload_backoff_base_seconds >= 0.0)) {
        throw std::invalid_argument("FaultConfig: upload_backoff_base_seconds must be >= 0");
    }
    if (!(upload_backoff_jitter >= 0.0) || !(upload_backoff_jitter <= 1.0)) {
        throw std::invalid_argument("FaultConfig: upload_backoff_jitter must lie in [0, 1]");
    }
    if (!(round_deadline_seconds >= 0.0)) {
        throw std::invalid_argument("FaultConfig: round_deadline_seconds must be >= 0");
    }
}

FaultConfig FaultConfig::uniform(double rate) {
    const double p = std::clamp(rate, 0.0, 1.0);
    FaultConfig config;
    config.crash_prob = p;
    config.straggler_prob = p;
    config.prior_corrupt_prob = p;
    config.prior_stale_prob = p;
    config.link_outage_prob = p;
    config.upload_fail_prob = p;
    config.upload_garble_prob = p;
    return config;
}

FaultPlan::FaultPlan(const FaultConfig& config, const stats::Rng& base)
    : config_(config),
      // The plan's stream is doubly removed from the simulation's forks:
      // a dedicated tag keeps fault draws off the data/training streams so
      // enabling faults never perturbs the healthy path's RNG sequence.
      stream_(base.fork(0x0FA0'17ED'0000'0001ull + config.seed)),
      active_(config.any()) {
    config_.validate();
}

DeviceFaultDecision FaultPlan::device_faults(std::size_t round, std::size_t device) const {
    DeviceFaultDecision decision;
    if (!active_) return decision;
    stats::Rng rng =
        cell_stream(stream_, CellLinkSlot::kFaultDecision, /*purpose=*/1, round, device);
    // One unconditional uniform per fault slot, in a fixed order: the draw
    // for each slot is a pure function of the cell, so raising one
    // probability only ever ADDS faults (monotone chaos sweeps) and never
    // re-rolls another slot's decision.
    const double u_crash = rng.uniform();
    const double u_straggler = rng.uniform();
    const double u_corrupt = rng.uniform();
    const double u_stale = rng.uniform();
    const double u_outage = rng.uniform();
    decision.corrupt_position = rng.uniform();
    decision.crash = u_crash < config_.crash_prob;
    decision.straggler = u_straggler < config_.straggler_prob;
    decision.prior_corrupt = u_corrupt < config_.prior_corrupt_prob;
    decision.prior_stale = u_stale < config_.prior_stale_prob;
    decision.link_outage = u_outage < config_.link_outage_prob;
    return decision;
}

UploadOutcome FaultPlan::upload_outcome(std::size_t round, std::size_t device) const {
    UploadOutcome outcome;
    if (!active_) {
        outcome.delivered = true;
        outcome.attempts = 1;
        return outcome;
    }
    stats::Rng rng =
        cell_stream(stream_, CellLinkSlot::kFaultUpload, /*purpose=*/2, round, device);
    for (int attempt = 1; attempt <= config_.max_upload_attempts; ++attempt) {
        outcome.attempts = attempt;
        if (rng.uniform() >= config_.upload_fail_prob) {
            outcome.delivered = true;
            break;
        }
        if (attempt == config_.max_upload_attempts) break;
        // Exponential backoff with +-jitter, in simulated seconds. Running
        // past the round deadline means the upload is skipped — degraded,
        // never fatal.
        // base * 2^(attempt - 1), defined at any attempt count: a shift of
        // 1ull is undefined from attempt 65 on.
        double backoff = std::ldexp(config_.upload_backoff_base_seconds, attempt - 1);
        backoff *= 1.0 + config_.upload_backoff_jitter * (2.0 * rng.uniform() - 1.0);
        outcome.simulated_seconds += backoff;
        if (outcome.simulated_seconds > config_.round_deadline_seconds) break;
    }
    outcome.retries = outcome.attempts - 1;
    if (outcome.delivered) {
        outcome.garbled = rng.uniform() < config_.upload_garble_prob;
    }
    return outcome;
}

std::vector<std::uint8_t> FaultPlan::corrupt_payload(
    const std::vector<std::uint8_t>& payload, const DeviceFaultDecision& decision) const {
    std::vector<std::uint8_t> garbled = payload;
    if (garbled.empty()) return garbled;
    // Damage the magic so the strict decoder (transfer.hpp) always rejects
    // the install — the degradation path must be deterministic, not "maybe
    // the flipped mantissa bit still decodes".
    garbled[0] ^= 0xFFu;
    const auto body = static_cast<std::size_t>(decision.corrupt_position *
                                               static_cast<double>(garbled.size()));
    garbled[std::min(body, garbled.size() - 1)] ^= 0x55u;
    return garbled;
}

void record_injected_faults(const DeviceFaultDecision& decision) {
    static obs::Counter& crash = obs::Registry::global().counter("fault.injected.crash");
    static obs::Counter& straggler =
        obs::Registry::global().counter("fault.injected.straggler");
    static obs::Counter& corrupt =
        obs::Registry::global().counter("fault.injected.prior_corrupt");
    static obs::Counter& stale = obs::Registry::global().counter("fault.injected.prior_stale");
    static obs::Counter& outage =
        obs::Registry::global().counter("fault.injected.link_outage");
    if (decision.crash) crash.add(1);
    if (decision.straggler) straggler.add(1);
    if (decision.prior_corrupt) corrupt.add(1);
    if (decision.prior_stale) stale.add(1);
    if (decision.link_outage) outage.add(1);
}

void record_degradation(DegradedReason reason, std::uint64_t count) {
    if (count == 0) return;
    switch (reason) {
        case DegradedReason::kNone:
            return;
        case DegradedReason::kCrashed: {
            static obs::Counter& c = obs::Registry::global().counter("fault.degraded.crashed");
            c.add(count);
            return;
        }
        case DegradedReason::kStraggler: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.straggler");
            c.add(count);
            return;
        }
        case DegradedReason::kFallbackLocalErm: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.fallback_local_erm");
            c.add(count);
            return;
        }
        case DegradedReason::kStalePrior: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.stale_prior");
            c.add(count);
            return;
        }
        case DegradedReason::kUploadDropped: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.upload_dropped");
            c.add(count);
            return;
        }
        case DegradedReason::kNonFinite: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.non_finite");
            c.add(count);
            return;
        }
        case DegradedReason::kBackpressure: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.backpressure");
            c.add(count);
            return;
        }
        case DegradedReason::kRejoinStalePrior: {
            static obs::Counter& c =
                obs::Registry::global().counter("fault.degraded.rejoin_stale_prior");
            c.add(count);
            return;
        }
    }
}

}  // namespace drel::edgesim
