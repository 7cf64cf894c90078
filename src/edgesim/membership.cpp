#include "edgesim/membership.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "edgesim/faults.hpp"
#include "edgesim/shard.hpp"
#include "util/executor.hpp"

namespace drel::edgesim {
namespace {

void check_probability(double p, const char* name) {
    if (!(p >= 0.0) || !(p <= 1.0)) {
        throw std::invalid_argument(std::string("ChurnConfig: ") + name +
                                    " must lie in [0, 1]");
    }
}

}  // namespace

bool ChurnConfig::any() const noexcept {
    return join_prob > 0.0 || leave_prob > 0.0 || heartbeat_loss_prob > 0.0 ||
           rejoin_prob > 0.0;
}

void ChurnConfig::validate() const {
    check_probability(join_prob, "join_prob");
    check_probability(leave_prob, "leave_prob");
    check_probability(heartbeat_loss_prob, "heartbeat_loss_prob");
    check_probability(rejoin_prob, "rejoin_prob");
}

ChurnConfig ChurnConfig::uniform(double rate) {
    const double p = std::clamp(rate, 0.0, 1.0);
    ChurnConfig config;
    config.join_prob = p;
    config.leave_prob = p;
    config.heartbeat_loss_prob = p;
    config.rejoin_prob = p;
    return config;
}

ChurnPlan::ChurnPlan(const ChurnConfig& config, const stats::Rng& base)
    : config_(config),
      // Dedicated tag, distinct from FaultPlan's: churn and fault draws
      // live on unrelated streams, so enabling one never perturbs the
      // other (or the healthy data/training streams).
      stream_(base.fork(0x0C8A'17ED'0000'0002ull + config.seed)),
      active_(config.any()) {
    config_.validate();
}

DeviceChurnDecision ChurnPlan::device_churn(std::size_t round, std::size_t device) const {
    DeviceChurnDecision decision;
    if (!active_) return decision;
    stats::Rng rng =
        cell_stream(stream_, CellLinkSlot::kChurnDecision, /*purpose=*/1, round, device);
    // One unconditional uniform per churn slot, in a fixed order — the
    // FaultPlan::device_faults contract: each slot's draw is a pure
    // function of the cell, so raising one probability only ever ADDS
    // churn events and never re-rolls another slot's decision.
    const double u_join = rng.uniform();
    const double u_leave = rng.uniform();
    const double u_heartbeat = rng.uniform();
    const double u_rejoin = rng.uniform();
    decision.join = u_join < config_.join_prob;
    decision.leave = u_leave < config_.leave_prob;
    decision.heartbeat_lost = u_heartbeat < config_.heartbeat_loss_prob;
    decision.rejoin = u_rejoin < config_.rejoin_prob;
    return decision;
}

MembershipCounts& MembershipCounts::operator+=(const MembershipCounts& other) noexcept {
    alive += other.alive;
    suspect += other.suspect;
    dead += other.dead;
    joining += other.joining;
    unknown += other.unknown;
    joins += other.joins;
    rejoins += other.rejoins;
    leaves += other.leaves;
    heartbeats_missed += other.heartbeats_missed;
    deaths += other.deaths;
    recoveries += other.recoveries;
    rejoins_stale += other.rejoins_stale;
    return *this;
}

bool MembershipConfig::enabled(std::size_t capacity) const noexcept {
    return churn.any() || (initial_members > 0 && initial_members < capacity);
}

std::size_t MembershipConfig::effective_initial_members(std::size_t capacity) const noexcept {
    if (initial_members == 0) return capacity;
    return std::min(initial_members, capacity);
}

void MembershipConfig::validate(std::size_t capacity, double round_seconds) const {
    churn.validate();
    if (!enabled(capacity)) return;
    validate_timing(round_seconds);
}

void MembershipConfig::validate_timing(double round_seconds) const {
    if (suspect_rounds_to_dead < 1) {
        throw std::invalid_argument("MembershipConfig: suspect_rounds_to_dead must be >= 1");
    }
    if (!std::isfinite(join_seconds) || !std::isfinite(heartbeat_seconds)) {
        throw std::invalid_argument("MembershipConfig: event offsets must be finite");
    }
    if (!(join_seconds >= 0.0) || !(heartbeat_seconds >= join_seconds) ||
        !(heartbeat_seconds <= round_seconds)) {
        throw std::invalid_argument(
            "MembershipConfig: need 0 <= join_seconds <= heartbeat_seconds <= round_seconds");
    }
}

MembershipTable::MembershipTable(std::size_t capacity, std::size_t initial_members,
                                 std::size_t suspect_rounds_to_dead)
    : records_(capacity),
      participation_(capacity, 0),
      suspect_rounds_to_dead_(suspect_rounds_to_dead) {
    const std::size_t members = std::min(initial_members, capacity);
    for (std::size_t j = 0; j < members; ++j) {
        records_[j].state = LivenessState::kAlive;
        records_[j].prior_version = version_;  // the bootstrap broadcast
    }
}

void MembershipTable::begin_round() {
    events_ = MembershipCounts{};
    for (std::size_t j = 0; j < records_.size(); ++j) {
        Record& rec = records_[j];
        rec.resumed_stale = false;
        if (rec.state == LivenessState::kJoining) {
            rec.state = LivenessState::kAlive;
            rec.missed_heartbeats = 0;
            // Promotion hands the device the latest prior. A rejoiner that
            // provably missed a broadcast while Dead resumes on a stale
            // model this round — flagged, not failed.
            if (rec.joining_from_dead && rec.prior_version < version_) {
                rec.resumed_stale = true;
                ++events_.rejoins_stale;
            }
            rec.prior_version = version_;
            rec.joining_from_dead = false;
        }
        participation_[j] = (rec.state == LivenessState::kAlive ||
                             rec.state == LivenessState::kSuspect)
                                ? std::uint8_t{1}
                                : std::uint8_t{0};
    }
}

void MembershipTable::apply_join(std::size_t device) {
    Record& rec = records_.at(device);
    if (rec.state != LivenessState::kUnknown) return;
    rec.state = LivenessState::kJoining;
    rec.joining_from_dead = false;
    ++events_.joins;
}

void MembershipTable::apply_rejoin(std::size_t device) {
    Record& rec = records_.at(device);
    if (rec.state != LivenessState::kDead) return;
    rec.state = LivenessState::kJoining;
    rec.joining_from_dead = true;
    ++events_.rejoins;
}

void MembershipTable::heartbeat_deadline(std::size_t round, const ChurnPlan& plan,
                                         std::size_t num_threads) {
    const std::vector<ShardLayout> slices = make_shard_layouts(records_.size(), num_threads);
    std::vector<MembershipCounts> tallies(slices.size());
    util::parallel_for(slices.size(), num_threads, [&](std::size_t s) {
        tallies[s] = fold_heartbeats(round, plan, slices[s].begin, slices[s].end);
    });
    for (const MembershipCounts& tally : tallies) events_ += tally;
}

MembershipCounts MembershipTable::fold_heartbeats(std::size_t round, const ChurnPlan& plan,
                                                  std::size_t begin, std::size_t end) {
    MembershipCounts events;
    for (std::size_t j = begin; j < end; ++j) {
        Record& rec = records_[j];
        if (rec.state != LivenessState::kAlive && rec.state != LivenessState::kSuspect) {
            continue;
        }
        const DeviceChurnDecision decision = plan.device_churn(round, j);
        if (decision.leave) {
            rec.state = LivenessState::kDead;
            rec.missed_heartbeats = 0;
            ++events.leaves;
            ++events.deaths;
            continue;
        }
        if (decision.heartbeat_lost) {
            rec.state = LivenessState::kSuspect;
            ++rec.missed_heartbeats;
            ++events.heartbeats_missed;
            if (rec.missed_heartbeats >= suspect_rounds_to_dead_) {
                rec.state = LivenessState::kDead;
                rec.missed_heartbeats = 0;
                ++events.deaths;
            }
            continue;
        }
        if (rec.state == LivenessState::kSuspect) {
            // Heartbeat received: recover, and let the heartbeat response
            // carry the current prior — a Suspect spell never surfaces as
            // staleness, only a Dead one can.
            rec.state = LivenessState::kAlive;
            rec.missed_heartbeats = 0;
            rec.prior_version = version_;
            ++events.recoveries;
        }
    }
    return events;
}

void MembershipTable::record_broadcast() {
    ++version_;
    for (Record& rec : records_) {
        if (rec.state == LivenessState::kAlive) rec.prior_version = version_;
    }
}

std::size_t MembershipTable::alive_count() const noexcept {
    std::size_t alive = 0;
    for (const Record& rec : records_) {
        if (rec.state == LivenessState::kAlive) ++alive;
    }
    return alive;
}

MembershipCounts MembershipTable::counts() const {
    MembershipCounts out = events_;
    for (const Record& rec : records_) {
        switch (rec.state) {
            case LivenessState::kAlive: ++out.alive; break;
            case LivenessState::kSuspect: ++out.suspect; break;
            case LivenessState::kDead: ++out.dead; break;
            case LivenessState::kJoining: ++out.joining; break;
            case LivenessState::kUnknown: ++out.unknown; break;
        }
    }
    return out;
}

}  // namespace drel::edgesim
