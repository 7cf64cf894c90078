// Liveness & churn suite for the membership layer (edgesim/membership.hpp)
// and its integration into the event-driven fleet engine.
//
// The contract under test: churn decisions are pure functions of
// (plan seed, round, device) and monotone in the rate; the membership state
// machine only ever takes legal transitions; Dead slots are SKIPPED without
// renumbering; a rejoining device RESUMES — scored, with a stale-prior
// DegradedReason — rather than erroring; and a churn run's telemetry is
// bit-identical at any thread or shard count. A zero-churn plan must leave
// the engine's reports byte-identical to a run with no plan at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "edgesim/faults.hpp"
#include "edgesim/membership.hpp"
#include "edgesim/scheduler.hpp"
#include "edgesim/server.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

using test_support::bits_equal;

// ------------------------------------------------------------ config layer

TEST(LivenessNames, AreStableLowercase) {
    // The membership event kinds keep stable names: the flight recorder
    // serializes them.
    EXPECT_STREQ(to_string(EventKind::kHeartbeatDeadline), "heartbeat_deadline");
    EXPECT_STREQ(to_string(EventKind::kDeviceJoin), "device_join");
    EXPECT_STREQ(to_string(EventKind::kDeviceRejoin), "device_rejoin");
}

TEST(ChurnConfigTest, ValidationRejectsNonProbabilities) {
    ChurnConfig config;
    EXPECT_NO_THROW(config.validate());
    EXPECT_FALSE(config.any());

    config.join_prob = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = ChurnConfig{};
    config.leave_prob = -0.1;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = ChurnConfig{};
    config.heartbeat_loss_prob = 2.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = ChurnConfig{};
    config.rejoin_prob = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ChurnConfigTest, UniformClampsAndSetsEveryRate) {
    const ChurnConfig config = ChurnConfig::uniform(1.7);
    EXPECT_EQ(config.join_prob, 1.0);
    EXPECT_EQ(config.leave_prob, 1.0);
    EXPECT_EQ(config.heartbeat_loss_prob, 1.0);
    EXPECT_EQ(config.rejoin_prob, 1.0);
    EXPECT_TRUE(config.any());
    EXPECT_FALSE(ChurnConfig::uniform(-0.5).any());
}

TEST(MembershipConfigTest, EnabledAndEffectiveMembers) {
    MembershipConfig config;
    EXPECT_FALSE(config.enabled(40));
    EXPECT_EQ(config.effective_initial_members(40), 40u);

    config.initial_members = 30;
    EXPECT_TRUE(config.enabled(40));        // reserved tail
    EXPECT_FALSE(config.enabled(30));       // tail is empty: nothing to join
    EXPECT_EQ(config.effective_initial_members(40), 30u);
    EXPECT_EQ(config.effective_initial_members(20), 20u);  // clamped

    config = MembershipConfig{};
    config.churn = ChurnConfig::uniform(0.1);
    EXPECT_TRUE(config.enabled(40));
}

TEST(MembershipConfigTest, TimingValidationRejectsBadOffsets) {
    MembershipConfig config;
    EXPECT_NO_THROW(config.validate_timing(60.0));
    config.suspect_rounds_to_dead = 0;
    EXPECT_THROW(config.validate_timing(60.0), std::invalid_argument);
    config = MembershipConfig{};
    config.heartbeat_seconds = 61.0;  // past the round boundary
    EXPECT_THROW(config.validate_timing(60.0), std::invalid_argument);
    config = MembershipConfig{};
    config.join_seconds = 50.0;  // after the heartbeat deadline
    EXPECT_THROW(config.validate_timing(60.0), std::invalid_argument);
    // A DISABLED config never constrains the round length...
    config = MembershipConfig{};
    config.heartbeat_seconds = 1e6;
    EXPECT_NO_THROW(config.validate(40, 60.0));
    // ...but enabling churn makes the same offsets fatal.
    config.churn = ChurnConfig::uniform(0.1);
    EXPECT_THROW(config.validate(40, 60.0), std::invalid_argument);
}

// ------------------------------------------------------------- churn plan

TEST(ChurnPlanTest, InactiveByDefaultAndWhenAllRatesZero) {
    const ChurnPlan inactive;
    EXPECT_FALSE(inactive.active());
    const DeviceChurnDecision d = inactive.device_churn(3, 7);
    EXPECT_FALSE(d.join || d.leave || d.heartbeat_lost || d.rejoin);

    stats::Rng rng(5);
    const ChurnPlan zeros(ChurnConfig{}, rng);
    EXPECT_FALSE(zeros.active());
    const DeviceChurnDecision z = zeros.device_churn(0, 0);
    EXPECT_FALSE(z.join || z.leave || z.heartbeat_lost || z.rejoin);
}

TEST(ChurnPlanTest, DecisionsArePureFunctionsOfTheCell) {
    stats::Rng rng(11);
    const ChurnPlan plan(ChurnConfig::uniform(0.4), rng);
    const ChurnPlan twin(ChurnConfig::uniform(0.4), rng);

    // Any query order, any repetition: the same cell always answers the same.
    const DeviceChurnDecision first = plan.device_churn(2, 5);
    (void)plan.device_churn(9, 0);
    (void)plan.device_churn(0, 63);
    const DeviceChurnDecision again = plan.device_churn(2, 5);
    EXPECT_EQ(first.join, again.join);
    EXPECT_EQ(first.leave, again.leave);
    EXPECT_EQ(first.heartbeat_lost, again.heartbeat_lost);
    EXPECT_EQ(first.rejoin, again.rejoin);

    // A twin plan built from the same base stream agrees everywhere...
    for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t device = 0; device < 32; ++device) {
            const DeviceChurnDecision a = plan.device_churn(round, device);
            const DeviceChurnDecision b = twin.device_churn(round, device);
            EXPECT_EQ(a.join, b.join);
            EXPECT_EQ(a.leave, b.leave);
            EXPECT_EQ(a.heartbeat_lost, b.heartbeat_lost);
            EXPECT_EQ(a.rejoin, b.rejoin);
        }
    }

    // ...while a different plan seed draws a different pattern.
    ChurnConfig reseeded = ChurnConfig::uniform(0.4);
    reseeded.seed = 99;
    const ChurnPlan other(reseeded, rng);
    bool any_difference = false;
    for (std::size_t device = 0; device < 128 && !any_difference; ++device) {
        const DeviceChurnDecision a = plan.device_churn(0, device);
        const DeviceChurnDecision b = other.device_churn(0, device);
        any_difference = a.join != b.join || a.leave != b.leave ||
                         a.heartbeat_lost != b.heartbeat_lost || a.rejoin != b.rejoin;
    }
    EXPECT_TRUE(any_difference);
}

TEST(ChurnPlanTest, CellStreamsPinned) {
    // Bit digest of every churn decision over a rounds x devices grid. Each
    // cell asks two plans with different seeds, the rounds run in
    // descending order, and the plan asked first flips with the round, so
    // one plan meets itself at a different round across each round
    // boundary and the other plan's seed within each cell: a cache of the
    // (purpose, round) link keyed on less than (plan seed, purpose, round)
    // answers some cell from a wrong link. The grid runs serially, then
    // from four threads writing into indexed slots.
    constexpr std::size_t kRounds = 5;
    constexpr std::size_t kDevices = 48;
    constexpr std::size_t kCells = kRounds * kDevices;
    stats::Rng rng(2101);
    ChurnConfig config = ChurnConfig::uniform(0.3);
    const ChurnPlan first(config, rng);
    config.seed = 7;
    const ChurnPlan second(config, rng);

    // Cell c is round kRounds - 1 - c / kDevices, device c % kDevices; its
    // slots are [plan][join, leave, heartbeat_lost, rejoin].
    const auto query = [&](std::size_t cell, std::vector<double>& out) {
        const std::size_t round = kRounds - 1 - cell / kDevices;
        const std::size_t device = cell % kDevices;
        const bool flip = round % 2 == 1;
        for (std::size_t k = 0; k < 2; ++k) {
            const std::size_t p = flip ? 1 - k : k;
            const DeviceChurnDecision d =
                (p == 0 ? first : second).device_churn(round, device);
            double* slot = out.data() + (cell * 2 + p) * 4;
            slot[0] = d.join ? 1.0 : 0.0;
            slot[1] = d.leave ? 1.0 : 0.0;
            slot[2] = d.heartbeat_lost ? 1.0 : 0.0;
            slot[3] = d.rejoin ? 1.0 : 0.0;
        }
    };
    std::vector<double> serial(kCells * 8, 0.0);
    for (std::size_t cell = 0; cell < kCells; ++cell) query(cell, serial);
    std::vector<double> threaded(kCells * 8, 0.0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t cell = t; cell < kCells; cell += 4) query(cell, threaded);
        });
    }
    for (std::thread& worker : workers) worker.join();

    EXPECT_EQ(test_support::bits_digest(serial), "2ef752b85aa71d98");
    EXPECT_EQ(test_support::bits_digest(threaded), "2ef752b85aa71d98");
}

TEST(ChurnPlanTest, StreamIsIndependentOfTheFaultPlan) {
    // Churn and faults fork DIFFERENT tags off the same base: enabling one
    // must not change what the other draws. The twin-plan check above pins
    // the value; here we pin the independence.
    stats::Rng rng(17);
    const FaultPlan faults_alone(FaultConfig::uniform(0.3), rng);
    const ChurnPlan churn(ChurnConfig::uniform(0.3), rng);
    const FaultPlan faults_again(FaultConfig::uniform(0.3), rng);
    for (std::size_t device = 0; device < 16; ++device) {
        const DeviceFaultDecision a = faults_alone.device_faults(1, device);
        const DeviceFaultDecision b = faults_again.device_faults(1, device);
        EXPECT_EQ(a.crash, b.crash);
        EXPECT_EQ(a.straggler, b.straggler);
        EXPECT_EQ(a.link_outage, b.link_outage);
    }
    (void)churn;
}

// ------------------------------------------------------- state machine

/// Replays the engine's per-round query pattern against a table:
/// begin_round, then join/rejoin admissions in device order, then the
/// heartbeat deadline.
void drive_round(MembershipTable& table, std::size_t round, const ChurnPlan& plan,
                 std::size_t num_threads = 1) {
    table.begin_round();
    for (std::size_t j = 0; j < table.capacity(); ++j) {
        const LivenessState st = table.state(j);
        if (st == LivenessState::kUnknown) {
            if (plan.device_churn(round, j).join) table.apply_join(j);
        } else if (st == LivenessState::kDead) {
            if (plan.device_churn(round, j).rejoin) table.apply_rejoin(j);
        }
    }
    table.heartbeat_deadline(round, plan, num_threads);
}

TEST(MembershipTableTest, BootsInitialMembersAliveAndTailUnknown) {
    const MembershipTable table(10, 6, 2);
    EXPECT_EQ(table.capacity(), 10u);
    EXPECT_EQ(table.alive_count(), 6u);
    EXPECT_EQ(table.prior_version(), 1u);  // the bootstrap broadcast
    for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(table.state(j), LivenessState::kAlive);
    for (std::size_t j = 6; j < 10; ++j) {
        EXPECT_EQ(table.state(j), LivenessState::kUnknown);
    }
    const MembershipCounts counts = table.counts();
    EXPECT_EQ(counts.alive, 6u);
    EXPECT_EQ(counts.unknown, 4u);
    EXPECT_EQ(counts.churn_events(), 0u);
}

TEST(MembershipTableTest, LeaveKillsOutright) {
    stats::Rng rng(3);
    ChurnConfig config;
    config.leave_prob = 1.0;
    const ChurnPlan everyone_leaves(config, rng);

    MembershipTable table(8, 8, 2);
    table.begin_round();
    EXPECT_EQ(table.participation().size(), 8u);
    for (const std::uint8_t p : table.participation()) EXPECT_EQ(p, 1);
    table.heartbeat_deadline(0, everyone_leaves);

    EXPECT_EQ(table.alive_count(), 0u);
    const MembershipCounts counts = table.counts();
    EXPECT_EQ(counts.dead, 8u);
    EXPECT_EQ(counts.leaves, 8u);
    EXPECT_EQ(counts.deaths, 8u);
    EXPECT_EQ(counts.heartbeats_missed, 0u);
    // The participation snapshot is from the round START: the departed
    // devices still ran this round and are only skipped from the NEXT one.
    table.begin_round();
    for (const std::uint8_t p : table.participation()) EXPECT_EQ(p, 0);
}

TEST(MembershipTableTest, MissedHeartbeatsSuspectThenKill) {
    stats::Rng rng(3);
    ChurnConfig config;
    config.heartbeat_loss_prob = 1.0;
    const ChurnPlan silent(config, rng);

    MembershipTable table(4, 4, /*suspect_rounds_to_dead=*/3);
    // Round 0: first miss suspects, nobody dies.
    drive_round(table, 0, silent);
    MembershipCounts counts = table.counts();
    EXPECT_EQ(counts.suspect, 4u);
    EXPECT_EQ(counts.deaths, 0u);
    EXPECT_EQ(counts.heartbeats_missed, 4u);
    // Suspect devices still participate next round.
    drive_round(table, 1, silent);
    counts = table.counts();
    EXPECT_EQ(counts.suspect, 4u);
    EXPECT_EQ(counts.deaths, 0u);
    // Round 2: the third consecutive miss crosses the threshold.
    drive_round(table, 2, silent);
    counts = table.counts();
    EXPECT_EQ(counts.dead, 4u);
    EXPECT_EQ(counts.deaths, 4u);
    EXPECT_EQ(counts.heartbeats_missed, 4u);
}

TEST(MembershipTableTest, HeartbeatRecoveryResyncsThePrior) {
    stats::Rng rng(3);
    ChurnConfig config;
    config.heartbeat_loss_prob = 1.0;
    const ChurnPlan silent(config, rng);
    const ChurnPlan healthy;  // inactive: every heartbeat arrives

    MembershipTable table(4, 4, /*suspect_rounds_to_dead=*/3);
    drive_round(table, 0, silent);
    EXPECT_EQ(table.counts().suspect, 4u);
    // A broadcast goes out while the devices are Suspect: they miss it.
    table.record_broadcast();
    EXPECT_EQ(table.prior_version(), 2u);
    // The next heartbeat arrives: recovery, miss counter reset, prior
    // re-synced by the heartbeat response itself.
    drive_round(table, 1, healthy);
    const MembershipCounts counts = table.counts();
    EXPECT_EQ(counts.alive, 4u);
    EXPECT_EQ(counts.recoveries, 4u);
    // Because recovery re-synced the prior, the NEXT round must not flag
    // anyone stale — only a Dead spell can surface staleness.
    drive_round(table, 2, healthy);
    EXPECT_EQ(table.counts().rejoins_stale, 0u);
    // And the miss counter really did reset: three more silent rounds are
    // needed to kill, not one.
    drive_round(table, 3, silent);
    drive_round(table, 4, silent);
    EXPECT_EQ(table.counts().dead, 0u);
    drive_round(table, 5, silent);
    EXPECT_EQ(table.counts().dead, 4u);
}

TEST(MembershipTableTest, JoinAdmitsReservedTailAtNextRoundStart) {
    MembershipTable table(6, 4, 2);
    table.apply_join(4);
    table.apply_join(5);
    table.apply_join(0);  // Alive: no-op
    MembershipCounts counts = table.counts();
    EXPECT_EQ(counts.joining, 2u);
    EXPECT_EQ(counts.joins, 2u);
    EXPECT_EQ(table.state(4), LivenessState::kJoining);
    EXPECT_EQ(table.state(0), LivenessState::kAlive);
    // Joining slots do NOT participate until promoted.
    EXPECT_EQ(table.alive_count(), 4u);

    table.begin_round();
    EXPECT_EQ(table.alive_count(), 6u);
    // A fresh join never resumes stale — it had no prior to outdate.
    EXPECT_FALSE(table.resumed_stale(4));
    EXPECT_FALSE(table.resumed_stale(5));
    EXPECT_EQ(table.counts().rejoins_stale, 0u);
}

TEST(MembershipTableTest, RejoinAfterMissedBroadcastResumesStale) {
    stats::Rng rng(3);
    ChurnConfig config;
    config.leave_prob = 1.0;
    const ChurnPlan everyone_leaves(config, rng);

    MembershipTable table(2, 2, 2);
    drive_round(table, 0, everyone_leaves);
    ASSERT_EQ(table.counts().dead, 2u);
    // Device 0 rejoins BEFORE any new broadcast: nothing to be stale about.
    table.apply_rejoin(0);
    // A broadcast goes out while device 1 is still Dead...
    table.record_broadcast();
    table.apply_rejoin(1);
    table.begin_round();
    // Device 0 rejoined BEFORE the broadcast but is promoted AFTER it, so
    // its stored version-1 prior is outdated all the same: staleness is
    // judged at promotion time, not admission time. Both resume stale.
    EXPECT_TRUE(table.resumed_stale(0));
    EXPECT_TRUE(table.resumed_stale(1));
    const MembershipCounts counts = table.counts();
    EXPECT_EQ(counts.alive, 2u);
    EXPECT_EQ(counts.rejoins_stale, 2u);
    // Promotion handed both the latest prior: a second round is clean.
    table.begin_round();
    EXPECT_FALSE(table.resumed_stale(0));
    EXPECT_EQ(table.counts().rejoins_stale, 0u);
}

TEST(MembershipTableTest, RejoinWithoutMissedBroadcastIsNotStale) {
    stats::Rng rng(3);
    ChurnConfig config;
    config.leave_prob = 1.0;
    const ChurnPlan everyone_leaves(config, rng);

    MembershipTable table(1, 1, 2);
    drive_round(table, 0, everyone_leaves);
    ASSERT_EQ(table.state(0), LivenessState::kDead);
    table.apply_rejoin(0);
    table.begin_round();  // no broadcast happened while Dead
    EXPECT_EQ(table.state(0), LivenessState::kAlive);
    EXPECT_FALSE(table.resumed_stale(0));
    EXPECT_EQ(table.counts().rejoins, 0u);  // counters reset by begin_round
}

TEST(MembershipTableTest, OnlyLegalTransitionsUnderRandomChurn) {
    // Property check: drive the table through heavy mixed churn and verify
    // every per-device transition is an edge of the state diagram, and the
    // census always sums to capacity.
    stats::Rng rng(21);
    const ChurnPlan plan(ChurnConfig::uniform(0.35), rng);
    constexpr std::size_t kCapacity = 48;
    MembershipTable table(kCapacity, 32, 2);

    std::vector<LivenessState> prev(kCapacity);
    for (std::size_t j = 0; j < kCapacity; ++j) prev[j] = table.state(j);

    const auto legal = [](LivenessState from, LivenessState to) {
        if (from == to) return true;
        switch (from) {
            case LivenessState::kUnknown: return to == LivenessState::kJoining;
            case LivenessState::kJoining: return to == LivenessState::kAlive;
            case LivenessState::kAlive:
                return to == LivenessState::kSuspect || to == LivenessState::kDead;
            case LivenessState::kSuspect:
                return to == LivenessState::kAlive || to == LivenessState::kDead;
            case LivenessState::kDead: return to == LivenessState::kJoining;
        }
        return false;
    };

    std::size_t total_churn = 0;
    for (std::size_t round = 0; round < 24; ++round) {
        // Check after each PHASE of the round — promotion, admissions, and
        // the heartbeat fold each take only legal steps.
        table.begin_round();
        for (std::size_t j = 0; j < kCapacity; ++j) {
            ASSERT_TRUE(legal(prev[j], table.state(j)))
                << "round " << round << " device " << j << ": "
                << static_cast<int>(prev[j]) << " -> " << static_cast<int>(table.state(j));
            prev[j] = table.state(j);
        }
        for (std::size_t j = 0; j < kCapacity; ++j) {
            const LivenessState st = table.state(j);
            if (st == LivenessState::kUnknown) {
                if (plan.device_churn(round, j).join) table.apply_join(j);
            } else if (st == LivenessState::kDead) {
                if (plan.device_churn(round, j).rejoin) table.apply_rejoin(j);
            }
        }
        table.heartbeat_deadline(round, plan);
        const MembershipCounts counts = table.counts();
        EXPECT_EQ(counts.alive + counts.suspect + counts.dead + counts.joining +
                      counts.unknown,
                  kCapacity);
        for (std::size_t j = 0; j < kCapacity; ++j) {
            ASSERT_TRUE(legal(prev[j], table.state(j)))
                << "round " << round << " device " << j << ": "
                << static_cast<int>(prev[j]) << " -> " << static_cast<int>(table.state(j));
            prev[j] = table.state(j);
        }
        total_churn += counts.churn_events();
    }
    // At a 35% uniform rate over 24 rounds the run must actually churn.
    EXPECT_GT(total_churn, 100u);
}

TEST(MembershipTableTest, SliceFoldEqualsTheWholeRangeFold) {
    // The engine folds heartbeats one slice per thread on the executor. On
    // the same plan, every thread count must leave every record and every
    // event tally exactly where the single-slice fold leaves them.
    stats::Rng rng(23);
    const ChurnPlan plan(ChurnConfig::uniform(0.3), rng);
    constexpr std::size_t kCapacity = 101;
    for (const std::size_t threads : {2, 3, 7}) {
        MembershipTable whole(kCapacity, 80, 2);
        MembershipTable sliced(kCapacity, 80, 2);
        for (std::size_t round = 0; round < 12; ++round) {
            drive_round(whole, round, plan);
            drive_round(sliced, round, plan, threads);
            for (std::size_t j = 0; j < kCapacity; ++j) {
                ASSERT_EQ(whole.state(j), sliced.state(j))
                    << threads << " threads, round " << round << ", device " << j;
            }
            const MembershipCounts a = whole.counts();
            const MembershipCounts b = sliced.counts();
            EXPECT_EQ(a.alive, b.alive);
            EXPECT_EQ(a.suspect, b.suspect);
            EXPECT_EQ(a.dead, b.dead);
            EXPECT_EQ(a.leaves, b.leaves);
            EXPECT_EQ(a.heartbeats_missed, b.heartbeats_missed);
            EXPECT_EQ(a.deaths, b.deaths);
            EXPECT_EQ(a.recoveries, b.recoveries);
            EXPECT_EQ(a.joins, b.joins);
            EXPECT_EQ(a.rejoins, b.rejoins);
            EXPECT_EQ(a.rejoins_stale, b.rejoins_stale);
            EXPECT_EQ(whole.prior_version(), sliced.prior_version());
            if (round % 3 == 2) {
                whole.record_broadcast();
                sliced.record_broadcast();
            }
        }
    }
}

// --------------------------------------------------- engine integration

DeviceResult cheap_work(stats::Rng& work_rng, std::size_t theta_dim) {
    DeviceResult result;
    result.accuracy = work_rng.uniform();
    result.scored = true;
    result.attempted_upload = true;
    result.upload_attempts = 1;
    result.upload_delivered = true;
    result.theta = work_rng.standard_normal_vector(theta_dim);
    return result;
}

EngineConfig small_engine_config() {
    EngineConfig config;
    config.rounds = 5;
    config.devices_per_round = 40;
    config.theta_dim = 3;
    config.num_shards = 4;
    config.num_threads = 1;
    return config;
}

/// run_small_engine from test_engine.cpp, extended with an optional churn
/// plan built from the same root the fault plan forks off.
EngineReport run_churn_engine(EngineConfig config, const ChurnConfig& churn_config,
                              bool pass_plan = true) {
    const stats::Rng root(99);
    const stats::Rng device_root = root.fork(4);
    const FaultPlan plan(FaultConfig{}, root);
    const ChurnPlan churn(churn_config, root);
    const std::size_t dim = config.theta_dim;
    const DeviceWork work = [dim](std::size_t /*round*/, std::size_t /*device*/,
                                  stats::Rng& work_rng, util::Workspace& /*ws*/) {
        return cheap_work(work_rng, dim);
    };
    const RoundEndFn round_end = [](std::size_t /*round*/, CloudServer& server) {
        (void)server.take_serviced_thetas();
        RoundEndDecision decision;
        decision.rebroadcast = true;  // every round: maximal staleness signal
        decision.payload_bytes = 64;
        decision.prior_components = 2;
        return decision;
    };
    return run_fleet_engine(config, device_root, plan, work, round_end,
                            /*batch_score=*/nullptr, pass_plan ? &churn : nullptr);
}

/// The partition-independent byte surface: telemetry + default-SLO report.
std::string telemetry_fingerprint(const EngineReport& report) {
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    return report.telemetry.to_json(&slo, /*include_partition=*/false).dump(0);
}

TEST(MembershipEngine, ZeroChurnPlanIsAByteLevelNoOp) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    const EngineConfig config = small_engine_config();
    const EngineReport without = run_churn_engine(config, ChurnConfig{},
                                                  /*pass_plan=*/false);
    const EngineReport with = run_churn_engine(config, ChurnConfig{});
    // An inactive plan keeps membership OFF: no membership rows, no extra
    // SLO rules, and the whole telemetry surface byte-identical.
    EXPECT_EQ(with.telemetry.membership.num_rows(), 0u);
    EXPECT_EQ(telemetry_fingerprint(with), telemetry_fingerprint(without));
    EXPECT_EQ(with.total_broadcast_bytes, without.total_broadcast_bytes);
    EXPECT_EQ(with.total_upload_bytes, without.total_upload_bytes);
    EXPECT_TRUE(bits_equal(with.virtual_seconds, without.virtual_seconds));
    ASSERT_EQ(with.rounds.size(), without.rounds.size());
    for (std::size_t r = 0; r < with.rounds.size(); ++r) {
        EXPECT_TRUE(bits_equal(with.rounds[r].mean_accuracy,
                               without.rounds[r].mean_accuracy));
        EXPECT_EQ(with.rounds[r].devices_scored, without.rounds[r].devices_scored);
    }
    // The default SLO list stays historical: 4 rules, no membership pair.
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), with.telemetry);
    EXPECT_EQ(slo.rules.size(), 4u);
    for (const health::SloResult& rule : slo.rules) {
        EXPECT_NE(rule.name, "suspect_fraction");
        EXPECT_NE(rule.name, "mass_extinction_guard");
    }
}

TEST(MembershipEngine, ChurnRunIsBitIdenticalAcrossThreadAndShardCounts) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    const ChurnConfig churn = ChurnConfig::uniform(0.25);
    EngineConfig config = small_engine_config();
    config.membership.initial_members = 32;  // reserve a tail for joins
    const EngineReport baseline = run_churn_engine(config, churn);
    ASSERT_EQ(baseline.telemetry.membership.num_rows(), 5u);
    EXPECT_GT(baseline.telemetry.membership.column_max(
                  health::idx(health::MembershipCol::kChurnEvents)),
              0u);
    const std::string expected = telemetry_fingerprint(baseline);

    for (const std::size_t threads : {2u, 4u, 8u}) {
        EngineConfig variant = config;
        variant.num_threads = threads;
        EXPECT_EQ(telemetry_fingerprint(run_churn_engine(variant, churn)), expected)
            << "threads=" << threads;
    }
    for (const std::size_t shards : {1u, 3u, 8u, 40u}) {
        EngineConfig variant = config;
        variant.num_shards = shards;
        variant.num_threads = 2;
        EXPECT_EQ(telemetry_fingerprint(run_churn_engine(variant, churn)), expected)
            << "shards=" << shards;
    }
}

TEST(MembershipEngine, DeadSlotsAreSkippedWithoutRenumbering) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::MembershipCol;
    using health::idx;
    ChurnConfig churn;
    churn.leave_prob = 0.3;  // departures only: no suspects, no rejoins
    const EngineReport report = run_churn_engine(small_engine_config(), churn);
    const obs::RoundSeries& members = report.telemetry.membership;
    ASSERT_EQ(members.num_rows(), report.rounds.size());

    bool saw_skip = false;
    for (std::size_t r = 0; r < report.rounds.size(); ++r) {
        // The census partitions the fixed index space — no renumbering.
        EXPECT_EQ(members.at(r, idx(MembershipCol::kCapacity)), 40u);
        EXPECT_EQ(members.at(r, idx(MembershipCol::kAlive)) +
                      members.at(r, idx(MembershipCol::kSuspect)) +
                      members.at(r, idx(MembershipCol::kDead)) +
                      members.at(r, idx(MembershipCol::kJoining)) +
                      members.at(r, idx(MembershipCol::kUnknown)),
                  40u);
        // Fault-free run: exactly the participating slots score; a Dead
        // slot is unscored but NOT a failure.
        const std::uint64_t participating =
            members.at(r, idx(MembershipCol::kParticipating));
        EXPECT_EQ(report.rounds[r].devices_scored, participating);
        if (participating < 40u) saw_skip = true;
        for (const DegradedReason reason : report.rounds[r].device_degraded) {
            EXPECT_EQ(reason, DegradedReason::kNone);
        }
    }
    EXPECT_TRUE(saw_skip) << "churn never removed a device; rate too low?";
    // Departures shrink the broadcast audience: the last rebroadcast must
    // charge fewer bytes than a full-fleet push.
    EXPECT_LT(report.rounds[report.rounds.size() - 2].broadcast_bytes, 64u * 40u);
}

TEST(MembershipEngine, RejoinResumesScoredWithStalePriorReason) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::MembershipCol;
    using health::idx;
    ChurnConfig churn;
    churn.leave_prob = 0.5;
    churn.rejoin_prob = 0.9;
    EngineConfig config = small_engine_config();
    config.rounds = 6;
    const EngineReport report = run_churn_engine(config, churn);
    const obs::RoundSeries& members = report.telemetry.membership;
    ASSERT_EQ(members.num_rows(), 6u);

    // The round_end policy rebroadcasts every round, so any device that
    // dies and later rejoins provably missed a prior push.
    std::uint64_t series_stale = 0;
    std::size_t flagged = 0;
    std::size_t flagged_and_scored_rounds = 0;
    for (std::size_t r = 0; r < report.rounds.size(); ++r) {
        series_stale += members.at(r, idx(MembershipCol::kRejoinsStale));
        std::size_t in_round = 0;
        for (const DegradedReason reason : report.rounds[r].device_degraded) {
            if (reason == DegradedReason::kRejoinStalePrior) ++in_round;
        }
        flagged += in_round;
        // Graceful resume: the flagged devices still SCORED — the round's
        // scored count covers every participating slot, stale or not.
        if (in_round > 0) {
            ++flagged_and_scored_rounds;
            EXPECT_EQ(report.rounds[r].devices_scored,
                      members.at(r, idx(MembershipCol::kParticipating)));
        }
    }
    EXPECT_GT(series_stale, 0u) << "no rejoin ever missed a broadcast";
    EXPECT_EQ(flagged, series_stale)
        << "per-device reasons disagree with the membership series";
    EXPECT_GT(flagged_and_scored_rounds, 0u);
    EXPECT_GT(members.column_max(idx(MembershipCol::kRejoins)), 0u);
}

TEST(MembershipEngine, JoinsFillTheReservedTail) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::MembershipCol;
    using health::idx;
    ChurnConfig churn;
    churn.join_prob = 1.0;  // every reserved slot announces itself round 0
    EngineConfig config = small_engine_config();
    config.membership.initial_members = 25;
    const EngineReport report = run_churn_engine(config, churn);
    const obs::RoundSeries& members = report.telemetry.membership;
    ASSERT_GE(members.num_rows(), 2u);

    // Round 0: the 25 founders run; all 15 reserved slots join mid-round.
    EXPECT_EQ(members.at(0, idx(MembershipCol::kParticipating)), 25u);
    EXPECT_EQ(members.at(0, idx(MembershipCol::kJoins)), 15u);
    EXPECT_EQ(members.at(0, idx(MembershipCol::kJoining)), 15u);
    EXPECT_EQ(report.rounds[0].devices_scored, 25u);
    // Round 1: the tail is promoted and runs — the whole index space.
    EXPECT_EQ(members.at(1, idx(MembershipCol::kParticipating)), 40u);
    EXPECT_EQ(members.at(1, idx(MembershipCol::kAlive)), 40u);
    EXPECT_EQ(members.at(1, idx(MembershipCol::kUnknown)), 0u);
    EXPECT_EQ(report.rounds[1].devices_scored, 40u);
    // Round 0 charged the initial broadcast to the FOUNDERS only.
    EXPECT_EQ(members.at(0, idx(MembershipCol::kCapacity)), 40u);
}

TEST(MembershipEngine, ReservedTailAloneEngagesMembershipWithoutChurn) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::MembershipCol;
    using health::idx;
    // initial_members < capacity engages the machinery even with a null
    // churn plan: the tail just never joins (nobody tells it to).
    EngineConfig config = small_engine_config();
    config.membership.initial_members = 30;
    const EngineReport report = run_churn_engine(config, ChurnConfig{},
                                                 /*pass_plan=*/false);
    const obs::RoundSeries& members = report.telemetry.membership;
    ASSERT_EQ(members.num_rows(), report.rounds.size());
    for (std::size_t r = 0; r < report.rounds.size(); ++r) {
        EXPECT_EQ(members.at(r, idx(MembershipCol::kParticipating)), 30u);
        EXPECT_EQ(members.at(r, idx(MembershipCol::kUnknown)), 10u);
        EXPECT_EQ(members.at(r, idx(MembershipCol::kJoins)), 0u);
        EXPECT_EQ(report.rounds[r].devices_scored, 30u);
    }
}

TEST(MembershipEngine, LatencyPercentilesCountOnlyParticipants) {
    // A non-member slot never ran: its latency is the SoA's reset 0 s, not
    // a measurement. With 70% of the slots outside the fleet, selecting
    // over every slot would read p50 = 0; the tail must be the nearest-rank
    // quantiles of the participants' own latencies.
    EngineConfig config = small_engine_config();
    config.devices_per_round = 200;
    config.membership.initial_members = 60;
    config.num_shards = 7;
    config.num_threads = 4;
    const stats::Rng root(99);
    const stats::Rng device_root = root.fork(4);
    const FaultPlan plan(FaultConfig{}, root);
    const std::size_t dim = config.theta_dim;
    std::vector<std::vector<std::uint8_t>> ran(config.rounds,
                                               std::vector<std::uint8_t>(200, 0));
    const DeviceWork work = [&](std::size_t round, std::size_t device, stats::Rng& work_rng,
                                util::Workspace& /*ws*/) {
        ran[round][device] = 1;
        return cheap_work(work_rng, dim);
    };
    const RoundEndFn round_end = [](std::size_t /*round*/, CloudServer& server) {
        (void)server.take_serviced_thetas();
        return RoundEndDecision{};
    };
    const EngineReport report = run_fleet_engine(config, device_root, plan, work, round_end);
    ASSERT_EQ(report.rounds.size(), config.rounds);
    for (std::size_t r = 0; r < config.rounds; ++r) {
        std::vector<double> latencies;
        for (std::size_t j = 0; j < 200; ++j) {
            if (ran[r][j] == 0) continue;
            // Fault-free, no upload backoff: the shard's healthy draw.
            stats::Rng lat = device_stream(device_root, r, j, DeviceStream::kLatency);
            latencies.push_back(std::min(
                config.deadline_seconds * (0.05 + 0.20 * lat.uniform()) + 0.0,
                config.deadline_seconds));
        }
        ASSERT_EQ(latencies.size(), 60u);  // > 50% of the slots never ran
        std::sort(latencies.begin(), latencies.end());
        const EngineRoundStats& stats = report.rounds[r];
        EXPECT_GT(stats.latency_p50_seconds, 0.0);
        EXPECT_TRUE(bits_equal(stats.latency_p50_seconds, stats::nearest_rank(latencies, 0.50)));
        EXPECT_TRUE(bits_equal(stats.latency_p99_seconds, stats::nearest_rank(latencies, 0.99)));
        EXPECT_TRUE(bits_equal(stats.latency_max_seconds, latencies.back()));
    }
}

TEST(MembershipEngine, MembershipSloRulesJudgeOnlyChurnRuns) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    const EngineReport report =
        run_churn_engine(small_engine_config(), ChurnConfig::uniform(0.2));
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    ASSERT_EQ(slo.rules.size(), 6u);
    bool saw_suspect = false;
    bool saw_extinction = false;
    for (const health::SloResult& rule : slo.rules) {
        saw_suspect = saw_suspect || rule.name == "suspect_fraction";
        saw_extinction = saw_extinction || rule.name == "mass_extinction_guard";
    }
    EXPECT_TRUE(saw_suspect);
    EXPECT_TRUE(saw_extinction);
}

TEST(MembershipEngine, ReportsThePeakEventQueueDepth) {
    const EngineReport report =
        run_churn_engine(small_engine_config(), ChurnConfig::uniform(0.25));
    // Round start + heartbeat + round end coexist at minimum; churn adds
    // join/rejoin admissions on top.
    EXPECT_GE(report.max_event_queue_depth, 2u);
    EXPECT_GT(report.events_processed, 0u);
}

TEST(MembershipEngine, BadHeartbeatTimingIsRejectedOnlyWhenEngaged) {
    EngineConfig config = small_engine_config();
    config.membership.heartbeat_seconds = config.round_seconds + 1.0;
    // Disabled membership: the offset is inert, the run is legal.
    EXPECT_NO_THROW(run_churn_engine(config, ChurnConfig{}, /*pass_plan=*/false));
    // An active plan engages membership and must re-validate the timing.
    EXPECT_THROW(run_churn_engine(config, ChurnConfig::uniform(0.2)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace drel::edgesim
