// Tests for the event-driven fleet engine: the virtual-clock scheduler,
// SoA shards, the collision-free hierarchical RNG stream scheme (the fix
// for the round * 1000 + j sub-stream aliasing), the cloud server's
// admission control, and the engine's determinism contract — bit-identical
// reports across thread counts AND shard counts, with or without faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dp/batch_responsibilities.hpp"
#include "edgesim/faults.hpp"
#include "edgesim/scheduler.hpp"
#include "edgesim/server.hpp"
#include "edgesim/shard.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

using test_support::bits_equal;

// ------------------------------------------------------------ event queue

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue queue;
    queue.schedule(3.0, EventKind::kRoundEnd, 0);
    queue.schedule(1.0, EventKind::kRoundStart, 0);
    queue.schedule(2.0, EventKind::kUploadArrival, 0, 1);
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundStart);
    EXPECT_EQ(queue.pop().kind, EventKind::kUploadArrival);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundEnd);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.total_popped(), 3u);
}

TEST(EventQueue, EqualTimesBreakTiesByScheduleOrder) {
    // The determinism contract hinges on this: RoundEnd(r) schedules
    // RoundStart(r + 1) at the SAME virtual time, and FIFO tie-breaking is
    // what keeps the handlers in causal order.
    EventQueue queue;
    queue.schedule(5.0, EventKind::kRoundEnd, 7);
    queue.schedule(5.0, EventKind::kRoundStart, 8);
    queue.schedule(5.0, EventKind::kUploadArrival, 8, 2);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundEnd);
    EXPECT_EQ(queue.pop().kind, EventKind::kRoundStart);
    const Event last = queue.pop();
    EXPECT_EQ(last.kind, EventKind::kUploadArrival);
    EXPECT_EQ(last.shard, 2u);
}

TEST(EventQueue, ClockAdvancesAndRejectsThePast) {
    EventQueue queue;
    EXPECT_EQ(queue.now(), 0.0);
    queue.schedule(2.0, EventKind::kRoundStart, 0);
    EXPECT_EQ(queue.pop().time, 2.0);
    EXPECT_EQ(queue.now(), 2.0);
    EXPECT_THROW(queue.schedule(1.5, EventKind::kRoundEnd, 0), std::invalid_argument);
    EXPECT_NO_THROW(queue.schedule(2.0, EventKind::kRoundEnd, 0));  // "now" is fine
}

TEST(EventQueue, TracksTheHighWaterMark) {
    // The peak HEAP size, not the current one: the SLO wants to know how
    // deep the backlog ever got, and popping must never shrink the record.
    EventQueue queue;
    EXPECT_EQ(queue.high_water(), 0u);
    queue.schedule(1.0, EventKind::kRoundStart, 0);
    queue.schedule(2.0, EventKind::kUploadArrival, 0, 1);
    queue.schedule(3.0, EventKind::kUploadArrival, 0, 2);
    EXPECT_EQ(queue.high_water(), 3u);
    (void)queue.pop();
    (void)queue.pop();
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.high_water(), 3u);  // draining never lowers the mark
    queue.schedule(4.0, EventKind::kRoundEnd, 0);
    EXPECT_EQ(queue.high_water(), 3u);  // back to 2 live: no new peak
    queue.schedule(5.0, EventKind::kHeartbeatDeadline, 1);
    queue.schedule(6.0, EventKind::kRoundEnd, 1);
    EXPECT_EQ(queue.high_water(), 4u);  // a new, deeper backlog
}

TEST(EventQueue, RejectsNonFiniteTimesAndEmptyPop) {
    EventQueue queue;
    EXPECT_THROW(queue.schedule(std::numeric_limits<double>::quiet_NaN(),
                                EventKind::kRoundStart, 0),
                 std::invalid_argument);
    EXPECT_THROW(queue.schedule(std::numeric_limits<double>::infinity(),
                                EventKind::kRoundStart, 0),
                 std::invalid_argument);
    EXPECT_THROW(queue.pop(), std::logic_error);
}

// ------------------------------------------------- hierarchical RNG scheme

std::pair<std::uint64_t, std::uint64_t> stream_fingerprint(stats::Rng rng) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return {ua, ub};
}

TEST(StreamScheme, OldLinearTagsAliasedAcrossRounds) {
    // The bug this PR fixes: round_rng.fork(round * 1000 + j) maps
    // (round, 1000) and (round + 1, 0) to the SAME tag, so "independent"
    // devices shared a stream as soon as devices_per_round exceeded 1000.
    const stats::Rng round_rng(42);
    EXPECT_EQ(stream_fingerprint(round_rng.fork(0 * 1000 + 1000)),
              stream_fingerprint(round_rng.fork(1 * 1000 + 0)));
    // (And from round 90 the cloud tags 90000 + round collided with device
    // cells too: 90 * 1000 + 90 == 90000 + 90.)
    EXPECT_EQ(stream_fingerprint(round_rng.fork(90 * 1000 + 90)),
              stream_fingerprint(round_rng.fork(90000 + 90)));
}

TEST(StreamScheme, HierarchicalForksKeepThoseCellsDistinct) {
    const stats::Rng device_root = stats::Rng(42).fork(4);
    EXPECT_NE(stream_fingerprint(device_stream(device_root, 0, 1000, DeviceStream::kWork)),
              stream_fingerprint(device_stream(device_root, 1, 0, DeviceStream::kWork)));
    const stats::Rng server_root = stats::Rng(42).fork(5);
    EXPECT_NE(
        stream_fingerprint(device_stream(device_root, 90, 90, DeviceStream::kWork)),
        stream_fingerprint(server_stream(server_root, 90, ServerStream::kPosteriorUpdate)));
    EXPECT_NE(stream_fingerprint(device_stream(device_root, 3, 7, DeviceStream::kWork)),
              stream_fingerprint(device_stream(device_root, 3, 7, DeviceStream::kLatency)));
}

TEST(StreamScheme, NoDuplicateStreamsAtTwoThousandDevicesPerRound) {
    // The regression pinned by the issue: at devices_per_round = 2000 every
    // (round, device) work stream AND every cloud stream must draw
    // differently. Under the old linear tags, rounds 1 and 2 re-used half
    // of round 0's and 1's device streams wholesale.
    constexpr std::size_t kRounds = 3;
    constexpr std::size_t kDevices = 2000;
    const stats::Rng root(20240807);
    const stats::Rng device_root = root.fork(4);
    const stats::Rng server_root = root.fork(5);

    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::size_t inserted = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t device = 0; device < kDevices; ++device) {
            seen.insert(
                stream_fingerprint(device_stream(device_root, round, device,
                                                 DeviceStream::kWork)));
            ++inserted;
        }
        seen.insert(stream_fingerprint(
            server_stream(server_root, round, ServerStream::kPosteriorUpdate)));
        seen.insert(stream_fingerprint(
            server_stream(server_root, round, ServerStream::kKlEstimate)));
        inserted += 2;
    }
    EXPECT_EQ(seen.size(), inserted);
}

TEST(StreamScheme, ShardStreamsMatchDeviceStreamBitForBit) {
    // Shard::run_round forks the round link once per shard-round and the
    // device link once per device, and hangs both purposes off that link;
    // device_stream() stays the public definition (the perfbench replay
    // derives its streams through it). Pin the two together on random
    // (round, device, purpose) cells.
    const stats::Rng device_root = stats::Rng(20261017).fork(4);
    const FaultPlan plan(FaultConfig{}, stats::Rng(20261017));
    constexpr std::size_t kSlots = 4096;
    constexpr double kDeadline = 30.0;
    RoundSoA soa;
    soa.resize(kSlots);
    stats::Rng pick(1017);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t round = pick.uniform_index(std::size_t{1} << 40);
        const std::size_t device = pick.uniform_index(kSlots);
        const DeviceStream purpose =
            pick.uniform_index(2) == 0 ? DeviceStream::kWork : DeviceStream::kLatency;
        std::pair<std::uint64_t, std::uint64_t> work_print{};
        const DeviceWork work = [&](std::size_t, std::size_t, stats::Rng& work_rng,
                                    util::Workspace&) {
            work_print = stream_fingerprint(work_rng);
            return DeviceResult{};
        };
        Shard shard(ShardLayout{0, device, device + 1}, 1);
        (void)shard.run_round(round, device_root, plan, work, soa, kDeadline,
                              /*keep_thetas=*/false);

        stats::Rng expected = device_stream(device_root, round, device, purpose);
        if (purpose == DeviceStream::kWork) {
            EXPECT_EQ(work_print, stream_fingerprint(expected))
                << "round=" << round << " device=" << device;
        } else {
            // A healthy device with no extra seconds: the shard's latency is
            // its kLatency stream's first draw, scaled into the deadline.
            const double want =
                std::min(kDeadline * (0.05 + 0.20 * expected.uniform()) + 0.0, kDeadline);
            EXPECT_TRUE(bits_equal(soa.latency_seconds[device], want))
                << "round=" << round << " device=" << device;
        }
    }
}

// ----------------------------------------------------------- shard layout

TEST(ShardLayout, PartitionIsContiguousAndBalanced) {
    const auto layouts = make_shard_layouts(10, 3);
    ASSERT_EQ(layouts.size(), 3u);
    std::size_t expected_begin = 0;
    for (std::size_t s = 0; s < layouts.size(); ++s) {
        EXPECT_EQ(layouts[s].index, s);
        EXPECT_EQ(layouts[s].begin, expected_begin);
        expected_begin = layouts[s].end;
        EXPECT_GE(layouts[s].size(), 3u);
        EXPECT_LE(layouts[s].size(), 4u);
    }
    EXPECT_EQ(expected_begin, 10u);
}

TEST(ShardLayout, MoreShardsThanDevicesLeavesEmptyShards) {
    const auto layouts = make_shard_layouts(2, 5);
    ASSERT_EQ(layouts.size(), 5u);
    EXPECT_EQ(layouts[0].size(), 1u);
    EXPECT_EQ(layouts[1].size(), 1u);
    for (std::size_t s = 2; s < 5; ++s) EXPECT_EQ(layouts[s].size(), 0u);
}

TEST(UploadSufficientStats, MergeMatchesDirectAccumulation) {
    // The server ingests these statistics without merging them; what stays
    // is add's accumulation and its dimension check.
    stats::Rng rng(7);
    std::vector<linalg::Vector> thetas;
    for (int i = 0; i < 12; ++i) thetas.push_back(rng.standard_normal_vector(4));

    UploadStats direct;
    for (const auto& theta : thetas) direct.add(theta);

    ASSERT_EQ(direct.count, thetas.size());
    for (std::size_t i = 0; i < 4; ++i) {
        double sum = 0.0;
        double sum_sq = 0.0;
        for (const auto& theta : thetas) {
            sum += theta[i];
            sum_sq += theta[i] * theta[i];
        }
        EXPECT_EQ(direct.sum[i], sum);
        EXPECT_EQ(direct.sum_sq[i], sum_sq);
    }
    EXPECT_THROW(direct.add(linalg::Vector(3, 0.0)), std::invalid_argument);
}

// ---------------------------------------------------------- engine runs

/// Cheap deterministic device work: everything derives from the device's
/// own forked stream, so any schedule must reproduce it bit-for-bit.
DeviceResult cheap_work(std::size_t /*round*/, std::size_t /*device*/, stats::Rng& work_rng,
                        std::size_t theta_dim) {
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
    config.rounds = 3;
    config.devices_per_round = 40;
    config.theta_dim = 3;
    config.num_shards = 4;
    config.num_threads = 1;
    return config;
}

EngineReport run_small_engine(EngineConfig config, const FaultConfig& faults = {}) {
    const stats::Rng root(99);
    const stats::Rng device_root = root.fork(4);
    const FaultPlan plan(faults, root);
    const std::size_t dim = config.theta_dim;
    const DeviceWork work = [dim](std::size_t round, std::size_t device,
                                  stats::Rng& work_rng, util::Workspace& /*ws*/) {
        return cheap_work(round, device, work_rng, dim);
    };
    const RoundEndFn round_end = [](std::size_t /*round*/, CloudServer& server) {
        (void)server.take_serviced_thetas();
        RoundEndDecision decision;
        decision.rebroadcast = true;
        decision.payload_bytes = 64;
        decision.prior_components = 2;
        return decision;
    };
    return run_fleet_engine(config, device_root, plan, work, round_end);
}

/// `same_partition` = the two runs used the same shard layout. One upload
/// batch flies per shard per round, so the batch-framing ledger
/// (batch_bytes) and the event count are functions of the PARTITION, not of
/// the schedule — they are only comparable when the layout matches. Every
/// semantic output (accuracy, device counts, latency, per-device bytes) must
/// be identical regardless.
void expect_reports_identical(const EngineReport& a, const EngineReport& b,
                              bool same_partition = true) {
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    EXPECT_EQ(a.total_broadcast_bytes, b.total_broadcast_bytes);
    EXPECT_EQ(a.total_upload_bytes, b.total_upload_bytes);
    EXPECT_EQ(a.total_upload_retries, b.total_upload_retries);
    EXPECT_EQ(a.total_backpressure_rejected, b.total_backpressure_rejected);
    EXPECT_TRUE(bits_equal(a.virtual_seconds, b.virtual_seconds));
    if (same_partition) {
        EXPECT_EQ(a.total_batch_bytes, b.total_batch_bytes);
        EXPECT_EQ(a.events_processed, b.events_processed);
    }
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        const EngineRoundStats& x = a.rounds[r];
        const EngineRoundStats& y = b.rounds[r];
        EXPECT_TRUE(bits_equal(x.mean_accuracy, y.mean_accuracy));
        EXPECT_TRUE(bits_equal(x.novel_mode_accuracy, y.novel_mode_accuracy));
        EXPECT_EQ(x.prior_components, y.prior_components);
        EXPECT_EQ(x.rebroadcast, y.rebroadcast);
        EXPECT_EQ(x.broadcast_bytes, y.broadcast_bytes);
        EXPECT_EQ(x.devices_scored, y.devices_scored);
        EXPECT_EQ(x.crashed, y.crashed);
        EXPECT_EQ(x.stragglers, y.stragglers);
        EXPECT_EQ(x.uploads_attempted, y.uploads_attempted);
        EXPECT_EQ(x.uploads_delivered, y.uploads_delivered);
        EXPECT_EQ(x.uploads_dropped, y.uploads_dropped);
        EXPECT_EQ(x.uploads_garbled, y.uploads_garbled);
        EXPECT_EQ(x.backpressure_rejected, y.backpressure_rejected);
        EXPECT_EQ(x.upload_bytes, y.upload_bytes);
        if (same_partition) {
            EXPECT_EQ(x.batch_bytes, y.batch_bytes);
        }
        EXPECT_EQ(x.upload_retries, y.upload_retries);
        EXPECT_TRUE(bits_equal(x.latency_p50_seconds, y.latency_p50_seconds));
        EXPECT_TRUE(bits_equal(x.latency_p99_seconds, y.latency_p99_seconds));
        EXPECT_TRUE(bits_equal(x.latency_p999_seconds, y.latency_p999_seconds));
        EXPECT_TRUE(bits_equal(x.latency_max_seconds, y.latency_max_seconds));
        EXPECT_EQ(x.device_degraded, y.device_degraded);
    }
}

TEST(FleetEngine, ReportIsBitIdenticalAcrossThreadCounts) {
    EngineConfig config = small_engine_config();
    const EngineReport baseline = run_small_engine(config);
    for (const std::size_t threads : {2u, 4u, 8u}) {
        config.num_threads = threads;
        expect_reports_identical(baseline, run_small_engine(config));
    }
}

TEST(FleetEngine, ReportIsBitIdenticalAcrossShardCounts) {
    EngineConfig config = small_engine_config();
    config.num_shards = 1;
    const EngineReport baseline = run_small_engine(config);
    for (const std::size_t shards : {3u, 8u, 40u}) {
        config.num_shards = shards;
        config.num_threads = 2;
        expect_reports_identical(baseline, run_small_engine(config),
                                 /*same_partition=*/false);
    }
}

TEST(FleetEngine, VirtualClockIsDeterministicAndCausal) {
    const EngineReport report = run_small_engine(small_engine_config());
    ASSERT_EQ(report.rounds.size(), 3u);
    // 3 RoundStarts + 3 RoundEnds + one arrival per non-empty shard batch.
    EXPECT_EQ(report.virtual_seconds, 3 * 60.0);
    EXPECT_GE(report.events_processed, 6u);
    // Every device scored and uploaded; bytes ledger is consistent.
    for (const EngineRoundStats& round : report.rounds) {
        EXPECT_EQ(round.devices_scored, 40u);
        EXPECT_GT(round.batch_bytes, 0u);
        EXPECT_EQ(round.upload_bytes, 40u * 3 * sizeof(double));
        EXPECT_GT(round.latency_max_seconds, 0.0);
        EXPECT_LE(round.latency_p50_seconds, round.latency_p99_seconds);
        EXPECT_LE(round.latency_p99_seconds, round.latency_max_seconds);
    }
}

TEST(FleetEngine, FinalRoundNeverChargesARebroadcast) {
    // The round-end policy above ALWAYS asks for a rebroadcast; the engine
    // must refuse it on the final round — there is no next fleet to push to.
    EngineConfig config = small_engine_config();
    config.initial_broadcast_bytes = 128;
    const EngineReport report = run_small_engine(config);
    ASSERT_EQ(report.rounds.size(), 3u);
    EXPECT_TRUE(report.rounds[0].rebroadcast);
    EXPECT_TRUE(report.rounds[1].rebroadcast);
    EXPECT_FALSE(report.rounds.back().rebroadcast);
    // initial + two (not three) per-device pushes of 64 bytes.
    EXPECT_EQ(report.total_broadcast_bytes, 128u + 2u * 64u * 40u);
    EXPECT_EQ(report.rounds.back().broadcast_bytes, 0u);
}

TEST(FleetEngine, BackpressureDegradesInsteadOfDropping) {
    EngineConfig config = small_engine_config();
    config.num_shards = 4;
    // A server that takes 40 virtual seconds per batch with room for one
    // queued batch: within a round, the first arrival is admitted, the
    // second queues, and the remaining two are rejected at admission.
    config.server.queue_capacity = 1;
    config.server.service_seconds_per_batch = 40.0;
    const EngineReport report = run_small_engine(config);
    EXPECT_GT(report.total_backpressure_rejected, 0u);
    std::size_t marked = 0;
    for (const EngineRoundStats& round : report.rounds) {
        for (const DegradedReason reason : round.device_degraded) {
            if (reason == DegradedReason::kBackpressure) ++marked;
        }
        // Degradation, not loss of the round: every device still scored.
        EXPECT_EQ(round.devices_scored, 40u);
    }
    EXPECT_EQ(marked, report.total_backpressure_rejected);

    // Fixed shard count: the backpressure pattern is still deterministic
    // across thread counts.
    EngineConfig threaded = config;
    threaded.num_threads = 4;
    expect_reports_identical(report, run_small_engine(threaded));
}

TEST(FleetEngineChaos, FaultPlanReusedUnchangedAndDeterministic) {
    // The PR 4 fault plan rides along untouched: decisions stay pure
    // functions of (round, device), so a chaos engine run is exactly
    // reproducible and thread-count independent.
    EngineConfig config = small_engine_config();
    const FaultConfig faults = FaultConfig::uniform(0.3);
    const EngineReport a = run_small_engine(config, faults);
    config.num_threads = 4;
    const EngineReport b = run_small_engine(config, faults);
    expect_reports_identical(a, b);

    std::size_t crashed = 0;
    for (const EngineRoundStats& round : a.rounds) {
        crashed += round.crashed;
        for (std::size_t j = 0; j < round.device_degraded.size(); ++j) {
            // The engine's record must agree with the plan's pure decision.
            const stats::Rng root(99);
            const FaultPlan plan(faults, root);
            if (plan.device_faults(round.round, j).crash) {
                EXPECT_EQ(round.device_degraded[j], DegradedReason::kCrashed);
            }
        }
    }
    EXPECT_GT(crashed, 0u);
}

TEST(FleetEngine, WorkRunsOnlyForDevicesThatComplete) {
    // The shard resolves crashed and straggling cells itself, so the work
    // callback runs exactly once for every device that completes and never
    // for the others. A straggler's row still reads kStraggler, unscored,
    // without an upload, and with its latency past the deadline.
    constexpr std::size_t kRounds = 3;
    constexpr std::size_t kDevices = 200;
    constexpr std::size_t kDim = 3;
    const stats::Rng root(2027);
    const stats::Rng device_root = root.fork(4);
    const FaultPlan plan(FaultConfig::uniform(0.3), root);
    // One writer per cell (the shard that owns the device): no races.
    std::vector<std::vector<std::uint8_t>> calls;
    const DeviceWork work = [&](std::size_t round, std::size_t device, stats::Rng& work_rng,
                                util::Workspace& /*ws*/) {
        ++calls[round][device];
        return cheap_work(round, device, work_rng, kDim);
    };
    const auto completes = [&](std::size_t round, std::size_t device) {
        const DeviceFaultDecision faults = plan.device_faults(round, device);
        return !faults.crash && !faults.straggler;
    };

    // One shard over the whole fleet: the rows themselves.
    calls.assign(kRounds, std::vector<std::uint8_t>(kDevices, 0));
    Shard shard(ShardLayout{0, 0, kDevices}, kDim);
    constexpr double kDeadline = 30.0;
    std::size_t stragglers = 0;
    std::size_t crashed = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        RoundSoA soa;
        soa.resize(kDevices);
        (void)shard.run_round(round, device_root, plan, work, soa, kDeadline,
                              /*keep_thetas=*/false);
        for (std::size_t j = 0; j < kDevices; ++j) {
            SCOPED_TRACE("round=" + std::to_string(round) + " device=" + std::to_string(j));
            EXPECT_EQ(calls[round][j], completes(round, j) ? 1 : 0);
            const DeviceFaultDecision faults = plan.device_faults(round, j);
            if (faults.crash) {
                ++crashed;
                EXPECT_EQ(soa.degraded[j], DegradedReason::kCrashed);
                EXPECT_EQ(soa.scored[j], 0);
            } else if (faults.straggler) {
                ++stragglers;
                EXPECT_EQ(soa.degraded[j], DegradedReason::kStraggler);
                EXPECT_EQ(soa.scored[j], 0);
                EXPECT_EQ(soa.upload_attempts[j], 0);
                EXPECT_GT(soa.latency_seconds[j], kDeadline);
            } else {
                EXPECT_EQ(soa.scored[j], 1);
                EXPECT_LE(soa.latency_seconds[j], kDeadline);
            }
        }
    }
    EXPECT_GT(crashed, 0u);
    EXPECT_GT(stragglers, 0u);

    // The engine keeps the contract at any shard and thread layout.
    calls.assign(kRounds, std::vector<std::uint8_t>(kDevices, 0));
    EngineConfig config = small_engine_config();
    config.rounds = kRounds;
    config.devices_per_round = kDevices;
    config.num_shards = 7;
    config.num_threads = 4;
    const RoundEndFn round_end = [](std::size_t, CloudServer& server) {
        (void)server.take_serviced_thetas();
        RoundEndDecision decision;
        decision.payload_bytes = 64;
        decision.prior_components = 2;
        return decision;
    };
    const EngineReport report = run_fleet_engine(config, device_root, plan, work, round_end);
    ASSERT_EQ(report.rounds.size(), kRounds);
    for (std::size_t round = 0; round < kRounds; ++round) {
        std::size_t ran = 0;
        std::size_t round_stragglers = 0;
        for (std::size_t j = 0; j < kDevices; ++j) {
            EXPECT_EQ(calls[round][j], completes(round, j) ? 1 : 0);
            ran += completes(round, j) ? 1 : 0;
            const DeviceFaultDecision faults = plan.device_faults(round, j);
            const bool straggled = !faults.crash && faults.straggler;
            round_stragglers += straggled ? 1 : 0;
            EXPECT_EQ(report.rounds[round].device_degraded[j] == DegradedReason::kStraggler,
                      straggled);
        }
        EXPECT_EQ(report.rounds[round].devices_scored, ran);
        EXPECT_EQ(report.rounds[round].stragglers, round_stragglers);
    }
}

TEST(FleetEngine, ShardScoresDeferredDevicesPerTile) {
    // A shard hands its deferred devices to the batch scorer a tile at a
    // time: one call per kTileDevices collected devices inside the device
    // loop, one for the rest after it. The calls must cover exactly the
    // completing members, in slice order, and every scored row must carry
    // what the scorer wrote for it, round after round on the same shard.
    constexpr std::size_t kTile = dp::BatchResponsibilities::kTileDevices;
    constexpr std::size_t kDevices = 1200;
    constexpr std::size_t kDim = 3;
    const stats::Rng root(2026);
    const stats::Rng device_root = root.fork(4);
    const FaultPlan plan(FaultConfig::uniform(0.2), root);
    // Every eighth slot is a non-member, so holes sit within eight slots on
    // both sides of every tile edge.
    std::vector<std::uint8_t> participating(kDevices, 1);
    for (std::size_t j = 5; j < kDevices; j += 8) participating[j] = 0;

    const DeviceWork work = [](std::size_t /*round*/, std::size_t device, stats::Rng& work_rng,
                               util::Workspace& ws) {
        DeviceResult result;
        result.theta = ws.take(kDim);
        work_rng.normals(result.theta.data(), kDim);
        result.scored = true;
        result.defer_score = true;
        result.score_tag = device;
        return result;
    };
    const auto written = [](std::size_t tag) { return 1.0 + static_cast<double>(tag); };
    std::vector<std::vector<std::size_t>> calls;  // the tags of each call
    const BatchScoreFn score = [&](std::size_t /*round*/, const std::size_t* tags,
                                   const double* /*thetas*/, std::size_t count,
                                   std::size_t dim, double* accuracy_out,
                                   util::Workspace& /*ws*/) {
        EXPECT_EQ(dim, kDim);
        calls.emplace_back(tags, tags + count);
        for (std::size_t i = 0; i < count; ++i) accuracy_out[i] = written(tags[i]);
    };

    Shard shard(ShardLayout{0, 0, kDevices}, kDim);
    for (std::size_t round = 0; round < 2; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        std::vector<std::size_t> members;
        for (std::size_t j = 0; j < kDevices; ++j) {
            const DeviceFaultDecision faults = plan.device_faults(round, j);
            if (participating[j] != 0 && !faults.crash && !faults.straggler) {
                members.push_back(j);
            }
        }
        // At least two full tiles score inside the device loop.
        ASSERT_GT(members.size(), 2 * kTile);

        calls.clear();
        RoundSoA soa;
        soa.resize(kDevices);
        (void)shard.run_round(round, device_root, plan, work, soa, /*deadline_seconds=*/30.0,
                              /*keep_thetas=*/false, &score, participating.data());

        std::vector<std::size_t> tags;
        for (const std::vector<std::size_t>& call : calls) {
            EXPECT_GE(call.size(), 1u);
            EXPECT_LE(call.size(), kTile);
            tags.insert(tags.end(), call.begin(), call.end());
        }
        EXPECT_EQ(calls.size(), (members.size() + kTile - 1) / kTile);
        EXPECT_TRUE(std::adjacent_find(tags.begin(), tags.end(),
                                       std::greater_equal<std::size_t>()) == tags.end());
        EXPECT_EQ(tags, members);
        std::vector<std::uint8_t> scored(kDevices, 0);
        for (const std::size_t j : members) scored[j] = 1;
        for (std::size_t j = 0; j < kDevices; ++j) {
            EXPECT_EQ(soa.accuracy[j], scored[j] != 0 ? written(j) : 0.0) << "device " << j;
        }
    }
}

/// What the work callback returned for one (round, device) cell. Each cell
/// has exactly one writer (the shard that owns the device), so the table
/// needs no synchronisation.
struct WorkRecord {
    bool ran = false;
    bool scored = false;
    int attempts = 0;
    int retries = 0;
    bool delivered = false;
    bool garbled = false;
};

TEST(FleetEngine, RoundTalliesEqualASerialRecount) {
    // The close tallies integers per shard slice and merges them in shard
    // order. On a run with faults, churn and deliberate backpressure, every
    // counter must equal a plain recount from the report's device_degraded
    // and from what the work callback returned, at any partition.
    const obs::ScopedMetricsEnabledForTesting metrics_on(true);
    constexpr std::size_t kRounds = 4;
    constexpr std::size_t kDevices = 200;
    constexpr std::size_t kDim = 3;
    constexpr std::size_t kReasons =
        static_cast<std::size_t>(DegradedReason::kRejoinStalePrior) + 1;
    const auto counter_name = [](std::size_t r) {
        return std::string("fault.degraded.") +
               test_support::degraded_reason_name(static_cast<DegradedReason>(r));
    };
    const auto counter_totals = [&] {
        std::vector<std::uint64_t> totals(kReasons, 0);
        for (std::size_t r = 1; r < kReasons; ++r) {
            totals[r] = obs::Registry::global().counter(counter_name(r)).total();
        }
        return totals;
    };

    std::size_t backpressured = 0;
    for (const std::size_t shards : {1u, 3u, 16u}) {
        for (const std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            EngineConfig config;
            config.rounds = kRounds;
            config.devices_per_round = kDevices;
            config.theta_dim = kDim;
            config.num_shards = shards;
            config.num_threads = threads;
            config.server.queue_capacity = 1;
            config.server.service_seconds_per_batch = 40.0;
            config.membership.initial_members = 150;
            const stats::Rng root(2026);
            const FaultPlan plan(FaultConfig::uniform(0.15), root);
            const ChurnPlan churn(ChurnConfig::uniform(0.2), root);
            std::vector<std::vector<WorkRecord>> records(kRounds,
                                                         std::vector<WorkRecord>(kDevices));
            const DeviceWork work = [&](std::size_t round, std::size_t device,
                                        stats::Rng& rng, util::Workspace&) {
                DeviceResult result;
                result.accuracy = rng.uniform();
                result.scored = true;
                const DeviceFaultDecision faults = plan.device_faults(round, device);
                if (faults.prior_corrupt || faults.link_outage) {
                    result.reason = DegradedReason::kFallbackLocalErm;
                } else if (result.accuracy < 0.1) {
                    result.reason = DegradedReason::kNonFinite;
                }
                const UploadOutcome up = plan.upload_outcome(round, device);
                result.attempted_upload = true;
                result.upload_attempts = up.attempts;
                result.upload_retries = up.retries;
                result.upload_delivered = up.delivered;
                result.upload_garbled = up.garbled;
                result.extra_seconds = up.simulated_seconds;
                if (!up.delivered && result.reason == DegradedReason::kNone) {
                    result.reason = DegradedReason::kUploadDropped;
                }
                result.theta = rng.standard_normal_vector(kDim);
                records[round][device] = {true, result.scored, result.upload_attempts,
                                          result.upload_retries, result.upload_delivered,
                                          result.upload_garbled};
                return result;
            };
            const RoundEndFn round_end = [](std::size_t, CloudServer& server) {
                (void)server.take_serviced_thetas();
                RoundEndDecision decision;
                decision.rebroadcast = true;
                decision.payload_bytes = 64;
                decision.prior_components = 2;
                return decision;
            };
            const std::vector<std::uint64_t> before = counter_totals();
            const EngineReport report =
                run_fleet_engine(config, root.fork(4), plan, work, round_end, nullptr, &churn);
            const std::vector<std::uint64_t> after = counter_totals();
            ASSERT_EQ(report.rounds.size(), kRounds);
            ASSERT_EQ(report.telemetry.series.num_rows(), kRounds);
            ASSERT_EQ(report.telemetry.membership.num_rows(), kRounds);

            std::vector<std::uint64_t> reason_totals(kReasons, 0);
            std::uint64_t admitted_uploads = 0;
            for (std::size_t r = 0; r < kRounds; ++r) {
                SCOPED_TRACE("round=" + std::to_string(r));
                const EngineRoundStats& stats = report.rounds[r];
                ASSERT_EQ(stats.device_degraded.size(), kDevices);
                std::vector<std::size_t> reasons(kReasons, 0);
                std::size_t ran = 0, scored = 0, attempted = 0, delivered = 0, dropped = 0;
                std::size_t garbled = 0, attempts = 0, retries = 0;
                for (std::size_t j = 0; j < kDevices; ++j) {
                    const DegradedReason reason = stats.device_degraded[j];
                    ++reasons[static_cast<std::size_t>(reason)];
                    const WorkRecord& rec = records[r][j];
                    if (!rec.ran) continue;
                    ++ran;
                    scored += rec.scored ? 1 : 0;
                    attempted += rec.attempts > 0 ? 1 : 0;
                    delivered += rec.delivered ? 1 : 0;
                    dropped += rec.attempts > 0 && !rec.delivered ? 1 : 0;
                    garbled += rec.garbled ? 1 : 0;
                    attempts += static_cast<std::size_t>(rec.attempts);
                    retries += static_cast<std::size_t>(rec.retries);
                    if (rec.delivered && !rec.garbled && reason != DegradedReason::kBackpressure) {
                        ++admitted_uploads;
                    }
                }
                const auto count = [&](DegradedReason reason) {
                    return reasons[static_cast<std::size_t>(reason)];
                };
                EXPECT_EQ(stats.crashed, count(DegradedReason::kCrashed));
                EXPECT_EQ(stats.stragglers, count(DegradedReason::kStraggler));
                EXPECT_EQ(stats.fallbacks, count(DegradedReason::kFallbackLocalErm));
                EXPECT_EQ(stats.non_finite, count(DegradedReason::kNonFinite));
                EXPECT_EQ(stats.backpressure_rejected, count(DegradedReason::kBackpressure));
                EXPECT_EQ(stats.devices_scored, scored);
                EXPECT_EQ(stats.uploads_attempted, attempted);
                EXPECT_EQ(stats.uploads_delivered, delivered);
                EXPECT_EQ(stats.uploads_dropped, dropped);
                EXPECT_EQ(stats.uploads_garbled, garbled);
                EXPECT_EQ(stats.upload_bytes, attempts * kDim * sizeof(double));
                EXPECT_EQ(stats.upload_retries, retries);

                using health::idx;
                const obs::RoundSeries& series = report.telemetry.series;
                const obs::RoundSeries& members = report.telemetry.membership;
                // Non-member slots stay kNone and count as healthy.
                EXPECT_EQ(series.at(r, idx(health::FleetCol::kHealthy)),
                          count(DegradedReason::kNone));
                EXPECT_EQ(series.at(r, idx(health::FleetCol::kDegraded)),
                          kDevices - count(DegradedReason::kNone));
                // The work never flags staleness: every stale prior is a
                // rejoiner resumed on an old broadcast.
                EXPECT_EQ(stats.stale_priors,
                          members.at(r, idx(health::MembershipCol::kRejoinsStale)));
                // Members that crashed or straggled never reach the work
                // callback.
                EXPECT_EQ(members.at(r, idx(health::MembershipCol::kParticipating)),
                          ran + count(DegradedReason::kCrashed) +
                              count(DegradedReason::kStraggler));
                for (std::size_t reason = 0; reason < kReasons; ++reason) {
                    reason_totals[reason] += reasons[reason];
                }
            }
            EXPECT_EQ(report.telemetry.upload_latency_ms.count, admitted_uploads);
            for (std::size_t reason = 1; reason < kReasons; ++reason) {
                EXPECT_EQ(after[reason] - before[reason], reason_totals[reason])
                    << counter_name(reason);
            }
            EXPECT_GT(reason_totals[static_cast<std::size_t>(DegradedReason::kCrashed)], 0u);
            EXPECT_GT(reason_totals[static_cast<std::size_t>(DegradedReason::kNone)], 0u);
            backpressured += report.total_backpressure_rejected;
        }
    }
    EXPECT_GT(backpressured, 0u);
}

// ------------------------------------------------------ fleet telemetry

/// Serialized byte-identity surface: the partition-independent telemetry
/// block plus its SLO report, exactly what the golden test pins.
std::string telemetry_fingerprint(const EngineReport& report) {
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    return report.telemetry.to_json(&slo, /*include_partition=*/false).dump(0);
}

TEST(FleetHealth, TelemetryIsByteIdenticalAcrossThreadAndShardCounts) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    // Chaos faults exercise every degraded column; the health block must
    // still be a pure function of the seed, not of the execution geometry.
    const FaultConfig faults = FaultConfig::uniform(0.3);
    const EngineReport baseline = run_small_engine(small_engine_config(), faults);
    ASSERT_EQ(baseline.telemetry.series.num_rows(), 3u);
    EXPECT_GT(baseline.telemetry.upload_latency_ms.count, 0u);
    const std::string expected = telemetry_fingerprint(baseline);

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        EngineConfig config = small_engine_config();
        config.num_threads = threads;
        EXPECT_EQ(telemetry_fingerprint(run_small_engine(config, faults)), expected)
            << "threads=" << threads;
    }
    for (const std::size_t shards : {1u, 3u, 8u, 40u}) {
        EngineConfig config = small_engine_config();
        config.num_shards = shards;
        config.num_threads = 2;
        EXPECT_EQ(telemetry_fingerprint(run_small_engine(config, faults)), expected)
            << "shards=" << shards;
    }
}

TEST(FleetHealth, SeriesRowsMatchTheRoundStats) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::FleetCol;
    using health::idx;
    const EngineReport report = run_small_engine(small_engine_config());
    const obs::RoundSeries& series = report.telemetry.series;
    ASSERT_EQ(series.num_rows(), report.rounds.size());
    for (std::size_t r = 0; r < report.rounds.size(); ++r) {
        const EngineRoundStats& stats = report.rounds[r];
        EXPECT_EQ(series.at(r, idx(FleetCol::kRound)), stats.round);
        EXPECT_EQ(series.at(r, idx(FleetCol::kVirtualCloseMs)), (r + 1) * 60'000u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kDevices)), 40u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kHealthy)), 40u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kDegraded)), 0u);
        EXPECT_EQ(series.at(r, idx(FleetCol::kUploadsAttempted)), stats.uploads_attempted);
        EXPECT_EQ(series.at(r, idx(FleetCol::kUploadsDelivered)), stats.uploads_delivered);
        EXPECT_EQ(series.at(r, idx(FleetCol::kUploadBytes)), stats.upload_bytes);
        EXPECT_EQ(series.at(r, idx(FleetCol::kBroadcastBytes)), stats.broadcast_bytes);
        EXPECT_EQ(series.at(r, idx(FleetCol::kRebroadcast)),
                  stats.rebroadcast ? 1u : 0u);
        // Virtual-clock ms mirror of the double-valued latency stats.
        EXPECT_LE(series.at(r, idx(FleetCol::kLatencyP50Ms)),
                  series.at(r, idx(FleetCol::kLatencyP99Ms)));
        EXPECT_LE(series.at(r, idx(FleetCol::kLatencyP99Ms)),
                  series.at(r, idx(FleetCol::kLatencyMaxMs)));
        EXPECT_GT(series.at(r, idx(FleetCol::kLatencyMaxMs)), 0u);
    }
    // A fault-free fleet with a fast server passes the default SLOs.
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    EXPECT_EQ(slo.verdict, health::Verdict::kPass);
    // Every delivered upload lands in the latency histogram.
    EXPECT_EQ(report.telemetry.upload_latency_ms.count, 3u * 40u);
}

TEST(FleetHealth, SlowServerTripsTheBackpressureSlo) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    // The BackpressureDegradesInsteadOfDropping geometry: one queued batch,
    // 40-second service. Per round one batch is admitted, one queues, and
    // two are rejected — a 50% rejection rate the default SLO must FAIL and
    // pin to the first round.
    EngineConfig config = small_engine_config();
    config.server.queue_capacity = 1;
    config.server.service_seconds_per_batch = 40.0;
    const EngineReport report = run_small_engine(config);
    ASSERT_GT(report.total_backpressure_rejected, 0u);

    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.telemetry);
    EXPECT_EQ(slo.verdict, health::Verdict::kFail);
    bool saw_rule = false;
    for (const health::SloResult& rule : slo.rules) {
        if (rule.name != "backpressure_rejection_rate") continue;
        saw_rule = true;
        EXPECT_EQ(rule.verdict, health::Verdict::kFail);
        EXPECT_GE(rule.observed, 0.05);
        ASSERT_TRUE(rule.has_round);
        EXPECT_EQ(rule.first_violating_round, 0u);
    }
    EXPECT_TRUE(saw_rule);
}

TEST(FleetHealth, QueueDepthColumnCarriesThePeakSettledDepth) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    using health::FleetCol;
    using health::idx;
    // A zero-service server completes every batch at its arrival instant:
    // the settled depth never exceeds 0, even though batches transit the
    // queue — the column must NOT report phantom depth.
    const EngineReport healthy = run_small_engine(small_engine_config());
    for (std::size_t r = 0; r < healthy.telemetry.series.num_rows(); ++r) {
        EXPECT_EQ(healthy.telemetry.series.at(r, idx(FleetCol::kQueueDepthAtClose)), 0u);
    }
    // A slow server with queueing room builds a real backlog WITHIN the
    // round. Before the high-water change this column read the depth at
    // close (drained back down by then on mild backlogs); now it records
    // the round's peak, which the 40-second service time pins at >= 1.
    EngineConfig config = small_engine_config();
    config.server.queue_capacity = 4;
    config.server.service_seconds_per_batch = 40.0;
    const EngineReport backlogged = run_small_engine(config);
    EXPECT_GT(backlogged.telemetry.series.column_max(idx(FleetCol::kQueueDepthAtClose)),
              0u);
    // The scheduler's own backlog is surfaced alongside: every run holds at
    // least a round-end behind the arrivals in flight.
    EXPECT_GT(backlogged.max_event_queue_depth, 0u);
}

TEST(FleetHealth, FlightRecorderDumpsWhenEnvSet) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    const std::string path = ::testing::TempDir() + "drel_engine_flight.json";
    std::remove(path.c_str());
    ASSERT_EQ(::setenv("DREL_FLIGHT_RECORDER", path.c_str(), 1), 0);
    (void)run_small_engine(small_engine_config());
    ASSERT_EQ(::unsetenv("DREL_FLIGHT_RECORDER"), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const obs::JsonValue doc = obs::JsonValue::parse(buffer.str());
    // The ring holds the whole small run: every recorded event, in order
    // from the first, ending at the final round's close.
    const auto& events = doc.at("events").as_array();
    ASSERT_EQ(events.size(), doc.at("total_recorded").as_uint());
    EXPECT_LE(events.size(), doc.at("capacity").as_uint());
    std::size_t starts = 0;
    std::size_t ends = 0;
    std::uint64_t expected_seq = 0;
    for (const obs::JsonValue& event : events) {
        EXPECT_TRUE(event.at("virtual_time").is_number());
        EXPECT_EQ(event.at("seq").as_uint(), expected_seq++);
        starts += event.at("kind").as_string() == "round_start" ? 1 : 0;
        ends += event.at("kind").as_string() == "round_end" ? 1 : 0;
    }
    EXPECT_EQ(starts, 3u);
    EXPECT_EQ(ends, 3u);
    EXPECT_GT(events.size(), starts + ends);  // at least one upload arrival
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().at("kind").as_string(), "round_end");
    EXPECT_EQ(events.back().at("round").as_uint(), 2u);
    std::remove(path.c_str());
}

TEST(FleetEngine, ConfigValidationRejectsBadGeometry) {
    EngineConfig config = small_engine_config();
    config.deadline_seconds = 70.0;  // deadline past the round boundary
    EXPECT_THROW(run_small_engine(config), std::invalid_argument);
    config = small_engine_config();
    config.rounds = 0;
    EXPECT_THROW(run_small_engine(config), std::invalid_argument);
    config = small_engine_config();
    config.server.queue_capacity = 0;
    EXPECT_THROW(run_small_engine(config), std::invalid_argument);
}

// The round deadline is one decision: an active fault plan's
// round_deadline_seconds caps the upload retries, the engine's
// deadline_seconds caps latencies, and the engine refuses a run where the
// two differ, before any device draws. An inactive plan never retries, so
// its value is not checked.
TEST(FleetEngine, RejectsMismatchedRoundDeadlines) {
    FaultConfig faults;
    faults.upload_fail_prob = 0.2;
    faults.round_deadline_seconds = 20.0;
    EngineConfig config = small_engine_config();
    bool worked = false;
    const stats::Rng root(99);
    const FaultPlan plan(faults, root);
    const DeviceWork work = [&](std::size_t, std::size_t, stats::Rng&, util::Workspace&) {
        worked = true;
        return DeviceResult{};
    };
    const RoundEndFn round_end = [](std::size_t, CloudServer&) { return RoundEndDecision{}; };
    EXPECT_THROW(run_fleet_engine(config, root.fork(4), plan, work, round_end),
                 std::invalid_argument);
    EXPECT_FALSE(worked);

    config.deadline_seconds = 20.0;
    EXPECT_NO_THROW(run_small_engine(config, faults));
    FaultConfig inactive;
    inactive.round_deadline_seconds = 5.0;
    EXPECT_NO_THROW(run_small_engine(small_engine_config(), inactive));

    ScaleFleetConfig scale;
    scale.devices_per_round = 16;
    scale.rounds = 1;
    scale.faults = faults;
    stats::Rng rng(7);
    EXPECT_THROW(run_scale_fleet(scale, rng), std::invalid_argument);
}

// ------------------------------------------------------------- scale path

TEST(ScaleFleet, SmallRunRecoversModesAndStaysDeterministic) {
    ScaleFleetConfig config;
    config.devices_per_round = 600;
    config.rounds = 2;
    config.feature_dim = 4;
    config.num_modes = 3;
    config.num_threads = 1;
    config.num_shards = 4;
    stats::Rng rng_a(555);
    const ScaleFleetReport a = run_scale_fleet(config, rng_a);
    ASSERT_EQ(a.engine.rounds.size(), 2u);
    // Well-separated modes with an oracle prior: recovery is near-perfect.
    EXPECT_GT(a.mode_recovery_rate, 0.9);
    EXPECT_EQ(a.prior_components, 3u);
    EXPECT_GT(a.payload_bytes, 0u);
    EXPECT_GT(a.engine.bytes_per_device_round(), 0.0);

    config.num_threads = 4;
    stats::Rng rng_b(555);
    const ScaleFleetReport b = run_scale_fleet(config, rng_b);
    expect_reports_identical(a.engine, b.engine);
    EXPECT_TRUE(bits_equal(a.mode_recovery_rate, b.mode_recovery_rate));
}

TEST(ScaleFleet, ChaosRunDegradesGracefully) {
    ScaleFleetConfig config;
    config.devices_per_round = 400;
    config.rounds = 2;
    config.feature_dim = 4;
    config.num_modes = 3;
    config.num_threads = 2;
    config.faults = FaultConfig::uniform(0.2);
    stats::Rng rng(777);
    ScaleFleetReport report;
    ASSERT_NO_THROW(report = run_scale_fleet(config, rng));
    std::size_t crashed = 0;
    std::size_t stragglers = 0;
    for (const EngineRoundStats& round : report.engine.rounds) {
        crashed += round.crashed;
        stragglers += round.stragglers;
        EXPECT_LT(round.devices_scored, config.devices_per_round);
    }
    EXPECT_GT(crashed, 0u);
    EXPECT_GT(stragglers, 0u);
}

}  // namespace
}  // namespace drel::edgesim
