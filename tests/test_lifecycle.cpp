// Tests for the closed-loop lifecycle simulation. Every case runs under
// both cloud refit modes (test_support::for_each_refit_mode).
#include <gtest/gtest.h>

#include "edgesim/lifecycle.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

using test_support::for_each_refit_mode;

LifecycleConfig small_config(CloudRefitMode refit_mode) {
    LifecycleConfig config;
    config.feature_dim = 5;
    config.initial_modes = 2;
    config.initial_contributors = 12;
    config.contributor_samples = 200;
    config.rounds = 6;
    config.devices_per_round = 6;
    config.edge_samples = 16;
    config.test_samples = 600;
    config.gibbs_sweeps = 40;
    config.novel_mode_round = 2;
    config.learner.em.max_outer_iterations = 10;
    config.learner.transfer_weight = 2.0;
    config.refit_mode = refit_mode;
    return config;
}

TEST(Lifecycle, RunsAndReportsEveryRound) {
    for_each_refit_mode([](CloudRefitMode mode) {
        stats::Rng rng(1);
        const EngineReport report = run_lifecycle(small_config(mode), rng);
        ASSERT_EQ(report.rounds.size(), 6u);
        EXPECT_TRUE(report.rounds[0].rebroadcast);  // initial push
        EXPECT_GT(report.total_broadcast_bytes, 0u);
        EXPECT_GT(report.total_upload_bytes, 0u);
        for (const auto& r : report.rounds) {
            EXPECT_GT(r.mean_accuracy, 0.4);
            EXPECT_GE(r.prior_components, 2u);
        }
        // Novel devices exist from round 2 on.
        EXPECT_LT(report.rounds[1].novel_mode_accuracy, 0.0);
        EXPECT_GE(report.rounds[2].novel_mode_accuracy, 0.0);
    });
}

TEST(Lifecycle, FeedbackHelpsNovelDevices) {
    // Average over seeds: final-rounds novel accuracy with feedback must
    // beat the frozen-prior counterfactual.
    for_each_refit_mode([](CloudRefitMode mode) {
        double with_feedback = 0.0;
        double without_feedback = 0.0;
        int counted = 0;
        for (std::uint64_t seed = 10; seed < 14; ++seed) {
            LifecycleConfig config = small_config(mode);
            config.rounds = 7;
            stats::Rng rng_a(seed);
            const EngineReport fed = run_lifecycle(config, rng_a);
            config.feedback = false;
            stats::Rng rng_b(seed);
            const EngineReport frozen = run_lifecycle(config, rng_b);
            // Compare the last two rounds (the prior has had time to adapt).
            for (std::size_t r = config.rounds - 2; r < config.rounds; ++r) {
                if (fed.rounds[r].novel_mode_accuracy >= 0.0 &&
                    frozen.rounds[r].novel_mode_accuracy >= 0.0) {
                    with_feedback += fed.rounds[r].novel_mode_accuracy;
                    without_feedback += frozen.rounds[r].novel_mode_accuracy;
                    ++counted;
                }
            }
        }
        ASSERT_GT(counted, 0);
        EXPECT_GT(with_feedback / counted, without_feedback / counted - 0.02);
    });
}

TEST(Lifecycle, NoFeedbackMeansNoRebroadcastAfterRoundZero) {
    for_each_refit_mode([](CloudRefitMode mode) {
        LifecycleConfig config = small_config(mode);
        config.feedback = false;
        stats::Rng rng(20);
        const EngineReport report = run_lifecycle(config, rng);
        for (std::size_t r = 1; r < report.rounds.size(); ++r) {
            EXPECT_FALSE(report.rounds[r].rebroadcast);
        }
        EXPECT_EQ(report.total_upload_bytes, 0u);
    });
}

TEST(Lifecycle, FeedbackGrowsPriorAfterNovelMode) {
    for_each_refit_mode([](CloudRefitMode mode) {
        stats::Rng rng(30);
        LifecycleConfig config = small_config(mode);
        config.rounds = 7;
        const EngineReport report = run_lifecycle(config, rng);
        // Components reported for the FIRST round reflect the bootstrap
        // prior; by the last round the posterior should carry at least as
        // many atoms (typically one more for the novel type).
        EXPECT_GE(report.rounds.back().prior_components,
                  report.rounds.front().prior_components);
    });
}

TEST(Lifecycle, Validation) {
    for_each_refit_mode([](CloudRefitMode mode) {
        stats::Rng rng(40);
        LifecycleConfig bad = small_config(mode);
        bad.initial_contributors = 1;
        EXPECT_THROW(run_lifecycle(bad, rng), std::invalid_argument);
        bad = small_config(mode);
        bad.faults.crash_prob = 1.5;
        EXPECT_THROW(run_lifecycle(bad, rng), std::invalid_argument);
    });
}

TEST(Lifecycle, ZeroRoundsYieldsEmptyReport) {
    for_each_refit_mode([](CloudRefitMode mode) {
        LifecycleConfig config = small_config(mode);
        config.rounds = 0;
        stats::Rng rng(41);
        const EngineReport report = run_lifecycle(config, rng);
        EXPECT_TRUE(report.rounds.empty());
        EXPECT_EQ(report.total_broadcast_bytes, 0u);
        EXPECT_EQ(report.total_upload_bytes, 0u);
        EXPECT_EQ(report.total_upload_retries, 0u);
    });
}

TEST(Lifecycle, ZeroDevicesPerRoundYieldsEmptyReport) {
    for_each_refit_mode([](CloudRefitMode mode) {
        LifecycleConfig config = small_config(mode);
        config.devices_per_round = 0;
        stats::Rng rng(42);
        const EngineReport report = run_lifecycle(config, rng);
        EXPECT_TRUE(report.rounds.empty());
        EXPECT_EQ(report.total_broadcast_bytes, 0u);
        EXPECT_EQ(report.total_upload_bytes, 0u);
    });
}

TEST(Lifecycle, NovelModeRoundPastEndNeverActivates) {
    for_each_refit_mode([](CloudRefitMode mode) {
        LifecycleConfig config = small_config(mode);
        config.rounds = 3;
        config.novel_mode_round = static_cast<int>(config.rounds);  // >= rounds
        stats::Rng rng(43);
        const EngineReport report = run_lifecycle(config, rng);
        ASSERT_EQ(report.rounds.size(), 3u);
        for (const auto& r : report.rounds) {
            EXPECT_LT(r.novel_mode_accuracy, 0.0);  // no novel device ever scored
            EXPECT_GT(r.mean_accuracy, 0.0);
        }
    });
}

TEST(Lifecycle, FinalRoundNeverChargesARebroadcast) {
    // A negative KL threshold makes every round-end refresh ask for a
    // re-push. The fix under test: the LAST round has no next fleet, so its
    // would-be push is neither flagged nor billed. With a single round the
    // whole broadcast budget is exactly the bootstrap payload.
    for_each_refit_mode([](CloudRefitMode mode) {
        LifecycleConfig config = small_config(mode);
        config.rounds = 1;
        config.rebroadcast_kl_threshold = -1.0;
        stats::Rng rng(51);
        const EngineReport single = run_lifecycle(config, rng);
        ASSERT_EQ(single.rounds.size(), 1u);
        EXPECT_GT(single.total_broadcast_bytes, 0u);
        EXPECT_EQ(single.total_broadcast_bytes, single.rounds[0].broadcast_bytes);

        // With two rounds the round-0 push IS charged (payload x fleet
        // size), and round 1 — now final — again charges nothing.
        config.rounds = 2;
        stats::Rng rng2(51);
        const EngineReport pair = run_lifecycle(config, rng2);
        ASSERT_EQ(pair.rounds.size(), 2u);
        EXPECT_TRUE(pair.rounds[0].rebroadcast);
        EXPECT_GT(pair.rounds[0].broadcast_bytes, pair.rounds[1].broadcast_bytes);
        EXPECT_EQ(pair.rounds[1].broadcast_bytes, 0u);
        EXPECT_EQ(pair.total_broadcast_bytes,
                  pair.rounds[0].broadcast_bytes + pair.rounds[1].broadcast_bytes);
    });
}

TEST(Lifecycle, ReportIsBitIdenticalAcrossThreadAndShardCounts) {
    for_each_refit_mode([](CloudRefitMode mode) {
        LifecycleConfig config = small_config(mode);
        config.rounds = 3;
        stats::Rng rng(61);
        const EngineReport baseline = run_lifecycle(config, rng);
        const std::size_t thread_counts[] = {2, 4};
        const std::size_t shard_counts[] = {1, 3, 6};
        for (const std::size_t threads : thread_counts) {
            for (const std::size_t shards : shard_counts) {
                config.num_threads = threads;
                config.num_shards = shards;
                stats::Rng rng_i(61);
                const EngineReport report = run_lifecycle(config, rng_i);
                ASSERT_EQ(report.rounds.size(), baseline.rounds.size());
                EXPECT_EQ(report.total_broadcast_bytes, baseline.total_broadcast_bytes);
                EXPECT_EQ(report.total_upload_bytes, baseline.total_upload_bytes);
                for (std::size_t r = 0; r < report.rounds.size(); ++r) {
                    EXPECT_DOUBLE_EQ(report.rounds[r].mean_accuracy,
                                     baseline.rounds[r].mean_accuracy);
                    EXPECT_EQ(report.rounds[r].device_degraded,
                              baseline.rounds[r].device_degraded);
                    EXPECT_EQ(report.rounds[r].prior_components,
                              baseline.rounds[r].prior_components);
                }
            }
        }
    });
}

}  // namespace
}  // namespace drel::edgesim
