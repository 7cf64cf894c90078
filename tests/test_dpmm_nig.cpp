// Tests for the Normal-Inverse-Gamma DPMM (learned per-cluster spreads).
#include <gtest/gtest.h>

#include <cmath>

#include "dp/dpmm_nig.hpp"
#include "stats/rng.hpp"

namespace drel::dp {
namespace {

NigConfig nig_config(std::size_t dim) {
    NigConfig config;
    config.base_mean = linalg::zeros(dim);
    config.kappa0 = 0.02;
    config.a0 = 2.5;
    config.b0 = 0.5;
    config.num_sweeps = 80;
    return config;
}

/// Two planted clusters with VERY different spreads — the case the fixed-Sw
/// model cannot represent.
std::vector<linalg::Vector> heteroscedastic_observations(stats::Rng& rng,
                                                         std::size_t per_cluster) {
    std::vector<linalg::Vector> obs;
    for (std::size_t i = 0; i < per_cluster; ++i) {
        // Tight cluster at (8, 0), sd 0.2.
        obs.push_back({8.0 + 0.2 * rng.normal(), 0.2 * rng.normal()});
    }
    for (std::size_t i = 0; i < per_cluster; ++i) {
        // Loose cluster at (-8, 0), sd 1.5.
        obs.push_back({-8.0 + 1.5 * rng.normal(), 1.5 * rng.normal()});
    }
    return obs;
}

TEST(DpmmNig, RecoversHeteroscedasticClusters) {
    // What the NIG model must get right on every draw: no cluster mixes the
    // two planted clusters, and the tight one is never split. Exact
    // two-cluster recovery is a frequency, not a certainty: the sd-1.5
    // cluster sits far outside the prior's expected variance (b0/(a0-1) =
    // 1/3) and sometimes splits into 2-4 pieces. Over seeds 0-199 the exact
    // partition comes back on 160/200 (xoshiro256** streams) and 163/200
    // (mt19937_64), with no impure or tight-split run on either. Requiring
    // it on at least half of 30 seeds fails with probability 2e-5 at the
    // mt19937_64 rate (binomial tail; 5e-5 at 0.80).
    int exact = 0;
    const int seeds = 30;
    for (int seed = 1; seed <= seeds; ++seed) {
        stats::Rng rng(static_cast<std::uint64_t>(seed));
        DpmmNigGibbs sampler(heteroscedastic_observations(rng, 25), nig_config(2));
        sampler.run(rng);
        const auto& z = sampler.assignments();
        for (std::size_t i = 0; i < 25; ++i) {
            EXPECT_EQ(z[i], z[0]) << "tight cluster split, seed " << seed;
            for (std::size_t j = 25; j < 50; ++j) {
                ASSERT_NE(z[i], z[j]) << "planted clusters mixed, seed " << seed;
            }
        }
        bool loose_whole = true;
        for (std::size_t i = 26; i < 50; ++i) loose_whole = loose_whole && z[i] == z[25];
        if (sampler.num_clusters() == 2 && loose_whole) ++exact;
    }
    EXPECT_GE(exact, seeds / 2);
}

TEST(DpmmNig, LearnsDifferentSpreads) {
    stats::Rng rng(2);
    DpmmNigGibbs sampler(heteroscedastic_observations(rng, 40), nig_config(2));
    sampler.run(rng);
    ASSERT_EQ(sampler.num_clusters(), 2u);
    const auto summaries = sampler.cluster_summaries();
    // Identify clusters by mean sign.
    const auto& tight = summaries[summaries[0].mean[0] > 0.0 ? 0 : 1];
    const auto& loose = summaries[summaries[0].mean[0] > 0.0 ? 1 : 0];
    EXPECT_NEAR(tight.mean[0], 8.0, 0.3);
    EXPECT_NEAR(loose.mean[0], -8.0, 0.8);
    // Learned predictive variances must reflect the planted 0.04 vs 2.25.
    EXPECT_LT(tight.variance[0], 0.25);
    EXPECT_GT(loose.variance[0], 1.0);
    EXPECT_GT(loose.variance[0] / tight.variance[0], 5.0);
}

TEST(DpmmNig, ExtractedPriorReflectsSpreads) {
    stats::Rng rng(3);
    DpmmNigGibbs sampler(heteroscedastic_observations(rng, 40), nig_config(2));
    sampler.run(rng);
    const MixturePrior prior = sampler.extract_prior(false);
    ASSERT_EQ(prior.num_components(), 2u);
    // The prior should judge a point 1.0 away from the loose center as far
    // more plausible than a point 1.0 away from the tight center.
    const bool first_is_tight = prior.atom(0).mean()[0] > 0.0;
    const auto& tight_atom = prior.atom(first_is_tight ? 0 : 1);
    const auto& loose_atom = prior.atom(first_is_tight ? 1 : 0);
    linalg::Vector near_tight = tight_atom.mean();
    near_tight[0] += 1.0;
    linalg::Vector near_loose = loose_atom.mean();
    near_loose[0] += 1.0;
    EXPECT_GT(loose_atom.log_pdf(near_loose) - loose_atom.log_pdf(loose_atom.mean()),
              tight_atom.log_pdf(near_tight) - tight_atom.log_pdf(tight_atom.mean()));
}

TEST(DpmmNig, LogJointImprovesFromColdStart) {
    stats::Rng rng(4);
    DpmmNigGibbs sampler(heteroscedastic_observations(rng, 20), nig_config(2));
    const double before = sampler.log_joint();
    sampler.run(rng);
    EXPECT_GT(sampler.log_joint(), before);
}

TEST(DpmmNig, SingleClusterDataCollapses) {
    stats::Rng rng(5);
    std::vector<linalg::Vector> obs;
    for (int i = 0; i < 40; ++i) obs.push_back({0.3 * rng.normal(), 0.3 * rng.normal()});
    DpmmNigGibbs sampler(std::move(obs), nig_config(2));
    sampler.run(rng);
    EXPECT_EQ(sampler.num_clusters(), 1u);
}

TEST(DpmmNig, PriorWeightsNormalized) {
    stats::Rng rng(6);
    DpmmNigGibbs sampler(heteroscedastic_observations(rng, 15), nig_config(2));
    sampler.run(rng);
    const MixturePrior with_base = sampler.extract_prior(true);
    EXPECT_NEAR(linalg::sum(with_base.weights()), 1.0, 1e-12);
    EXPECT_EQ(with_base.num_components(), sampler.num_clusters() + 1);
}

TEST(DpmmNig, Validation) {
    EXPECT_THROW(DpmmNigGibbs({}, nig_config(2)), std::invalid_argument);
    NigConfig bad = nig_config(2);
    bad.a0 = 0.5;  // predictive variance undefined
    EXPECT_THROW(DpmmNigGibbs({{1.0, 2.0}}, bad), std::invalid_argument);
    NigConfig mismatched = nig_config(3);
    EXPECT_THROW(DpmmNigGibbs({{1.0, 2.0}}, mismatched), std::invalid_argument);
}

}  // namespace
}  // namespace drel::dp
