// Tests for prior diagnostics and incremental cloud updates.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dp/dpmm_gibbs.hpp"
#include "dp/prior_diagnostics.hpp"
#include "stats/rng.hpp"

namespace drel::dp {
namespace {

MixturePrior tight_prior() {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({5.0, 0.0}, 0.3));
    atoms.push_back(stats::MultivariateNormal::isotropic({-5.0, 0.0}, 0.3));
    return MixturePrior({0.5, 0.5}, std::move(atoms));
}

MixturePrior shifted_prior(double shift) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({5.0 + shift, 0.0}, 0.3));
    atoms.push_back(stats::MultivariateNormal::isotropic({-5.0 + shift, 0.0}, 0.3));
    return MixturePrior({0.5, 0.5}, std::move(atoms));
}

// -------------------------------------------------------------- diagnostics

TEST(PriorDiagnostics, SymmetricKlZeroForIdenticalGrowsWithShift) {
    stats::Rng rng(2);
    const MixturePrior p = tight_prior();
    const double self = symmetric_kl_estimate(p, tight_prior(), 400, rng);
    EXPECT_NEAR(self, 0.0, 0.05);
    const double small = symmetric_kl_estimate(p, shifted_prior(0.5), 400, rng);
    const double large = symmetric_kl_estimate(p, shifted_prior(2.0), 400, rng);
    EXPECT_GT(small, self);
    EXPECT_GT(large, small);
}

// ------------------------------------------------------- incremental Gibbs

DpmmConfig incremental_config() {
    DpmmConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.num_sweeps = 50;
    return config;
}

TEST(IncrementalGibbs, NewObservationJoinsItsCluster) {
    stats::Rng rng(4);
    std::vector<linalg::Vector> obs;
    for (int i = 0; i < 15; ++i) obs.push_back({6.0 + 0.3 * rng.normal(), 0.3 * rng.normal()});
    for (int i = 0; i < 15; ++i) obs.push_back({-6.0 + 0.3 * rng.normal(), 0.3 * rng.normal()});
    DpmmGibbs sampler(obs, incremental_config());
    sampler.run(rng);
    ASSERT_EQ(sampler.num_clusters(), 2u);

    // A clearly right-cluster point must land with the right-cluster members.
    sampler.add_observation({6.1, 0.1}, rng, 0);
    EXPECT_EQ(sampler.assignments().back(), sampler.assignments()[0]);
    EXPECT_EQ(sampler.num_observations(), 31u);
    EXPECT_EQ(sampler.num_clusters(), 2u);
}

TEST(IncrementalGibbs, NovelDeviceTypeSpawnsNewCluster) {
    stats::Rng rng(5);
    std::vector<linalg::Vector> obs;
    for (int i = 0; i < 20; ++i) obs.push_back({6.0 + 0.3 * rng.normal(), 0.3 * rng.normal()});
    DpmmGibbs sampler(obs, incremental_config());
    sampler.run(rng);
    ASSERT_EQ(sampler.num_clusters(), 1u);
    // Far-away arrivals should open a second cluster within a few updates.
    for (int i = 0; i < 5; ++i) {
        sampler.add_observation({-8.0 + 0.2 * rng.normal(), 0.2 * rng.normal()}, rng, 2);
    }
    EXPECT_GE(sampler.num_clusters(), 2u);
}

TEST(IncrementalGibbs, IncrementalPriorTracksBatchRefit) {
    stats::Rng rng(6);
    std::vector<linalg::Vector> initial;
    for (int i = 0; i < 12; ++i) {
        initial.push_back({6.0 + 0.3 * rng.normal(), 0.3 * rng.normal()});
    }
    std::vector<linalg::Vector> arrivals;
    for (int i = 0; i < 12; ++i) {
        arrivals.push_back({-6.0 + 0.3 * rng.normal(), 0.3 * rng.normal()});
    }

    // Incremental path.
    stats::Rng inc_rng(7);
    DpmmGibbs incremental(initial, incremental_config());
    incremental.run(inc_rng);
    for (const auto& theta : arrivals) incremental.add_observation(theta, inc_rng, 3);
    const MixturePrior inc_prior = incremental.extract_prior(false);

    // Batch path on the union.
    std::vector<linalg::Vector> all = initial;
    all.insert(all.end(), arrivals.begin(), arrivals.end());
    stats::Rng batch_rng(8);
    DpmmGibbs batch(all, incremental_config());
    batch.run(batch_rng);
    const MixturePrior batch_prior = batch.extract_prior(false);

    ASSERT_EQ(inc_prior.num_components(), batch_prior.num_components());
    // Densities agree at the cluster centers.
    const std::vector<linalg::Vector> probes = {{6.0, 0.0}, {-6.0, 0.0}};
    for (const linalg::Vector& probe : probes) {
        EXPECT_NEAR(inc_prior.log_pdf(probe), batch_prior.log_pdf(probe), 0.5);
    }
}

TEST(IncrementalGibbs, Validation) {
    stats::Rng rng(9);
    DpmmGibbs sampler({{1.0, 2.0}, {1.1, 2.0}, {-1.0, 0.0}, {-1.2, 0.1}}, incremental_config());
    EXPECT_THROW(sampler.add_observation({1.0}, rng), std::invalid_argument);
    EXPECT_THROW(sampler.add_observation({1.0, 2.0}, rng, -1), std::invalid_argument);

    // A non-finite observation is rejected before anything is stored, so
    // the sampler keeps its size and can still sweep and ship a prior.
    EXPECT_THROW(sampler.add_observation({std::numeric_limits<double>::quiet_NaN(), 0.0}, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampler.add_observation({0.0, std::numeric_limits<double>::infinity()}, rng),
                 std::invalid_argument);
    EXPECT_EQ(sampler.num_observations(), 4u);
    EXPECT_NO_THROW(sampler.sweep(rng));
    EXPECT_NO_THROW(sampler.extract_prior());
}

}  // namespace
}  // namespace drel::dp
