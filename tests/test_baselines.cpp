#include <gtest/gtest.h>

#include <set>

#include "baselines/trainers.hpp"
#include "data/task_generator.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::baselines {
namespace {

using Fixture = test_support::PopulationFixture;

Fixture make_fixture(std::uint64_t seed, std::size_t n_train = 20) {
    return test_support::make_population_fixture(seed, n_train, /*n_test=*/2000);
}

TEST(Baselines, LocalErmMatchesDirectMinimization) {
    const Fixture f = make_fixture(1);
    const auto trainer = make_local_erm(models::LossKind::kLogistic);
    const models::LinearModel model = trainer->fit(f.train);
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective erm(f.train, *loss);
    const auto direct = optim::minimize_lbfgs(erm, linalg::zeros(f.train.dim()));
    EXPECT_NEAR(erm.value(model.weights()), direct.value, 1e-6);
    EXPECT_EQ(trainer->name(), "local-erm");
}

TEST(Baselines, RidgeShrinksRelativeToErm) {
    const Fixture f = make_fixture(2);
    const auto erm_model = make_local_erm(models::LossKind::kLogistic)->fit(f.train);
    const auto ridge_model =
        make_ridge_erm(models::LossKind::kLogistic, 50.0)->fit(f.train);
    EXPECT_LT(linalg::norm2(ridge_model.weights()), linalg::norm2(erm_model.weights()));
}

TEST(Baselines, CloudOnlyReturnsPriorMean) {
    const Fixture f = make_fixture(3);
    const auto model = make_cloud_only(f.prior)->fit(f.train);
    EXPECT_NEAR(linalg::distance2(model.weights(), f.prior.mean()), 0.0, 1e-15);
}

TEST(Baselines, FinetuneStartsFromCloudAndImproves) {
    const Fixture f = make_fixture(4);
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective erm(f.train, *loss);
    const auto model = make_finetune(f.prior, models::LossKind::kLogistic, 5)->fit(f.train);
    // Better training loss than the untouched cloud mean...
    EXPECT_LT(erm.value(model.weights()), erm.value(f.prior.mean()) + 1e-12);
    // ...but with only 5 steps, not yet at the ERM optimum in general.
    EXPECT_THROW(make_finetune(f.prior, models::LossKind::kLogistic, 0),
                 std::invalid_argument);
}

TEST(Baselines, MapGaussianInterpolatesTowardPrior) {
    const Fixture f = make_fixture(5, 8);
    const auto weak = make_map_gaussian(f.prior, models::LossKind::kLogistic, 0.01);
    const auto strong = make_map_gaussian(f.prior, models::LossKind::kLogistic, 1000.0);
    const linalg::Vector prior_mean = f.prior.moment_matched_gaussian().mean();
    const double dist_weak =
        linalg::distance2(weak->fit(f.train).weights(), prior_mean);
    const double dist_strong =
        linalg::distance2(strong->fit(f.train).weights(), prior_mean);
    EXPECT_LT(dist_strong, dist_weak);
}

TEST(Baselines, DroOnlyNamesItsAmbiguity) {
    const auto wass = make_dro_only(models::LossKind::kLogistic, dro::AmbiguityKind::kWasserstein);
    EXPECT_EQ(wass->name(), "dro-only(wasserstein)");
    const auto kl = make_dro_only(models::LossKind::kLogistic, dro::AmbiguityKind::kKl);
    EXPECT_EQ(kl->name(), "dro-only(kl)");
}

TEST(Baselines, DroOnlyProducesSmallerWeightsThanErm) {
    const Fixture f = make_fixture(6);
    const auto erm_model = make_local_erm(models::LossKind::kLogistic)->fit(f.train);
    const auto dro_model =
        make_dro_only(models::LossKind::kLogistic, dro::AmbiguityKind::kWasserstein, 1.0)
            ->fit(f.train);
    EXPECT_LT(linalg::norm2(dro_model.weights()), linalg::norm2(erm_model.weights()) + 1e-9);
}

TEST(Baselines, EmDroTrainerWrapsEdgeLearner) {
    const Fixture f = make_fixture(8);
    core::EdgeLearnerConfig config;
    config.em.max_outer_iterations = 10;
    const auto trainer = make_em_dro(f.prior, config);
    EXPECT_EQ(trainer->name(), "em-dro");
    const models::LinearModel model = trainer->fit(f.train);
    EXPECT_GT(models::accuracy(model, f.test), 0.5);
}

TEST(Baselines, StandardSuiteHasSevenDistinctMethods) {
    const Fixture f = make_fixture(9);
    const auto suite = make_standard_suite(f.prior, models::LossKind::kLogistic);
    EXPECT_EQ(suite.size(), 7u);
    std::set<std::string> names;
    for (const auto& t : suite) names.insert(t->name());
    EXPECT_EQ(names.size(), 7u);
}

TEST(Baselines, SuiteAllFitWithoutError) {
    const Fixture f = make_fixture(10, 16);
    for (const auto& trainer : make_standard_suite(f.prior, models::LossKind::kLogistic)) {
        const models::LinearModel model = trainer->fit(f.train);
        const double acc = models::accuracy(model, f.test);
        EXPECT_GE(acc, 0.3) << trainer->name();
        EXPECT_LE(acc, 1.0) << trainer->name();
    }
}

}  // namespace
}  // namespace drel::baselines
