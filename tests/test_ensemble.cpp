// Tests for the component-posterior ensemble learner.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/edge_learner.hpp"
#include "core/ensemble.hpp"
#include "data/task_generator.hpp"
#include "models/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

struct Fixture {
    data::TaskPopulation population;
    data::TaskSpec task;
    models::Dataset train;
    models::Dataset test;
    dp::MixturePrior prior;
};

Fixture make_fixture(std::uint64_t seed, std::size_t n_train) {
    stats::Rng rng(seed);
    data::TaskPopulation population =
        data::TaskPopulation::make_synthetic(5, 3, 2.5, 0.05, rng);
    data::TaskSpec task = population.sample_task(rng);
    data::DataOptions options;
    options.margin_scale = 2.0;
    models::Dataset train = population.generate(task, n_train, rng, options);
    models::Dataset test = population.generate(task, 2500, rng, options);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (const auto& mode : population.modes()) {
        weights.push_back(mode.weight);
        atoms.emplace_back(mode.mean, mode.covariance);
    }
    return Fixture{std::move(population), std::move(task), std::move(train), std::move(test),
                   dp::MixturePrior(std::move(weights), std::move(atoms))};
}

TEST(Ensemble, WeightsFormDistributionAndExpertsMatchComponents) {
    const Fixture f = make_fixture(10, 20);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const core::EnsembleModel model = learner.fit(f.train);
    EXPECT_EQ(model.num_experts(), f.prior.num_components());
    EXPECT_NEAR(linalg::sum(model.weights()), 1.0, 1e-12);
}

TEST(Ensemble, ConcentratesOnTrueModeWithEnoughData) {
    const Fixture f = make_fixture(11, 96);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const core::EnsembleModel model = learner.fit(f.train);
    EXPECT_EQ(linalg::argmax(model.weights()), f.task.mode_index);
    EXPECT_GT(model.weights()[f.task.mode_index], 0.9);
}

TEST(Ensemble, ProbabilitiesAreValidAndPredictConsistently) {
    const Fixture f = make_fixture(12, 16);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const core::EnsembleModel model = learner.fit(f.train);
    for (std::size_t i = 0; i < 20; ++i) {
        const double p = model.predict_probability(f.test.feature_row(i));
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_DOUBLE_EQ(model.predict_class(f.test.feature_row(i)), p >= 0.5 ? 1.0 : -1.0);
    }
}

TEST(Ensemble, CompetitiveWithPointEstimateOnAverage) {
    double ensemble_total = 0.0;
    double point_total = 0.0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
        const Fixture f = make_fixture(100 + t, 10);
        core::EnsembleConfig config;
        config.transfer_weight = 2.0;
        const core::EnsembleEdgeLearner ensemble_learner(f.prior, config);
        ensemble_total += ensemble_learner.fit(f.train).accuracy(f.test);

        core::EdgeLearnerConfig point_config;
        point_config.transfer_weight = 2.0;
        const core::EdgeLearner point_learner(f.prior, point_config);
        point_total += models::accuracy(point_learner.fit(f.train).model, f.test);
    }
    // The hedge must not lose on average at ambiguous sample sizes.
    EXPECT_GE(ensemble_total / trials, point_total / trials - 0.01);
}

TEST(Ensemble, Validation) {
    const Fixture f = make_fixture(14, 10);
    core::EnsembleConfig bad;
    bad.transfer_weight = -1.0;
    EXPECT_THROW(core::EnsembleEdgeLearner(f.prior, bad), std::invalid_argument);
    const core::EnsembleEdgeLearner learner(f.prior, {});
    const models::Dataset wrong(test_support::matrix_of(2, 2, {1.0, 1.0, -1.0, 1.0}),
                                {1.0, -1.0});
    EXPECT_THROW(learner.fit(wrong), std::invalid_argument);
    EXPECT_THROW(core::EnsembleModel({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace drel
