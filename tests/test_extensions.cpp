// Tests for the model-selection and streaming extensions.
#include <gtest/gtest.h>

#include "core/model_selection.hpp"
#include "core/streaming.hpp"
#include "data/task_generator.hpp"
#include "models/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::core {
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
    models::Dataset test = population.generate(task, 2000, rng, options);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (const auto& mode : population.modes()) {
        weights.push_back(mode.weight);
        atoms.emplace_back(mode.mean, mode.covariance);
    }
    return Fixture{std::move(population), std::move(task), std::move(train), std::move(test),
                   dp::MixturePrior(std::move(weights), std::move(atoms))};
}

// --------------------------------------------------------- model selection

TEST(ModelSelection, GridIsFullyEvaluated) {
    const Fixture f = make_fixture(1, 32);
    SelectionGrid grid;
    grid.radius_coefficients = {0.0, 0.25};
    grid.transfer_weights = {0.5, 2.0};
    grid.num_folds = 4;
    stats::Rng rng(2);
    EdgeLearnerConfig base;
    base.em.max_outer_iterations = 8;
    const SelectionResult r = select_edge_config(f.train, f.prior, base, grid, rng);
    EXPECT_EQ(r.table.size(), 4u);
    for (const SelectionCell& cell : r.table) {
        EXPECT_GE(cell.cv_accuracy, 0.0);
        EXPECT_LE(cell.cv_accuracy, 1.0);
        EXPECT_GE(cell.cv_log_loss, 0.0);
    }
}

TEST(ModelSelection, BestCellHasMinimalLogLoss) {
    const Fixture f = make_fixture(3, 32);
    SelectionGrid grid;
    grid.radius_coefficients = {0.0, 0.25, 1.0};
    grid.transfer_weights = {1.0};
    stats::Rng rng(4);
    EdgeLearnerConfig base;
    base.em.max_outer_iterations = 8;
    const SelectionResult r = select_edge_config(f.train, f.prior, base, grid, rng);
    for (const SelectionCell& cell : r.table) {
        EXPECT_GE(cell.cv_log_loss, r.best_cell.cv_log_loss - 1e-12);
    }
    EXPECT_DOUBLE_EQ(r.best.radius_coefficient, r.best_cell.radius_coefficient);
    EXPECT_DOUBLE_EQ(r.best.transfer_weight, r.best_cell.transfer_weight);
}

TEST(ModelSelection, SelectedConfigGeneralizesReasonably) {
    // The auto-tuned config must be at least about as good on held-out data
    // as the worst grid cell (sanity: CV is not anti-correlated with test).
    const Fixture f = make_fixture(5, 40);
    SelectionGrid grid;
    grid.radius_coefficients = {0.0, 0.25, 1.0};
    grid.transfer_weights = {0.25, 4.0};
    stats::Rng rng(6);
    EdgeLearnerConfig base;
    base.em.max_outer_iterations = 8;
    const SelectionResult r = select_edge_config(f.train, f.prior, base, grid, rng);

    double worst_acc = 1.0;
    for (const SelectionCell& cell : r.table) {
        EdgeLearnerConfig config = base;
        config.radius_coefficient = cell.radius_coefficient;
        config.transfer_weight = cell.transfer_weight;
        const EdgeLearner learner(f.prior, config);
        worst_acc = std::min(worst_acc,
                             models::accuracy(learner.fit(f.train).model, f.test));
    }
    const EdgeLearner tuned(f.prior, r.best);
    EXPECT_GE(models::accuracy(tuned.fit(f.train).model, f.test), worst_acc - 0.02);
}

TEST(ModelSelection, Validation) {
    const Fixture f = make_fixture(7, 6);
    stats::Rng rng(8);
    SelectionGrid grid;
    grid.num_folds = 4;  // 6 samples < 2*4
    EXPECT_THROW(select_edge_config(f.train, f.prior, {}, grid, rng), std::invalid_argument);
    const Fixture big = make_fixture(7, 32);
    SelectionGrid empty;
    empty.radius_coefficients.clear();
    EXPECT_THROW(select_edge_config(big.train, big.prior, {}, empty, rng),
                 std::invalid_argument);
    SelectionGrid one_fold;
    one_fold.num_folds = 1;
    EXPECT_THROW(select_edge_config(big.train, big.prior, {}, one_fold, rng),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- streaming

TEST(Streaming, AccumulatesAndShrinksRadius) {
    const Fixture f = make_fixture(10, 64);
    StreamingConfig config;
    config.learner.em.max_outer_iterations = 10;
    StreamingEdgeLearner learner(f.prior, config);
    EXPECT_THROW(learner.current_model(), std::logic_error);

    stats::Rng rng(11);
    data::DataOptions options;
    options.margin_scale = 2.0;
    double previous_radius = 1e18;
    for (int round = 0; round < 4; ++round) {
        const StreamingRound r =
            learner.observe(f.population.generate(f.task, 8, rng, options));
        EXPECT_EQ(r.total_samples, 8u * (round + 1));
        EXPECT_LT(r.chosen_radius, previous_radius);
        previous_radius = r.chosen_radius;
    }
    EXPECT_EQ(learner.rounds(), 4u);
    EXPECT_EQ(learner.accumulated_data().size(), 32u);
}

TEST(Streaming, AccuracyImprovesWithRounds) {
    double first_total = 0.0;
    double last_total = 0.0;
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        const Fixture f = make_fixture(seed, 8);
        StreamingConfig config;
        config.learner.em.max_outer_iterations = 10;
        StreamingEdgeLearner learner(f.prior, config);
        stats::Rng rng(seed + 100);
        data::DataOptions options;
        options.margin_scale = 2.0;
        learner.observe(f.population.generate(f.task, 8, rng, options));
        first_total += models::accuracy(learner.current_model(), f.test);
        for (int round = 0; round < 5; ++round) {
            learner.observe(f.population.generate(f.task, 32, rng, options));
        }
        last_total += models::accuracy(learner.current_model(), f.test);
    }
    EXPECT_GE(last_total, first_total - 1e-9);
}

TEST(Streaming, WarmStartUsesFewerIterations) {
    const Fixture f = make_fixture(30, 8);
    stats::Rng rng(31);
    data::DataOptions options;
    options.margin_scale = 2.0;
    std::vector<models::Dataset> batches;
    for (int round = 0; round < 5; ++round) {
        batches.push_back(f.population.generate(f.task, 16, rng, options));
    }

    auto run = [&](bool warm) {
        StreamingConfig config;
        config.warm_start = warm;
        config.learner.em.max_outer_iterations = 30;
        StreamingEdgeLearner learner(f.prior, config);
        int total_iterations = 0;
        for (const auto& batch : batches) total_iterations += learner.observe(batch).em_iterations;
        return total_iterations;
    };
    // Cold solves run the full multi-start every round.
    EXPECT_LT(run(true), run(false));
}

TEST(Streaming, MatchesBatchFitOnSameData) {
    const Fixture f = make_fixture(40, 48);
    StreamingConfig config;
    config.learner.em.max_outer_iterations = 30;
    StreamingEdgeLearner streaming(f.prior, config);
    // Feed the whole training set as one batch: must equal EdgeLearner::fit.
    streaming.observe(f.train);
    const EdgeLearner batch(f.prior, config.learner);
    const FitResult fit = batch.fit(f.train);
    EXPECT_NEAR(models::accuracy(streaming.current_model(), f.test),
                models::accuracy(fit.model, f.test), 0.01);
}

TEST(Streaming, Validation) {
    const Fixture f = make_fixture(50, 8);
    StreamingEdgeLearner learner(f.prior, {});
    const models::Dataset wrong(test_support::matrix_of(2, 2, {1.0, 1.0, -1.0, 1.0}),
                                {1.0, -1.0});
    EXPECT_THROW(learner.observe(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace drel::core
