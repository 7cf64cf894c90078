// Tests for the multiclass softmax extension: model, objectives, generator,
// the SoftmaxEdgeLearner end to end, and the multiclass f-divergence DRO
// objectives.
#include <gtest/gtest.h>

#include <cmath>

#include "core/softmax_edge_learner.hpp"
#include "data/multiclass_generator.hpp"
#include "dro/softmax_dro.hpp"
#include "models/softmax.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

using models::SoftmaxErmObjective;
using models::SoftmaxModel;
using models::SoftmaxWassersteinObjective;

models::Dataset multiclass_fixture(stats::Rng& rng, std::size_t n, std::size_t num_classes,
                                   data::MulticlassTaskSpec* task_out = nullptr) {
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(5, num_classes, 3, 2.5, 0.05, rng);
    const data::MulticlassTaskSpec task = pop.sample_task(rng);
    if (task_out) *task_out = task;
    data::MulticlassDataOptions options;
    options.margin_scale = 2.0;
    return pop.generate(task, n, rng, options);
}

// ------------------------------------------------------------------- model

TEST(SoftmaxModel, ShapeAndAccessors) {
    const SoftmaxModel model(3, linalg::Vector(12, 0.5));
    EXPECT_EQ(model.num_classes(), 3u);
    EXPECT_EQ(model.feature_dim(), 4u);
    EXPECT_THROW(SoftmaxModel(1, linalg::Vector(4, 0.0)), std::invalid_argument);
    EXPECT_THROW(SoftmaxModel(3, linalg::Vector(10, 0.0)), std::invalid_argument);
}

TEST(SoftmaxModel, ProbabilitiesFormDistribution) {
    stats::Rng rng(1);
    const SoftmaxModel model(4, rng.standard_normal_vector(4 * 6));
    const linalg::Vector x = rng.standard_normal_vector(6);
    const linalg::Vector p = model.probabilities(x);
    EXPECT_NEAR(linalg::sum(p), 1.0, 1e-12);
    for (const double v : p) EXPECT_GT(v, 0.0);
    EXPECT_EQ(model.predict(x), linalg::argmax(p));
}

TEST(SoftmaxModel, ExampleLossMatchesManual) {
    stats::Rng rng(2);
    const SoftmaxModel model(3, rng.standard_normal_vector(3 * 4));
    const linalg::Vector x = rng.standard_normal_vector(4);
    const linalg::Vector p = model.probabilities(x);
    EXPECT_NEAR(model.example_loss(x, 1), -std::log(p[1]), 1e-10);
}

TEST(SoftmaxModel, TwoClassSoftmaxMatchesLogistic) {
    // W = [w; 0] makes softmax CE(class 0) equal the logistic loss of margin
    // <w, x>.
    stats::Rng rng(3);
    const linalg::Vector w = rng.standard_normal_vector(4);
    linalg::Vector stacked = w;
    stacked.insert(stacked.end(), 4, 0.0);
    const SoftmaxModel model(2, stacked);
    const linalg::Vector x = rng.standard_normal_vector(4);
    const double margin = linalg::dot(w, x);
    EXPECT_NEAR(model.example_loss(x, 0), std::log1p(std::exp(-margin)), 1e-10);
}

TEST(SoftmaxModel, PairwiseFeatureNormKnownCase) {
    // Two classes, d=3 (2 perturbable + bias): rows (1,0,b1), (0,2,b2).
    const SoftmaxModel model(2, {1.0, 0.0, 5.0, 0.0, 2.0, -3.0});
    EXPECT_NEAR(model.pairwise_feature_norm(2), std::sqrt(1.0 + 4.0), 1e-12);
    // Full dim includes the bias difference.
    EXPECT_NEAR(model.pairwise_feature_norm(3), std::sqrt(1.0 + 4.0 + 64.0), 1e-12);
}

// -------------------------------------------------------------- objectives

TEST(SoftmaxErm, GradientMatchesNumerical) {
    stats::Rng rng(4);
    const models::Dataset d = multiclass_fixture(rng, 20, 3);
    const SoftmaxErmObjective objective(d, 3, 0.05);
    const linalg::Vector theta = rng.standard_normal_vector(objective.dim());
    EXPECT_LT(linalg::distance2(objective.gradient(theta),
                                objective.numerical_gradient(theta)),
              1e-4);
}

TEST(SoftmaxErm, RejectsBadLabels) {
    const models::Dataset bad(test_support::matrix_of(2, 3, {1.0, 0.0, 1.0, 0.0, 1.0, 1.0}),
                              {0.0, 5.0});
    EXPECT_THROW(SoftmaxErmObjective(bad, 3), std::invalid_argument);
    const models::Dataset fractional(test_support::matrix_of(1, 2, {1.0, 1.0}), {0.5});
    EXPECT_THROW(SoftmaxErmObjective(fractional, 3), std::invalid_argument);
}

TEST(SoftmaxErm, TrainingSeparatesEasyData) {
    stats::Rng rng(5);
    data::MulticlassTaskSpec task;
    const models::Dataset train = multiclass_fixture(rng, 300, 3, &task);
    const SoftmaxErmObjective objective(train, 3, 0.01);
    const auto r = optim::minimize_lbfgs(objective, linalg::zeros(objective.dim()));
    const SoftmaxModel model(3, r.x);
    EXPECT_GT(models::softmax_accuracy(model, train), 0.8);
}

TEST(SoftmaxWasserstein, GradientMatchesNumerical) {
    stats::Rng rng(6);
    const models::Dataset d = multiclass_fixture(rng, 15, 3);
    const SoftmaxWassersteinObjective objective(d, 3, 0.3, 0.01);
    const linalg::Vector theta = rng.standard_normal_vector(objective.dim());
    EXPECT_LT(linalg::distance2(objective.gradient(theta),
                                objective.numerical_gradient(theta)),
              1e-4);
}

TEST(SoftmaxWasserstein, ReducesToErmAtZeroRadius) {
    stats::Rng rng(7);
    const models::Dataset d = multiclass_fixture(rng, 15, 3);
    const SoftmaxErmObjective erm(d, 3);
    const SoftmaxWassersteinObjective robust(d, 3, 0.0);
    const linalg::Vector theta = rng.standard_normal_vector(erm.dim());
    EXPECT_DOUBLE_EQ(robust.value(theta), erm.value(theta));
}

TEST(SoftmaxWasserstein, PenaltyMatchesModelNorm) {
    stats::Rng rng(8);
    const models::Dataset d = multiclass_fixture(rng, 15, 3);
    const double rho = 0.4;
    const SoftmaxErmObjective erm(d, 3);
    const SoftmaxWassersteinObjective robust(d, 3, rho);
    const linalg::Vector theta = rng.standard_normal_vector(erm.dim());
    const SoftmaxModel model(3, theta);
    EXPECT_NEAR(robust.value(theta) - erm.value(theta),
                rho * model.pairwise_feature_norm(d.dim() - 1), 1e-10);
}

TEST(SoftmaxWasserstein, MonotoneInRadius) {
    stats::Rng rng(9);
    const models::Dataset d = multiclass_fixture(rng, 15, 4);
    const linalg::Vector theta = rng.standard_normal_vector(4 * d.dim());
    double previous = -1.0;
    for (const double rho : {0.0, 0.1, 0.3, 0.9}) {
        const SoftmaxWassersteinObjective robust(d, 4, rho);
        const double value = robust.value(theta);
        EXPECT_GE(value, previous);
        previous = value;
    }
}

TEST(SoftmaxWasserstein, RobustTrainingShrinksPairwiseNorm) {
    stats::Rng rng(10);
    const models::Dataset d = multiclass_fixture(rng, 60, 3);
    double previous = 1e18;
    for (const double rho : {0.0, 0.2, 0.8}) {
        const SoftmaxWassersteinObjective robust(d, 3, rho);
        const auto r = optim::minimize_lbfgs(robust, linalg::zeros(robust.dim()));
        const double norm = SoftmaxModel(3, r.x).pairwise_feature_norm(d.dim() - 1);
        EXPECT_LE(norm, previous + 1e-6);
        previous = norm;
    }
}

// --------------------------------------------------------------- generator

TEST(MulticlassGenerator, ShapesAndLabelRange) {
    stats::Rng rng(11);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(4, 5, 2, 2.0, 0.05, rng);
    EXPECT_EQ(pop.stacked_dim(), 25u);
    const data::MulticlassTaskSpec task = pop.sample_task(rng);
    const models::Dataset d = pop.generate(task, 100, rng);
    EXPECT_EQ(d.dim(), 5u);
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_DOUBLE_EQ(d.feature_row(i)[4], 1.0);
        EXPECT_GE(d.label(i), 0.0);
        EXPECT_LT(d.label(i), 5.0);
    }
}

TEST(MulticlassGenerator, AllClassesAppear) {
    stats::Rng rng(12);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(6, 3, 2, 2.0, 0.05, rng);
    const models::Dataset d = pop.generate(pop.sample_task(rng), 600, rng);
    std::vector<int> counts(3, 0);
    for (std::size_t i = 0; i < d.size(); ++i) ++counts[static_cast<int>(d.label(i))];
    for (const int c : counts) EXPECT_GT(c, 30);
}

TEST(MulticlassGenerator, TrueModelBeatsChance) {
    stats::Rng rng(13);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(6, 4, 2, 3.0, 0.02, rng);
    const data::MulticlassTaskSpec task = pop.sample_task(rng);
    data::MulticlassDataOptions options;
    options.margin_scale = 4.0;
    const models::Dataset d = pop.generate(task, 2000, rng, options);
    const SoftmaxModel oracle(4, task.stacked_weights);
    EXPECT_GT(models::softmax_accuracy(oracle, d), 0.7);
}

TEST(MulticlassGenerator, Validation) {
    stats::Rng rng(14);
    EXPECT_THROW(data::MulticlassPopulation::make_synthetic(0, 3, 2, 2.0, 0.05, rng),
                 std::invalid_argument);
    EXPECT_THROW(data::MulticlassPopulation::make_synthetic(4, 1, 2, 2.0, 0.05, rng),
                 std::invalid_argument);
}

// ----------------------------------------------------------- edge learner

dp::MixturePrior multiclass_oracle_prior(const data::MulticlassPopulation& pop) {
    linalg::Vector weights(pop.num_modes(), 1.0);
    return dp::MixturePrior(std::move(weights), pop.mode_distributions());
}

TEST(SoftmaxEdgeLearner, BeatsLocalSoftmaxErmAtSmallN) {
    double em_total = 0.0;
    double local_total = 0.0;
    const int trials = 4;
    for (int t = 0; t < trials; ++t) {
        stats::Rng rng(100 + t);
        const data::MulticlassPopulation pop =
            data::MulticlassPopulation::make_synthetic(5, 3, 3, 2.5, 0.05, rng);
        const data::MulticlassTaskSpec task = pop.sample_task(rng);
        data::MulticlassDataOptions options;
        options.margin_scale = 2.0;
        const models::Dataset train = pop.generate(task, 18, rng, options);
        const models::Dataset test = pop.generate(task, 2000, rng, options);

        core::SoftmaxEdgeLearnerConfig config;
        config.num_classes = 3;
        config.transfer_weight = 2.0;
        config.em.max_outer_iterations = 15;
        const core::SoftmaxEdgeLearner learner(multiclass_oracle_prior(pop), config);
        em_total += models::softmax_accuracy(learner.fit(train).model, test);

        const SoftmaxErmObjective erm(train, 3);
        const auto r = optim::minimize_lbfgs(erm, linalg::zeros(erm.dim()));
        local_total += models::softmax_accuracy(SoftmaxModel(3, r.x), test);
    }
    EXPECT_GT(em_total / trials, local_total / trials + 0.03);
}

TEST(SoftmaxEdgeLearner, EmTraceMonotone) {
    stats::Rng rng(200);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(4, 3, 3, 2.5, 0.05, rng);
    const data::MulticlassTaskSpec task = pop.sample_task(rng);
    const models::Dataset train = pop.generate(task, 20, rng);
    core::SoftmaxEdgeLearnerConfig config;
    config.num_classes = 3;
    const core::SoftmaxEdgeLearner learner(multiclass_oracle_prior(pop), config);
    const core::SoftmaxFitResult fit = learner.fit(train);
    for (std::size_t i = 1; i < fit.trace.objective.size(); ++i) {
        EXPECT_LE(fit.trace.objective[i], fit.trace.objective[i - 1] + 1e-7);
    }
    EXPECT_NEAR(linalg::sum(fit.responsibilities), 1.0, 1e-9);
}

TEST(SoftmaxEdgeLearner, IdentifiesTrueMode) {
    stats::Rng rng(300);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(5, 3, 3, 3.0, 0.02, rng);
    const data::MulticlassTaskSpec task = pop.sample_task(rng);
    data::MulticlassDataOptions options;
    options.margin_scale = 3.0;
    const models::Dataset train = pop.generate(task, 80, rng, options);
    core::SoftmaxEdgeLearnerConfig config;
    config.num_classes = 3;
    const core::SoftmaxEdgeLearner learner(multiclass_oracle_prior(pop), config);
    const core::SoftmaxFitResult fit = learner.fit(train);
    EXPECT_EQ(fit.map_component, task.mode_index);
}

TEST(SoftmaxEdgeLearner, Validation) {
    stats::Rng rng(400);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(4, 3, 2, 2.0, 0.05, rng);
    core::SoftmaxEdgeLearnerConfig config;
    config.num_classes = 4;  // mismatched with the 3-class prior dimension
    EXPECT_THROW(core::SoftmaxEdgeLearner(multiclass_oracle_prior(pop), config),
                 std::invalid_argument);
}

}  // namespace
}  // namespace drel

namespace drel::dro {
namespace {

// --------------------------------------------------------- softmax f-div DRO

models::Dataset multiclass_fixture(stats::Rng& rng, std::size_t n, std::size_t classes) {
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(4, classes, 2, 2.0, 0.05, rng);
    return pop.generate(pop.sample_task(rng), n, rng);
}

TEST(SoftmaxFDivergence, GradientMatchesNumericalBothKinds) {
    stats::Rng rng(20);
    const models::Dataset d = multiclass_fixture(rng, 16, 3);
    for (const AmbiguityKind kind : {AmbiguityKind::kKl, AmbiguityKind::kChiSquare}) {
        const SoftmaxFDivergenceObjective objective(d, 3, kind, 0.25, 0.01);
        const linalg::Vector theta = rng.standard_normal_vector(objective.dim());
        EXPECT_LT(linalg::distance2(objective.gradient(theta),
                                    objective.numerical_gradient(theta)),
                  5e-3)
            << ambiguity_name(kind);
    }
}

TEST(SoftmaxFDivergence, UpperBoundsErmAndMonotone) {
    stats::Rng rng(21);
    const models::Dataset d = multiclass_fixture(rng, 20, 4);
    const models::SoftmaxErmObjective erm(d, 4);
    const linalg::Vector theta = rng.standard_normal_vector(erm.dim());
    for (const AmbiguityKind kind : {AmbiguityKind::kKl, AmbiguityKind::kChiSquare}) {
        double previous = erm.value(theta);
        for (const double rho : {0.05, 0.2, 0.8}) {
            const SoftmaxFDivergenceObjective objective(d, 4, kind, rho);
            const double value = objective.value(theta);
            EXPECT_GE(value, previous - 1e-7) << ambiguity_name(kind) << " " << rho;
            previous = value;
        }
    }
}

TEST(SoftmaxFDivergence, FactoryDispatch) {
    stats::Rng rng(22);
    const models::Dataset d = multiclass_fixture(rng, 15, 3);
    const linalg::Vector theta = rng.standard_normal_vector(3 * d.dim());
    const double erm =
        make_softmax_robust_objective(d, 3, AmbiguitySet::none())->value(theta);
    for (const AmbiguitySet set : {AmbiguitySet::wasserstein(0.2), AmbiguitySet::kl(0.2),
                                   AmbiguitySet{AmbiguityKind::kChiSquare, 0.2}}) {
        EXPECT_GE(make_softmax_robust_objective(d, 3, set)->value(theta), erm - 1e-9)
            << ambiguity_name(set.kind);
    }
}

TEST(SoftmaxFDivergence, RejectsWrongKinds) {
    stats::Rng rng(23);
    const models::Dataset d = multiclass_fixture(rng, 10, 3);
    EXPECT_THROW(SoftmaxFDivergenceObjective(d, 3, AmbiguityKind::kWasserstein, 0.1),
                 std::invalid_argument);
    EXPECT_THROW(SoftmaxFDivergenceObjective(d, 3, AmbiguityKind::kNone, 0.1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace drel::dro
