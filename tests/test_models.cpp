#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "models/dataset.hpp"
#include "models/erm_objective.hpp"
#include "models/linear_model.hpp"
#include "models/loss.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::models {
namespace {

Dataset tiny_dataset() {
    // Linearly separable 2-feature (+bias) toy.
    linalg::Matrix f = test_support::matrix_of(4, 3, {+1.0, +1.0, 1.0,   //
                                                      +2.0, +0.5, 1.0,   //
                                                      -1.0, -1.0, 1.0,   //
                                                      -2.0, -0.5, 1.0});
    return Dataset(std::move(f), {1.0, 1.0, -1.0, -1.0});
}

// ---------------------------------------------------------------- dataset

TEST(Dataset, ConstructionValidation) {
    EXPECT_THROW(Dataset(linalg::Matrix(2, 2), {1.0}), std::invalid_argument);
    const Dataset d = tiny_dataset();
    EXPECT_EQ(d.size(), 4u);
    EXPECT_EQ(d.dim(), 3u);
    EXPECT_DOUBLE_EQ(d.label(0), 1.0);
}

TEST(Dataset, RejectsNonFiniteValues) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(Dataset(test_support::matrix_of(1, 2, {nan, 1.0}), {1.0}),
                 std::invalid_argument);
    EXPECT_THROW(Dataset(test_support::matrix_of(1, 2, {inf, 1.0}), {1.0}),
                 std::invalid_argument);
    EXPECT_THROW(Dataset(test_support::matrix_of(1, 2, {0.0, 1.0}), {nan}),
                 std::invalid_argument);
}

TEST(Dataset, SubsetSupportsDuplicates) {
    const Dataset d = tiny_dataset();
    const Dataset s = d.subset({0, 0, 3});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.label(0), s.label(1));
    EXPECT_THROW(d.subset({9}), std::out_of_range);
}

TEST(Dataset, ConcatenatePreservesOrder) {
    const Dataset d = tiny_dataset();
    const Dataset c = Dataset::concatenate(d, d);
    EXPECT_EQ(c.size(), 8u);
    EXPECT_DOUBLE_EQ(c.label(4), d.label(0));
}

// ------------------------------------------------------------------ losses

TEST(Loss, LogisticKnownValues) {
    const auto loss = make_logistic_loss();
    EXPECT_NEAR(loss->phi(0.0), std::log(2.0), 1e-12);
    EXPECT_NEAR(loss->dphi(0.0), -0.5, 1e-12);
    // Very negative margin: linear asymptote with slope -1.
    EXPECT_NEAR(loss->phi(-50.0), 50.0, 1e-9);
    EXPECT_NEAR(loss->dphi(-50.0), -1.0, 1e-9);
    // Very positive margin: loss vanishes.
    EXPECT_NEAR(loss->phi(50.0), 0.0, 1e-12);
}

TEST(Loss, SmoothedHingePiecewise) {
    const auto loss = make_smoothed_hinge_loss();
    EXPECT_DOUBLE_EQ(loss->phi(2.0), 0.0);
    EXPECT_DOUBLE_EQ(loss->phi(0.5), 0.125);
    EXPECT_DOUBLE_EQ(loss->phi(-1.0), 1.5);
    EXPECT_DOUBLE_EQ(loss->dphi(-1.0), -1.0);
    EXPECT_DOUBLE_EQ(loss->dphi(0.5), -0.5);
    EXPECT_DOUBLE_EQ(loss->dphi(2.0), 0.0);
}

TEST(Loss, DerivativeMatchesFiniteDifferenceEverywhere) {
    const double h = 1e-6;
    for (const LossKind kind :
         {LossKind::kLogistic, LossKind::kSmoothedHinge, LossKind::kSquared, LossKind::kHuber}) {
        const auto loss = make_loss(kind);
        for (double z = -3.0; z <= 3.0; z += 0.37) {
            const double numeric = (loss->phi(z + h) - loss->phi(z - h)) / (2.0 * h);
            EXPECT_NEAR(loss->dphi(z), numeric, 1e-4) << loss->name() << " at z=" << z;
        }
    }
}

TEST(Loss, LipschitzBoundsDerivative) {
    for (const LossKind kind : {LossKind::kLogistic, LossKind::kSmoothedHinge, LossKind::kHuber}) {
        const auto loss = make_loss(kind);
        for (double z = -20.0; z <= 20.0; z += 0.1) {
            EXPECT_LE(std::fabs(loss->dphi(z)), loss->lipschitz() + 1e-12) << loss->name();
        }
    }
}

TEST(Loss, HuberValidatesDelta) {
    EXPECT_THROW(make_huber_loss(0.0), std::invalid_argument);
    EXPECT_THROW(make_huber_loss(-1.0), std::invalid_argument);
}

// ------------------------------------------------------------ linear model

TEST(LinearModel, PredictionsOnSeparableData) {
    const LinearModel model({1.0, 1.0, 0.0});
    const Dataset d = tiny_dataset();
    EXPECT_DOUBLE_EQ(accuracy(model, d), 1.0);
    EXPECT_GT(model.predict_probability({1.0, 1.0, 1.0}), 0.5);
    EXPECT_LT(model.predict_probability({-1.0, -1.0, 1.0}), 0.5);
}

TEST(LinearModel, AdversarialLossUpperBoundsCleanLoss) {
    const LinearModel model({0.7, -0.3, 0.1});
    const auto loss = make_logistic_loss();
    const Dataset d = tiny_dataset();
    const double clean = model.average_loss(*loss, d);
    const double adv = model.average_adversarial_loss(*loss, d, 0.5);
    EXPECT_GE(adv, clean);
    EXPECT_DOUBLE_EQ(model.average_adversarial_loss(*loss, d, 0.0), clean);
}

TEST(LinearModel, AdversarialLossMonotoneInEpsilon) {
    const LinearModel model({0.7, -0.3, 0.1});
    const auto loss = make_smoothed_hinge_loss();
    const Dataset d = tiny_dataset();
    double previous = model.average_adversarial_loss(*loss, d, 0.0);
    for (double eps = 0.1; eps <= 1.0; eps += 0.1) {
        const double current = model.average_adversarial_loss(*loss, d, eps);
        EXPECT_GE(current, previous - 1e-12);
        previous = current;
    }
}

// ---------------------------------------------------------------- ERM

TEST(ErmObjective, GradientMatchesNumerical) {
    stats::Rng rng(3);
    const Dataset d = tiny_dataset();
    for (const LossKind kind : {LossKind::kLogistic, LossKind::kSmoothedHinge,
                                LossKind::kSquared, LossKind::kHuber}) {
        const auto loss = make_loss(kind);
        const ErmObjective objective(d, *loss, 0.1);
        const linalg::Vector theta = rng.standard_normal_vector(3);
        const linalg::Vector analytic = objective.gradient(theta);
        const linalg::Vector numeric = objective.numerical_gradient(theta);
        EXPECT_LT(linalg::distance2(analytic, numeric), 1e-4) << loss->name();
    }
}

TEST(ErmObjective, FitSeparatesSeparableData) {
    const Dataset d = tiny_dataset();
    const auto loss = make_logistic_loss();
    const ErmObjective objective(d, *loss, 0.01);
    const auto r = optim::minimize_lbfgs(objective, linalg::zeros(3));
    EXPECT_DOUBLE_EQ(accuracy(LinearModel(r.x), d), 1.0);
}

TEST(ErmObjective, PerExampleLossesMatchAverage) {
    stats::Rng rng(5);
    const Dataset d = tiny_dataset();
    const auto loss = make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(3);
    const linalg::Vector losses = per_example_losses(d, *loss, theta);
    const ErmObjective objective(d, *loss);
    EXPECT_NEAR(linalg::sum(losses) / 4.0, objective.value(theta), 1e-12);
}

TEST(ErmObjective, RejectsInvalidInputs) {
    const Dataset d = tiny_dataset();
    const auto loss = make_logistic_loss();
    EXPECT_THROW(ErmObjective(d, *loss, -1.0), std::invalid_argument);
    const ErmObjective objective(d, *loss);
    EXPECT_THROW(objective.value({1.0}), std::invalid_argument);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, AccuracyAndPerClassErrors) {
    // Model that always predicts +1.
    const LinearModel model({0.0, 0.0, 100.0});
    const Dataset d = tiny_dataset();
    EXPECT_DOUBLE_EQ(accuracy(model, d), 0.5);
    const ClassErrors errors = per_class_errors(model, d);
    EXPECT_DOUBLE_EQ(errors.positive, 0.0);
    EXPECT_DOUBLE_EQ(errors.negative, 1.0);
}

TEST(Metrics, LogLossOfPerfectModelIsSmall) {
    const LinearModel strong({10.0, 10.0, 0.0});
    const LinearModel weak({0.1, 0.1, 0.0});
    const Dataset d = tiny_dataset();
    EXPECT_LT(log_loss(strong, d), log_loss(weak, d));
}

TEST(Metrics, AdversarialAccuracyShrinksWithEpsilon) {
    const LinearModel model({1.0, 1.0, 0.0});
    const Dataset d = tiny_dataset();
    EXPECT_DOUBLE_EQ(adversarial_accuracy(model, d, 0.0), 1.0);
    double previous = 1.0;
    for (double eps = 0.5; eps <= 3.0; eps += 0.5) {
        const double current = adversarial_accuracy(model, d, eps);
        EXPECT_LE(current, previous + 1e-12);
        previous = current;
    }
    EXPECT_DOUBLE_EQ(adversarial_accuracy(model, d, 100.0), 0.0);
}

TEST(Metrics, BrierScoreBounds) {
    const LinearModel model({1.0, 1.0, 0.0});
    const Dataset d = tiny_dataset();
    const double brier = brier_score(model, d);
    EXPECT_GE(brier, 0.0);
    EXPECT_LE(brier, 1.0);
}

TEST(Metrics, MseForRegression) {
    const LinearModel model({2.0, 0.0});
    const Dataset d(test_support::matrix_of(2, 2, {1.0, 1.0, 2.0, 1.0}), {2.0, 4.0});
    EXPECT_NEAR(mse(model, d), 0.0, 1e-12);
}

}  // namespace
}  // namespace drel::models
