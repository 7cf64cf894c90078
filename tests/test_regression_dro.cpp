// Tests for type-2 Wasserstein DRO regression (sqrt-ridge closed form).
#include <gtest/gtest.h>

#include <cmath>

#include "data/task_generator.hpp"
#include "dro/wasserstein_regression.hpp"
#include "models/linear_model.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"

namespace drel::dro {
namespace {

models::Dataset regression_fixture(stats::Rng& rng, std::size_t n, double noise = 0.3) {
    linalg::Vector theta = rng.standard_normal_vector(5);
    theta.push_back(0.5);  // bias
    return data::generate_regression_data(theta, n, noise, rng);
}

TEST(WassersteinRegression, ZeroRadiusIsPlainMse) {
    stats::Rng rng(1);
    const models::Dataset d = regression_fixture(rng, 40);
    const WassersteinRegressionObjective robust(d, 0.0);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    EXPECT_NEAR(robust.value(theta), models::mse(models::LinearModel(theta), d), 1e-10);
}

TEST(WassersteinRegression, ClosedFormMatchesSqrtFormula) {
    stats::Rng rng(2);
    const models::Dataset d = regression_fixture(rng, 30);
    const double rho = 0.4;
    const WassersteinRegressionObjective robust(d, rho);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const double root = std::sqrt(models::mse(models::LinearModel(theta), d));
    double feat_sq = 0.0;
    for (std::size_t i = 0; i + 1 < theta.size(); ++i) feat_sq += theta[i] * theta[i];
    const double expected = std::pow(root + rho * std::sqrt(feat_sq), 2.0);
    EXPECT_NEAR(robust.value(theta), expected, 1e-10);
}

TEST(WassersteinRegression, GradientMatchesNumerical) {
    stats::Rng rng(3);
    const models::Dataset d = regression_fixture(rng, 25);
    const WassersteinRegressionObjective robust(d, 0.3, 0.02);
    for (int trial = 0; trial < 3; ++trial) {
        const linalg::Vector theta = rng.standard_normal_vector(d.dim());
        EXPECT_LT(linalg::distance2(robust.gradient(theta),
                                    robust.numerical_gradient(theta)),
                  2e-4);
    }
}

TEST(WassersteinRegression, AdversaryAttainsTheClosedForm) {
    // The residual-proportional transport plan achieves the sup exactly, so
    // the primal witness must equal the dual value (strong duality with
    // attainment — unlike the classification case).
    stats::Rng rng(4);
    const models::Dataset d = regression_fixture(rng, 30);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const WassersteinRegressionObjective robust(d, 0.0);
    for (const double rho : {0.1, 0.5, 1.5}) {
        const WassersteinRegressionObjective objective(d, rho);
        EXPECT_NEAR(regression_adversary_value(theta, d, rho), objective.value(theta), 1e-9)
            << rho;
    }
}

TEST(WassersteinRegression, MonotoneInRadius) {
    stats::Rng rng(5);
    const models::Dataset d = regression_fixture(rng, 20);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    double previous = -1.0;
    for (const double rho : {0.0, 0.1, 0.3, 1.0, 3.0}) {
        const WassersteinRegressionObjective objective(d, rho);
        const double value = objective.value(theta);
        EXPECT_GE(value, previous);
        previous = value;
    }
}

TEST(WassersteinRegression, RobustFitShrinksSlopeUnderNoise) {
    stats::Rng rng(6);
    const models::Dataset d = regression_fixture(rng, 60, 1.0);
    double previous_norm = 1e18;
    for (const double rho : {0.0, 0.3, 1.0}) {
        const WassersteinRegressionObjective objective(d, rho);
        const auto r = optim::minimize_lbfgs(objective, linalg::zeros(d.dim()));
        double feat_sq = 0.0;
        for (std::size_t i = 0; i + 1 < r.x.size(); ++i) feat_sq += r.x[i] * r.x[i];
        EXPECT_LE(feat_sq, previous_norm + 1e-9);
        previous_norm = feat_sq;
    }
}

TEST(WassersteinRegression, RecoversPlantedModelAtLowNoise) {
    stats::Rng rng(7);
    linalg::Vector theta_star = rng.standard_normal_vector(4);
    theta_star.push_back(-0.3);
    const models::Dataset d = data::generate_regression_data(theta_star, 300, 0.05, rng);
    const WassersteinRegressionObjective objective(d, 0.02);
    const auto r = optim::minimize_lbfgs(objective, linalg::zeros(d.dim()));
    EXPECT_LT(linalg::distance2(r.x, theta_star), 0.1);
}

TEST(WassersteinRegression, GeneratorValidation) {
    stats::Rng rng(8);
    EXPECT_THROW(data::generate_regression_data({1.0}, 10, 0.1, rng), std::invalid_argument);
    EXPECT_THROW(data::generate_regression_data({1.0, 2.0}, 10, -1.0, rng),
                 std::invalid_argument);
    EXPECT_THROW(WassersteinRegressionObjective(regression_fixture(rng, 5), -0.1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace drel::dro
