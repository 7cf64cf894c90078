// Edge-case and boundary-condition sweeps across modules — the inputs that
// break hand-rolled numerical code in production: dimension-1 problems,
// single-example datasets, duplicate points, extreme scales, and degenerate
// configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "core/edge_learner.hpp"
#include "data/task_generator.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dro/robust_objective.hpp"
#include "dro/wasserstein.hpp"
#include "linalg/cholesky.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

// ------------------------------------------------------------ tiny problems

TEST(EdgeCases, OneByOneLinearAlgebra) {
    const linalg::Matrix a = test_support::matrix_of(1, 1, {4.0});
    const linalg::Cholesky chol(a);
    EXPECT_DOUBLE_EQ(chol.lower()(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(chol.solve({8.0})[0], 2.0);
    EXPECT_NEAR(chol.log_det(), std::log(4.0), 1e-12);
}

TEST(EdgeCases, SingleExampleDataset) {
    const models::Dataset d(test_support::matrix_of(1, 2, {1.5, 1.0}), {1.0});
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective erm(d, *loss, 0.1);
    const auto r = optim::minimize_lbfgs(erm, linalg::zeros(2));
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(models::accuracy(models::LinearModel(r.x), d), 1.0);
    // DRO duals must handle n=1 (a single atom distribution).
    for (const dro::AmbiguitySet set :
         {dro::AmbiguitySet::kl(0.3), dro::AmbiguitySet{dro::AmbiguityKind::kChiSquare, 0.3},
          dro::AmbiguitySet::wasserstein(0.3)}) {
        EXPECT_GE(dro::robust_loss(r.x, d, *loss, set),
                  dro::robust_loss(r.x, d, *loss, dro::AmbiguitySet::none()) - 1e-9)
            << dro::ambiguity_name(set.kind);
    }
}

TEST(EdgeCases, DuplicateExamplesAreHandled) {
    // All examples identical: duals degenerate gracefully.
    linalg::Matrix f(5, 2);
    for (std::size_t i = 0; i < 5; ++i) {
        f(i, 0) = 1.0;
        f(i, 1) = 1.0;
    }
    const models::Dataset d(std::move(f), linalg::Vector(5, 1.0));
    const auto loss = models::make_logistic_loss();
    stats::Rng rng(1);
    const linalg::Vector theta = rng.standard_normal_vector(2);
    const double clean = dro::robust_loss(theta, d, *loss, dro::AmbiguitySet::none());
    // KL/chi2 reweighting cannot change the mean of identical losses.
    EXPECT_NEAR(dro::robust_loss(theta, d, *loss, dro::AmbiguitySet::kl(0.5)), clean, 1e-6);
    const dro::AmbiguitySet chi_square{dro::AmbiguityKind::kChiSquare, 0.5};
    EXPECT_NEAR(dro::robust_loss(theta, d, *loss, chi_square), clean, 1e-6);
}

TEST(EdgeCases, ZeroWeightVectorEverywhere) {
    stats::Rng rng(2);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    const models::Dataset d = pop.generate(pop.sample_task(rng), 20, rng);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector zero = linalg::zeros(d.dim());
    // Wasserstein penalty is 0 at theta=0 (subgradient 0 at the kink).
    const dro::WassersteinDroObjective robust(d, *loss, 0.5);
    EXPECT_NEAR(robust.value(zero), std::log(2.0), 1e-12);
    const linalg::Vector g = robust.gradient(zero);
    for (const double v : g) EXPECT_TRUE(std::isfinite(v));
    // Metrics on constant classifiers: no feature perturbation can flip a
    // decision that ignores the features, so adversarial accuracy must
    // equal clean accuracy at ANY budget (this pinned a real boundary bug).
    const models::LinearModel all_zero(zero);
    EXPECT_DOUBLE_EQ(models::adversarial_accuracy(all_zero, d, 1.0),
                     models::accuracy(all_zero, d));
    linalg::Vector bias_only = zero;
    bias_only.back() = -2.0;  // constant negative prediction
    const models::LinearModel negative(bias_only);
    EXPECT_DOUBLE_EQ(models::adversarial_accuracy(negative, d, 5.0),
                     models::accuracy(negative, d));
}

// --------------------------------------------------------- extreme scales

TEST(EdgeCases, HugeAndTinyFeatureScales) {
    // Raw fits must never produce non-finite values at extreme scales.
    stats::Rng rng(3);
    for (const double scale : {1e-6, 1e6}) {
        linalg::Matrix features(10, 2);
        linalg::Vector y(10);
        for (std::size_t i = 0; i < 10; ++i) {
            features(i, 0) = scale * rng.normal();
            features(i, 1) = 1.0;  // bias column
            y[i] = (features(i, 0) > 0.0) ? 1.0 : -1.0;
        }
        const models::Dataset biased(std::move(features), std::move(y));
        const auto loss = models::make_logistic_loss();
        const models::ErmObjective direct(biased, *loss, 1e-8);
        const auto direct_fit = optim::minimize_lbfgs(direct, linalg::zeros(2));
        EXPECT_TRUE(std::isfinite(direct_fit.value)) << scale;
    }
}

TEST(EdgeCases, MvnWithTinyAndHugeVariance) {
    const auto tiny = stats::MultivariateNormal::isotropic({0.0, 0.0}, 1e-10);
    const auto huge = stats::MultivariateNormal::isotropic({0.0, 0.0}, 1e10);
    EXPECT_TRUE(std::isfinite(tiny.log_pdf({0.0, 0.0})));
    EXPECT_TRUE(std::isfinite(huge.log_pdf({1e3, -1e3})));
    EXPECT_GT(tiny.log_pdf({0.0, 0.0}), huge.log_pdf({0.0, 0.0}));
}

TEST(EdgeCases, MixtureWithVeryFarAtomsStaysStable) {
    // Responsibilities underflow territory: atoms 1e3 apart.
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({1000.0}, 1.0));
    atoms.push_back(stats::MultivariateNormal::isotropic({-1000.0}, 1.0));
    const dp::MixturePrior prior({0.5, 0.5}, std::move(atoms));
    const linalg::Vector r = prior.responsibilities({999.0});
    EXPECT_NEAR(r[0], 1.0, 1e-12);
    EXPECT_TRUE(std::isfinite(prior.log_pdf({0.0})));  // log-sum-exp path
    EXPECT_TRUE(std::isfinite(prior.log_pdf({999.0})));
}

// ----------------------------------------------------- degenerate configs

TEST(EdgeCases, EdgeLearnerWithSingleAtomPrior) {
    stats::Rng rng(4);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(4, 1, 2.0, 0.05, rng);
    const data::TaskSpec task = pop.sample_task(rng);
    const models::Dataset train = pop.generate(task, 16, rng);
    const models::Dataset test = pop.generate(task, 1000, rng);
    const dp::MixturePrior prior = dp::MixturePrior::single(
        stats::MultivariateNormal::isotropic(task.theta_star, 0.5));
    const core::EdgeLearner learner(prior, {});
    const core::FitResult fit = learner.fit(train);
    EXPECT_EQ(fit.responsibilities.size(), 1u);
    EXPECT_DOUBLE_EQ(fit.responsibilities[0], 1.0);
    EXPECT_GT(models::accuracy(fit.model, test), 0.6);
}

TEST(EdgeCases, EmDroWithMoreMultiStartsThanAtoms) {
    stats::Rng rng(5);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    const models::Dataset train = pop.generate(pop.sample_task(rng), 12, rng);
    const dp::MixturePrior prior = dp::MixturePrior::single(
        stats::MultivariateNormal::isotropic(linalg::zeros(train.dim()), 1.0));
    const auto loss = models::make_logistic_loss();
    // The solver tries 3 atoms besides the prior mean; one exists.
    const core::EmDroSolver solver(train, *loss, prior, dro::AmbiguitySet::wasserstein(0.1),
                                   1.0, core::EmDroOptions{});
    EXPECT_NO_THROW(solver.solve());
}

TEST(EdgeCases, DpmmWithTwoObservations) {
    stats::Rng rng(6);
    dp::DpmmConfig config;
    config.base_mean = {0.0};
    config.base_covariance = test_support::matrix_of(1, 1, {10.0});
    config.within_covariance = test_support::matrix_of(1, 1, {0.5});
    config.num_sweeps = 30;
    dp::DpmmGibbs sampler({{0.1}, {-0.1}}, config);
    sampler.run(rng);
    EXPECT_GE(sampler.num_clusters(), 1u);
    EXPECT_LE(sampler.num_clusters(), 2u);
    const dp::MixturePrior prior = sampler.extract_prior();
    EXPECT_NEAR(linalg::sum(prior.weights()), 1.0, 1e-12);
}

TEST(EdgeCases, RadiusZeroEverywhereIsErm) {
    stats::Rng rng(7);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    const models::Dataset d = pop.generate(pop.sample_task(rng), 15, rng);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const double erm = dro::robust_loss(theta, d, *loss, dro::AmbiguitySet::none());
    for (const dro::AmbiguityKind kind :
         {dro::AmbiguityKind::kWasserstein, dro::AmbiguityKind::kKl,
          dro::AmbiguityKind::kChiSquare}) {
        EXPECT_NEAR(dro::robust_loss(theta, d, *loss, {kind, 0.0}), erm, 1e-10)
            << dro::ambiguity_name(kind);
    }
}

TEST(EdgeCases, PerfectlySeparableDataWithHugeRadius) {
    // The norm penalty must prevent weight blow-up even on separable data.
    linalg::Matrix f = test_support::matrix_of(
        4, 3, {2.0, 0.0, 1.0, 3.0, 0.0, 1.0, -2.0, 0.0, 1.0, -3.0, 0.0, 1.0});
    const models::Dataset d(std::move(f), {1.0, 1.0, -1.0, -1.0});
    const auto loss = models::make_logistic_loss();
    const dro::WassersteinDroObjective robust(d, *loss, 5.0);
    const auto r = optim::minimize_lbfgs(robust, linalg::zeros(3));
    EXPECT_LT(linalg::norm2(r.x), 10.0);
    EXPECT_TRUE(std::isfinite(r.value));
}

}  // namespace
}  // namespace drel
