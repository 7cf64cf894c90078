// Property-based suites (parameterized sweeps over seeds, radii, ambiguity
// kinds and loss kinds) asserting the library's structural invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/em_dro.hpp"
#include "data/multiclass_generator.hpp"
#include "data/task_generator.hpp"
#include "dp/mixture_prior.hpp"
#include "dro/robust_objective.hpp"
#include "dro/wasserstein.hpp"
#include "edgesim/transfer.hpp"
#include "models/erm_objective.hpp"
#include "models/softmax.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"

namespace drel {
namespace {

models::Dataset random_dataset(std::uint64_t seed, std::size_t n) {
    stats::Rng rng(seed);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    return pop.generate(pop.sample_task(rng), n, rng);
}

dp::MixturePrior random_prior(std::uint64_t seed, std::size_t dim, std::size_t components) {
    stats::Rng rng(seed);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < components; ++k) {
        weights.push_back(0.2 + rng.uniform());
        linalg::Vector mean = rng.standard_normal_vector(dim);
        linalg::scale(mean, 2.0);
        linalg::Matrix cov = linalg::Matrix::identity(dim);
        cov *= 0.2 + rng.uniform();
        cov.add_outer(0.1, rng.standard_normal_vector(dim));
        atoms.emplace_back(std::move(mean), std::move(cov));
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

// ---------------------------------------------------------------------------
// P1: robust value is monotone non-decreasing in the radius, for every
// ambiguity family and random (theta, dataset).
// ---------------------------------------------------------------------------

class RadiusMonotonicity
    : public ::testing::TestWithParam<std::tuple<dro::AmbiguityKind, std::uint64_t>> {};

TEST_P(RadiusMonotonicity, RobustValueGrowsWithRadius) {
    const auto [kind, seed] = GetParam();
    const models::Dataset d = random_dataset(seed, 40);
    const auto loss = models::make_logistic_loss();
    stats::Rng rng(seed + 1000);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    double previous = -1e18;
    for (const double radius : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0}) {
        const dro::AmbiguitySet set{kind, radius};
        const double value = dro::robust_loss(theta, d, *loss, set);
        EXPECT_GE(value, previous - 1e-7)
            << dro::ambiguity_name(kind) << " radius=" << radius;
        previous = value;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSeeds, RadiusMonotonicity,
    ::testing::Combine(::testing::Values(dro::AmbiguityKind::kWasserstein,
                                         dro::AmbiguityKind::kKl,
                                         dro::AmbiguityKind::kChiSquare),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// ---------------------------------------------------------------------------
// P2: robust value always upper-bounds the empirical value.
// ---------------------------------------------------------------------------

class RobustDominatesEmpirical
    : public ::testing::TestWithParam<std::tuple<dro::AmbiguityKind, std::uint64_t>> {};

TEST_P(RobustDominatesEmpirical, SupOverBallAtLeastCenter) {
    const auto [kind, seed] = GetParam();
    const models::Dataset d = random_dataset(seed, 25);
    const auto loss = models::make_smoothed_hinge_loss();
    stats::Rng rng(seed + 2000);
    for (int trial = 0; trial < 5; ++trial) {
        const linalg::Vector theta = rng.standard_normal_vector(d.dim());
        const double empirical =
            dro::robust_loss(theta, d, *loss, dro::AmbiguitySet::none());
        const double robust = dro::robust_loss(theta, d, *loss, {kind, 0.3});
        EXPECT_GE(robust, empirical - 1e-8) << dro::ambiguity_name(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSeeds, RobustDominatesEmpirical,
    ::testing::Combine(::testing::Values(dro::AmbiguityKind::kWasserstein,
                                         dro::AmbiguityKind::kKl,
                                         dro::AmbiguityKind::kChiSquare),
                       ::testing::Values(11u, 12u, 13u)));

// ---------------------------------------------------------------------------
// P3: analytic gradients of every (loss x ambiguity) robust objective match
// central differences at random points.
// ---------------------------------------------------------------------------

class RobustGradientCheck
    : public ::testing::TestWithParam<std::tuple<models::LossKind, dro::AmbiguityKind>> {};

TEST_P(RobustGradientCheck, AnalyticMatchesNumeric) {
    const auto [loss_kind, ambiguity_kind] = GetParam();
    const models::Dataset d = random_dataset(77, 20);
    const auto loss = models::make_loss(loss_kind);
    const dro::AmbiguitySet set{ambiguity_kind, 0.2};
    const auto objective = dro::make_robust_objective(d, *loss, set, 0.01);
    stats::Rng rng(78);
    for (int trial = 0; trial < 3; ++trial) {
        const linalg::Vector theta = rng.standard_normal_vector(d.dim());
        const linalg::Vector analytic = objective->gradient(theta);
        const linalg::Vector numeric = objective->numerical_gradient(theta);
        EXPECT_LT(linalg::distance2(analytic, numeric), 5e-3)
            << loss->name() << " / " << dro::ambiguity_name(ambiguity_kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    MarginLossesTimesAmbiguities, RobustGradientCheck,
    ::testing::Combine(::testing::Values(models::LossKind::kLogistic,
                                         models::LossKind::kSmoothedHinge),
                       ::testing::Values(dro::AmbiguityKind::kNone,
                                         dro::AmbiguityKind::kWasserstein,
                                         dro::AmbiguityKind::kKl,
                                         dro::AmbiguityKind::kChiSquare)));

// ---------------------------------------------------------------------------
// P4: the Wasserstein closed form agrees with the generic numeric dual on
// random instances (strong-duality regression sweep).
// ---------------------------------------------------------------------------

class WassersteinDuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WassersteinDuality, ClosedFormMatchesNumericDual) {
    const std::uint64_t seed = GetParam();
    const models::Dataset d = random_dataset(seed, 15);
    const auto loss = models::make_logistic_loss();
    stats::Rng rng(seed + 3000);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const double rho = 0.05 + 0.4 * rng.uniform();
    const dro::WassersteinDroObjective closed(d, *loss, rho);
    EXPECT_NEAR(closed.value(theta),
                dro::wasserstein_robust_value_numeric(theta, d, *loss, rho), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WassersteinDuality,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

// ---------------------------------------------------------------------------
// P5: EM-DRO objective trace is monotone for every ambiguity family and
// transfer weight.
// ---------------------------------------------------------------------------

class EmMonotonicity
    : public ::testing::TestWithParam<std::tuple<dro::AmbiguityKind, double>> {};

TEST_P(EmMonotonicity, TraceNeverIncreases) {
    const auto [kind, tau] = GetParam();
    const models::Dataset d = random_dataset(5, 24);
    const auto loss = models::make_logistic_loss();
    const dp::MixturePrior prior = random_prior(6, d.dim(), 3);
    const core::EmDroSolver solver(d, *loss, prior, {kind, 0.15}, tau);
    const core::EmDroResult r = solver.solve_from(prior.mean());
    for (std::size_t i = 1; i < r.trace.objective.size(); ++i) {
        EXPECT_LE(r.trace.objective[i], r.trace.objective[i - 1] + 1e-7)
            << dro::ambiguity_name(kind) << " tau=" << tau << " iter=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsTimesWeights, EmMonotonicity,
    ::testing::Combine(::testing::Values(dro::AmbiguityKind::kNone,
                                         dro::AmbiguityKind::kWasserstein,
                                         dro::AmbiguityKind::kKl,
                                         dro::AmbiguityKind::kChiSquare),
                       ::testing::Values(0.1, 1.0, 10.0)));

// ---------------------------------------------------------------------------
// P6: the EM surrogate is a tight lower bound of the mixture log-density
// (Jensen) at random thetas and responsibility vectors.
// ---------------------------------------------------------------------------

class JensenBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JensenBound, SurrogatePlusEntropyLowerBoundsLogPdf) {
    const std::uint64_t seed = GetParam();
    const dp::MixturePrior prior = random_prior(seed, 4, 4);
    stats::Rng rng(seed + 4000);
    auto entropy = [](const linalg::Vector& p) {
        double h = 0.0;
        for (const double v : p) {
            if (v > 0.0) h -= v * std::log(v);
        }
        return h;
    };
    for (int trial = 0; trial < 10; ++trial) {
        const linalg::Vector theta = rng.standard_normal_vector(4);
        // Arbitrary responsibilities, a Dirichlet(1, 1, 1, 1) draw: lower bound.
        linalg::Vector r(4);
        double total = 0.0;
        for (double& v : r) total += v = rng.gamma(1.0);
        for (double& v : r) v /= total;
        EXPECT_LE(prior.em_surrogate(theta, r) + entropy(r), prior.log_pdf(theta) + 1e-9);
        // Optimal responsibilities: equality.
        const linalg::Vector r_star = prior.responsibilities(theta);
        EXPECT_NEAR(prior.em_surrogate(theta, r_star) + entropy(r_star),
                    prior.log_pdf(theta), 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JensenBound, ::testing::Values(31u, 32u, 33u, 34u));

// ---------------------------------------------------------------------------
// P8: the transfer encoding round-trips random priors under every flag
// combination with the appropriate fidelity.
// ---------------------------------------------------------------------------

class TransferRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(TransferRoundTrip, DensityPreserved) {
    const auto [seed, float32] = GetParam();
    const dp::MixturePrior prior = random_prior(seed, 5, 3);
    edgesim::EncodingOptions options;
    options.use_float32 = float32;
    const auto encoded = edgesim::encode_prior(prior, options);
    const dp::MixturePrior decoded = edgesim::decode_prior(encoded);
    stats::Rng rng(seed + 5000);
    const double tolerance = float32 ? 1e-3 : 1e-10;
    for (int trial = 0; trial < 5; ++trial) {
        const linalg::Vector probe = rng.standard_normal_vector(5);
        EXPECT_NEAR(decoded.log_pdf(probe), prior.log_pdf(probe), tolerance);
    }
}

INSTANTIATE_TEST_SUITE_P(SeedsTimesPrecision, TransferRoundTrip,
                         ::testing::Combine(::testing::Values(61u, 62u, 63u),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------
// P9: solver cross-validation — L-BFGS and GD agree on strongly convex ERM.
// ---------------------------------------------------------------------------

class SolverAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverAgreement, LbfgsAndGdFindSameOptimum) {
    const std::uint64_t seed = GetParam();
    const models::Dataset d = random_dataset(seed, 50);
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective objective(d, *loss, 0.2);  // strongly convex
    const auto lbfgs = optim::minimize_lbfgs(objective, linalg::zeros(d.dim()));
    optim::GradientDescentOptions gd_options;
    gd_options.stopping.max_iterations = 8000;
    gd_options.stopping.grad_tolerance = 1e-9;
    const auto gd = optim::minimize_gradient_descent(objective, linalg::zeros(d.dim()),
                                                     gd_options);
    EXPECT_NEAR(lbfgs.value, gd.value, 1e-6);
    EXPECT_LT(linalg::distance2(lbfgs.x, gd.x), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Values(71u, 72u, 73u, 74u));

// ---------------------------------------------------------------------------
// P10: the trained robust model's worst-case loss equals its objective value
// (training certificate), for the reweighting families where the sup is
// attained exactly.
// ---------------------------------------------------------------------------

class TrainingCertificate : public ::testing::TestWithParam<dro::AmbiguityKind> {};

TEST_P(TrainingCertificate, ObjectiveAtOptimumIsWorstCaseLoss) {
    const dro::AmbiguityKind kind = GetParam();
    const models::Dataset d = random_dataset(99, 30);
    const auto loss = models::make_logistic_loss();
    const dro::AmbiguitySet set{kind, 0.2};
    const auto objective = dro::make_robust_objective(d, *loss, set);
    const auto r = optim::minimize_lbfgs(*objective, linalg::zeros(d.dim()));
    EXPECT_NEAR(objective->value(r.x), dro::robust_loss(r.x, d, *loss, set), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TrainingCertificate,
                         ::testing::Values(dro::AmbiguityKind::kKl,
                                           dro::AmbiguityKind::kChiSquare,
                                           dro::AmbiguityKind::kWasserstein));

// ---------------------------------------------------------------------------
// P11: multiclass softmax robust objective — gradient correctness and radius
// monotonicity across class counts and seeds.
// ---------------------------------------------------------------------------

class SoftmaxRobustness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(SoftmaxRobustness, GradientAndMonotonicity) {
    const auto [classes, seed] = GetParam();
    stats::Rng rng(seed);
    const data::MulticlassPopulation pop =
        data::MulticlassPopulation::make_synthetic(4, classes, 2, 2.0, 0.05, rng);
    const models::Dataset d = pop.generate(pop.sample_task(rng), 18, rng);
    const linalg::Vector theta = rng.standard_normal_vector(classes * d.dim());

    double previous = -1.0;
    for (const double rho : {0.0, 0.1, 0.4, 1.2}) {
        const models::SoftmaxWassersteinObjective objective(d, classes, rho, 0.01);
        const double value = objective.value(theta);
        EXPECT_GE(value, previous) << "classes=" << classes << " rho=" << rho;
        previous = value;
        EXPECT_LT(linalg::distance2(objective.gradient(theta),
                                    objective.numerical_gradient(theta)),
                  2e-4)
            << "classes=" << classes << " rho=" << rho;
    }
}

INSTANTIATE_TEST_SUITE_P(ClassesTimesSeeds, SoftmaxRobustness,
                         ::testing::Combine(::testing::Values(2u, 3u, 5u),
                                            ::testing::Values(81u, 82u)));

}  // namespace
}  // namespace drel
