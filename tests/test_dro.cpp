#include <gtest/gtest.h>

#include <cmath>

#include "data/task_generator.hpp"
#include "dro/ambiguity.hpp"
#include "dro/chi_square.hpp"
#include "dro/kl.hpp"
#include "dro/robust_objective.hpp"
#include "dro/wasserstein.hpp"
#include "dro/worst_case.hpp"
#include "models/erm_objective.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::dro {
namespace {

models::Dataset fixture_dataset(stats::Rng& rng, std::size_t n = 60) {
    return test_support::binary_task_dataset(rng, n);
}

// --------------------------------------------------------------- ambiguity

TEST(Ambiguity, FactoryAndNames) {
    EXPECT_EQ(AmbiguitySet::none().kind, AmbiguityKind::kNone);
    EXPECT_EQ(AmbiguitySet::wasserstein(0.5).radius, 0.5);
    EXPECT_STREQ(ambiguity_name(AmbiguityKind::kKl), "kl");
    EXPECT_THROW(AmbiguitySet::kl(-0.1), std::invalid_argument);
}

TEST(Ambiguity, RadiusSchedule) {
    EXPECT_NEAR(radius_for_sample_size(1.0, 4), 0.5, 1e-12);
    EXPECT_NEAR(radius_for_sample_size(1.0, 100), 0.1, 1e-12);
    EXPECT_GT(radius_for_sample_size(1.0, 8), radius_for_sample_size(1.0, 32));
    EXPECT_THROW(radius_for_sample_size(1.0, 0), std::invalid_argument);
}

// ------------------------------------------------------------- wasserstein

TEST(Wasserstein, ClosedFormEqualsErmPlusNormPenalty) {
    stats::Rng rng(1);
    const models::Dataset d = fixture_dataset(rng);
    const auto loss = models::make_logistic_loss();
    const double rho = 0.3;
    const WassersteinDroObjective robust(d, *loss, rho);
    const models::ErmObjective erm(d, *loss);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const double expected = erm.value(theta) +
                            rho * feature_norm(theta, perturbable_dims(d));
    EXPECT_NEAR(robust.value(theta), expected, 1e-12);
}

TEST(Wasserstein, GradientMatchesNumerical) {
    stats::Rng rng(2);
    const models::Dataset d = fixture_dataset(rng, 30);
    const auto loss = models::make_logistic_loss();
    const WassersteinDroObjective robust(d, *loss, 0.2);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    EXPECT_LT(linalg::distance2(robust.gradient(theta), robust.numerical_gradient(theta)),
              1e-4);
}

TEST(Wasserstein, NumericDualCertifiesClosedForm) {
    // The generic dual (no closed form used anywhere) must match the
    // regularization equivalence to solver precision. This is the E9 check.
    stats::Rng rng(3);
    const models::Dataset d = fixture_dataset(rng, 20);
    for (const models::LossKind kind :
         {models::LossKind::kLogistic, models::LossKind::kSmoothedHinge}) {
        const auto loss = models::make_loss(kind);
        const linalg::Vector theta = rng.standard_normal_vector(d.dim());
        for (const double rho : {0.05, 0.2, 0.8}) {
            const WassersteinDroObjective closed(d, *loss, rho);
            const double numeric = wasserstein_robust_value_numeric(theta, d, *loss, rho);
            EXPECT_NEAR(closed.value(theta), numeric, 5e-3)
                << loss->name() << " rho=" << rho;
        }
    }
}

TEST(Wasserstein, ZeroRadiusReducesToErm) {
    stats::Rng rng(4);
    const models::Dataset d = fixture_dataset(rng, 25);
    const auto loss = models::make_logistic_loss();
    const WassersteinDroObjective robust(d, *loss, 0.0);
    const models::ErmObjective erm(d, *loss);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    EXPECT_DOUBLE_EQ(robust.value(theta), erm.value(theta));
}

TEST(Wasserstein, BiasWeightIsNotPenalized) {
    stats::Rng rng(5);
    const models::Dataset d = fixture_dataset(rng, 25);
    const auto loss = models::make_logistic_loss();
    const WassersteinDroObjective robust(d, *loss, 1.0);
    // Perturbing only the bias weight must change the value exactly as ERM
    // does (no norm-penalty contribution).
    linalg::Vector theta = rng.standard_normal_vector(d.dim());
    linalg::Vector theta_shifted = theta;
    theta_shifted.back() += 0.5;
    const models::ErmObjective erm(d, *loss);
    EXPECT_NEAR(robust.value(theta_shifted) - robust.value(theta),
                erm.value(theta_shifted) - erm.value(theta), 1e-12);
}

TEST(Wasserstein, RejectsNonMarginAndNonLipschitzLosses) {
    stats::Rng rng(6);
    const models::Dataset d = fixture_dataset(rng, 10);
    const auto squared = models::make_squared_loss();
    EXPECT_THROW(WassersteinDroObjective(d, *squared, 0.1), std::invalid_argument);
}

// ---------------------------------------------------------------------- KL

TEST(KlDual, ZeroRadiusIsEmpiricalMean) {
    const linalg::Vector losses{1.0, 2.0, 3.0};
    const KlDualSolution s = solve_kl_dual(losses, 0.0);
    EXPECT_NEAR(s.value, 2.0, 1e-12);
    EXPECT_NEAR(s.weights[0], 1.0 / 3.0, 1e-12);
}

TEST(KlDual, ValueBetweenMeanAndMax) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    for (const double rho : {0.01, 0.1, 0.5, 2.0}) {
        const KlDualSolution s = solve_kl_dual(losses, rho);
        EXPECT_GE(s.value, 1.875 - 1e-9) << rho;   // mean
        EXPECT_LE(s.value, 4.0 + 1e-9) << rho;     // max
    }
}

TEST(KlDual, MonotoneInRadius) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    double previous = solve_kl_dual(losses, 0.0).value;
    for (const double rho : {0.05, 0.1, 0.3, 1.0, 3.0}) {
        const double current = solve_kl_dual(losses, rho).value;
        EXPECT_GE(current, previous - 1e-9);
        previous = current;
    }
}

TEST(KlDual, LargeRadiusApproachesMax) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    EXPECT_NEAR(solve_kl_dual(losses, 50.0).value, 4.0, 0.05);
}

TEST(KlDual, WorstCaseWeightsAttainValueAndSatisfyBudget) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    const double rho = 0.3;
    const KlDualSolution s = solve_kl_dual(losses, rho);
    // Attainment: E_q[l] == dual value.
    double attained = 0.0;
    for (std::size_t i = 0; i < 4; ++i) attained += s.weights[i] * losses[i];
    EXPECT_NEAR(attained, s.value, 1e-4);
    // Feasibility: KL(q || uniform-empirical) <= rho (+ tolerance).
    double kl = 0.0;
    for (const double q : s.weights) {
        if (q > 0.0) kl += q * std::log(q * 4.0);
    }
    EXPECT_LE(kl, rho + 1e-3);
}

TEST(KlDual, ConstantLossesDegenerate) {
    const KlDualSolution s = solve_kl_dual({2.0, 2.0, 2.0}, 1.0);
    EXPECT_NEAR(s.value, 2.0, 1e-9);
}

TEST(KlObjective, GradientMatchesNumerical) {
    stats::Rng rng(7);
    const models::Dataset d = fixture_dataset(rng, 25);
    const auto loss = models::make_logistic_loss();
    const KlDroObjective robust(d, *loss, 0.2, 0.05);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    EXPECT_LT(linalg::distance2(robust.gradient(theta), robust.numerical_gradient(theta)),
              2e-4);
}

// -------------------------------------------------------------- chi-square

TEST(ChiSquareDual, ZeroRadiusIsEmpiricalMean) {
    const ChiSquareDualSolution s = solve_chi_square_dual({1.0, 3.0}, 0.0);
    EXPECT_NEAR(s.value, 2.0, 1e-12);
}

TEST(ChiSquareDual, ValueBetweenMeanAndMax) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    for (const double rho : {0.05, 0.3, 1.5}) {
        const ChiSquareDualSolution s = solve_chi_square_dual(losses, rho);
        EXPECT_GE(s.value, 1.875 - 1e-6);
        EXPECT_LE(s.value, 4.0 + 1e-6);
    }
}

TEST(ChiSquareDual, MonotoneInRadius) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    double previous = 0.0;
    for (const double rho : {0.0, 0.05, 0.2, 0.8, 3.0}) {
        const double current = solve_chi_square_dual(losses, rho).value;
        EXPECT_GE(current, previous - 1e-6);
        previous = current;
    }
}

TEST(ChiSquareDual, WorstCaseWeightsAttainValueAndAreFeasible) {
    const linalg::Vector losses{0.5, 1.0, 4.0, 2.0};
    const double rho = 0.4;
    const ChiSquareDualSolution s = solve_chi_square_dual(losses, rho);
    double attained = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        attained += s.weights[i] * losses[i];
        total += s.weights[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(attained, s.value, 5e-3);
    // chi2 feasibility: (1/2n) sum (n q_i - 1)^2 <= rho.
    double chi2 = 0.0;
    for (const double q : s.weights) {
        chi2 += (4.0 * q - 1.0) * (4.0 * q - 1.0);
    }
    chi2 /= 8.0;
    EXPECT_LE(chi2, rho + 5e-3);
}

TEST(ChiSquareDual, SmallRadiusMatchesVarianceExpansion) {
    // sup ~= mean + sqrt(2 rho Var_hat) for small rho (population variance).
    stats::Rng rng(8);
    linalg::Vector losses(200);
    for (double& l : losses) l = rng.normal(2.0, 0.5);
    const double rho = 0.01;
    double m = 0.0;
    for (const double l : losses) m += l;
    m /= 200.0;
    double var = 0.0;
    for (const double l : losses) var += (l - m) * (l - m);
    var /= 200.0;
    const double expansion = m + std::sqrt(2.0 * rho * var);
    EXPECT_NEAR(solve_chi_square_dual(losses, rho).value, expansion, 0.02);
}

TEST(ChiSquareObjective, GradientMatchesNumerical) {
    stats::Rng rng(9);
    const models::Dataset d = fixture_dataset(rng, 25);
    const auto loss = models::make_logistic_loss();
    const ChiSquareDroObjective robust(d, *loss, 0.3);
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    EXPECT_LT(linalg::distance2(robust.gradient(theta), robust.numerical_gradient(theta)),
              5e-3);
}

// --------------------------------------------------------- unified factory

TEST(RobustObjective, FactoryDispatchesAllKinds) {
    stats::Rng rng(10);
    const models::Dataset d = fixture_dataset(rng, 20);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const double erm = make_robust_objective(d, *loss, AmbiguitySet::none())->value(theta);
    for (const AmbiguitySet set : {AmbiguitySet::wasserstein(0.2), AmbiguitySet::kl(0.2),
                                   AmbiguitySet{AmbiguityKind::kChiSquare, 0.2}}) {
        const double robust = make_robust_objective(d, *loss, set)->value(theta);
        EXPECT_GE(robust, erm - 1e-9) << ambiguity_name(set.kind);
    }
}

TEST(RobustObjective, RobustTrainingFlattensTheModel) {
    // More robustness => smaller feature norm of the trained model.
    stats::Rng rng(11);
    const models::Dataset d = fixture_dataset(rng, 80);
    const auto loss = models::make_logistic_loss();
    double previous_norm = 1e18;
    for (const double rho : {0.0, 0.1, 0.4, 1.0}) {
        const auto objective = make_robust_objective(d, *loss, AmbiguitySet::wasserstein(rho));
        const auto r = optim::minimize_lbfgs(*objective, linalg::zeros(d.dim()));
        const double n = feature_norm(r.x, perturbable_dims(d));
        EXPECT_LE(n, previous_norm + 1e-6) << rho;
        previous_norm = n;
    }
}

// --------------------------------------------------------------- worst case

TEST(WorstCase, KlAndChiSquareAttainTheirDuals) {
    stats::Rng rng(12);
    const models::Dataset d = fixture_dataset(rng, 30);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    for (const AmbiguitySet set :
         {AmbiguitySet::kl(0.3), AmbiguitySet{AmbiguityKind::kChiSquare, 0.3}}) {
        const WorstCase wc = worst_case_distribution(theta, d, *loss, set);
        const double dual = robust_loss(theta, d, *loss, set);
        EXPECT_NEAR(wc.expected_loss, dual, 5e-3) << ambiguity_name(set.kind);
    }
}

TEST(WorstCase, WassersteinWitnessIsSandwiched) {
    // The Wasserstein sup may not be attained, but the constructed feasible
    // plan must lie between the clean loss and the dual value.
    stats::Rng rng(13);
    const models::Dataset d = fixture_dataset(rng, 30);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const AmbiguitySet set = AmbiguitySet::wasserstein(0.4);
    const WorstCase wc = worst_case_distribution(theta, d, *loss, set);
    const double clean = robust_loss(theta, d, *loss, AmbiguitySet::none());
    const double dual = robust_loss(theta, d, *loss, set);
    EXPECT_GE(wc.expected_loss, clean - 1e-9);
    EXPECT_LE(wc.expected_loss, dual + 1e-9);
    // And it should capture most of the gap.
    EXPECT_GT(wc.expected_loss - clean, 0.5 * (dual - clean) - 1e-6);
}

TEST(WorstCase, NoneReturnsEmpirical) {
    stats::Rng rng(14);
    const models::Dataset d = fixture_dataset(rng, 15);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const WorstCase wc = worst_case_distribution(theta, d, *loss, AmbiguitySet::none());
    EXPECT_NEAR(wc.expected_loss, robust_loss(theta, d, *loss, AmbiguitySet::none()), 1e-12);
}

}  // namespace
}  // namespace drel::dro
