// Tests for the label-shift ambiguity set and the multiclass f-divergence
// DRO objectives.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/multiclass_generator.hpp"
#include "data/shifts.hpp"
#include "data/task_generator.hpp"
#include "dro/label_shift.hpp"
#include "dro/softmax_dro.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "optim/lbfgs.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::dro {
namespace {

models::Dataset binary_fixture(stats::Rng& rng, std::size_t n) {
    return test_support::binary_task_dataset(rng, n);
}

// ---------------------------------------------------------------- label shift

TEST(LabelShift, ZeroDeltaIsClassBalancedRisk) {
    stats::Rng rng(1);
    const models::Dataset d = binary_fixture(rng, 50);
    const auto loss = models::make_logistic_loss();
    const LabelShiftDroObjective robust(d, *loss, 0.0);
    EXPECT_DOUBLE_EQ(robust.q_low(), robust.q_high());
    EXPECT_NEAR(robust.q_low(), d.positive_fraction(), 1e-12);
    // Value equals p*L+ + (1-p)*L- which for the empirical p equals mean loss.
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const models::ErmObjective erm(d, *loss);
    EXPECT_NEAR(robust.value(theta), erm.value(theta), 1e-9);
}

TEST(LabelShift, UpperBoundsEmpiricalAndMonotoneInDelta) {
    stats::Rng rng(2);
    const models::Dataset d = binary_fixture(rng, 60);
    const auto loss = models::make_logistic_loss();
    const linalg::Vector theta = rng.standard_normal_vector(d.dim());
    const models::ErmObjective erm(d, *loss);
    double previous = erm.value(theta);
    for (const double delta : {0.05, 0.1, 0.2, 0.4}) {
        const LabelShiftDroObjective robust(d, *loss, delta);
        const double value = robust.value(theta);
        EXPECT_GE(value, previous - 1e-9) << delta;
        previous = value;
    }
}

TEST(LabelShift, GradientMatchesNumerical) {
    stats::Rng rng(3);
    const models::Dataset d = binary_fixture(rng, 30);
    const auto loss = models::make_logistic_loss();
    const LabelShiftDroObjective robust(d, *loss, 0.2, 0.01);
    for (int trial = 0; trial < 3; ++trial) {
        const linalg::Vector theta = rng.standard_normal_vector(d.dim());
        EXPECT_LT(linalg::distance2(robust.gradient(theta),
                                    robust.numerical_gradient(theta)),
                  2e-4);
    }
}

TEST(LabelShift, WorstRatePicksLossierClass) {
    stats::Rng rng(4);
    const models::Dataset d = binary_fixture(rng, 60);
    const auto loss = models::make_logistic_loss();
    const LabelShiftDroObjective robust(d, *loss, 0.3);
    // A model that strongly predicts +1 everywhere makes negatives lossy,
    // so the adversary shifts mass to negatives (low positive rate).
    linalg::Vector always_positive = linalg::zeros(d.dim());
    always_positive.back() = 10.0;  // bias weight
    EXPECT_DOUBLE_EQ(robust.worst_positive_rate(always_positive), robust.q_low());
    // And vice versa.
    linalg::Vector always_negative = linalg::zeros(d.dim());
    always_negative.back() = -10.0;
    EXPECT_DOUBLE_EQ(robust.worst_positive_rate(always_negative), robust.q_high());
}

TEST(LabelShift, TrainingControlsWorstDirectionOfSkew) {
    // The guarantee is about the WORST deployment skew, not any particular
    // one: over test sets skewed both ways, the robust model's worst
    // log-loss must not exceed plain ERM's worst log-loss summed over seeds.
    // A direction-specific comparison would be the wrong property — the
    // adversary protects both tails at once.
    //
    // The per-seed difference d = robust - ERM is small and heavy-tailed:
    // about 1 seed in 100 draws a training set on which both fits blow up
    // to a worst log-loss of 5-128 nats, in either direction. Measured over
    // seeds 0-999 (xoshiro256** streams; mt19937_64 before it in brackets):
    // the raw sum of d is ~0 (+0.6 [-5.7]) and 3 [3] of the ten disjoint
    // 100-seed blocks fail the raw check, while clamping d to +-0.5 nats
    // gives mean -0.021 [-0.025], sd 0.128 [0.137]. The seed count is
    // chosen from the mt19937_64 figures: over 400 seeds the clamped sum
    // fails its 0.05 margin with probability ~1e-4 (normal approximation;
    // 6.5e-4 on the current streams), and no disjoint 400-seed block
    // failed on either generator. The clamp bounds each seed's influence so
    // that estimate holds; it is not what passes this window, whose raw sum
    // is -29.3 [-12.2] against a clamped -11.0 [-11.9].
    constexpr double kClamp = 0.5;
    double clamped_total = 0.0;
    const auto loss = models::make_logistic_loss();
    for (std::uint64_t seed = 10; seed < 410; ++seed) {
        stats::Rng rng(seed);
        const data::TaskPopulation pop =
            data::TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
        const data::TaskSpec task = pop.sample_task(rng);
        const models::Dataset train = pop.generate(task, 40, rng);
        const models::Dataset test = pop.generate(task, 2000, rng);
        models::Dataset skew_pos = data::apply_label_shift(test, 0.85, rng);
        models::Dataset skew_neg = data::apply_label_shift(test, 0.15, rng);

        const LabelShiftDroObjective robust(train, *loss, 0.3);
        const auto robust_fit = optim::minimize_lbfgs(robust, linalg::zeros(train.dim()));
        const models::LinearModel robust_model(robust_fit.x);
        const double robust_worst = std::max(models::log_loss(robust_model, skew_pos),
                                             models::log_loss(robust_model, skew_neg));

        const models::ErmObjective erm(train, *loss);
        const auto erm_fit = optim::minimize_lbfgs(erm, linalg::zeros(train.dim()));
        const models::LinearModel erm_model(erm_fit.x);
        const double erm_worst = std::max(models::log_loss(erm_model, skew_pos),
                                          models::log_loss(erm_model, skew_neg));
        clamped_total += std::clamp(robust_worst - erm_worst, -kClamp, kClamp);
    }
    EXPECT_LE(clamped_total, 0.05);
}

TEST(LabelShift, Validation) {
    stats::Rng rng(5);
    const models::Dataset d = binary_fixture(rng, 20);
    const auto loss = models::make_logistic_loss();
    EXPECT_THROW(LabelShiftDroObjective(d, *loss, -0.1), std::invalid_argument);
    const auto squared = models::make_squared_loss();
    EXPECT_THROW(LabelShiftDroObjective(d, *squared, 0.1), std::invalid_argument);
    // Single-class dataset.
    const models::Dataset one_class(linalg::Matrix(2, 2, {1.0, 1.0, 2.0, 1.0}), {1.0, 1.0});
    EXPECT_THROW(LabelShiftDroObjective(one_class, *loss, 0.1), std::invalid_argument);
}

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
                                   AmbiguitySet::chi_square(0.2)}) {
        EXPECT_GE(make_softmax_robust_objective(d, 3, set)->value(theta), erm - 1e-9)
            << set.to_string();
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
