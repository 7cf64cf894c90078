#include <gtest/gtest.h>

#include <cmath>

#include "core/edge_learner.hpp"
#include "core/em_dro.hpp"
#include "data/task_generator.hpp"
#include "dp/mixture_prior.hpp"
#include "models/erm_objective.hpp"
#include "models/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::core {
namespace {

using Fixture = test_support::PopulationFixture;

/// Small edge dataset whose task comes from a 3-mode population; the prior
/// is the *exact* population mixture (atoms at the true modes) so core tests
/// are isolated from DPMM inference quality.
Fixture make_fixture(std::uint64_t seed, std::size_t n_train = 16) {
    return test_support::make_population_fixture(seed, n_train, /*n_test=*/2500);
}

// ----------------------------------------------------------------- EM-DRO

TEST(EmDro, ObjectiveMonotoneNonIncreasing) {
    const Fixture f = make_fixture(1);
    const auto loss = models::make_logistic_loss();
    const EmDroSolver solver(f.train, *loss, f.prior, dro::AmbiguitySet::wasserstein(0.1),
                             2.0);
    const EmDroResult r = solver.solve_from(f.prior.mean());
    ASSERT_GE(r.trace.objective.size(), 2u);
    for (std::size_t i = 1; i < r.trace.objective.size(); ++i) {
        EXPECT_LE(r.trace.objective[i], r.trace.objective[i - 1] + 1e-8) << "iteration " << i;
    }
}

TEST(EmDro, SolveImprovesOnInitialObjective) {
    const Fixture f = make_fixture(2);
    const auto loss = models::make_logistic_loss();
    const EmDroSolver solver(f.train, *loss, f.prior, dro::AmbiguitySet::wasserstein(0.1),
                             2.0);
    const double at_mean = solver.objective(f.prior.mean());
    const EmDroResult r = solver.solve();
    EXPECT_LT(r.objective, at_mean);
}

TEST(EmDro, ResponsibilitiesConcentrateOnTrueMode) {
    // With enough local data the learned theta should sit in the basin of
    // the task's true population mode.
    const Fixture f = make_fixture(3, 64);
    const auto loss = models::make_logistic_loss();
    const EmDroSolver solver(f.train, *loss, f.prior, dro::AmbiguitySet::wasserstein(0.05),
                             2.0);
    const EmDroResult r = solver.solve();
    EXPECT_EQ(linalg::argmax(r.final_responsibilities), f.task.mode_index);
    EXPECT_GT(r.final_responsibilities[f.task.mode_index], 0.9);
}

TEST(EmDro, ZeroTransferWeightEqualsPureDro) {
    const Fixture f = make_fixture(4);
    const auto loss = models::make_logistic_loss();
    const dro::AmbiguitySet set = dro::AmbiguitySet::wasserstein(0.1);
    const EmDroSolver solver(f.train, *loss, f.prior, set, 0.0);
    const EmDroResult r = solver.solve();
    // Must match directly minimizing the robust objective.
    const auto robust = dro::make_robust_objective(f.train, *loss, set);
    const auto direct = optim::minimize_lbfgs(*robust, f.prior.mean());
    EXPECT_NEAR(robust->value(r.theta), direct.value, 1e-4);
}

TEST(EmDro, LargeTransferWeightPinsToPrior) {
    const Fixture f = make_fixture(5);
    const auto loss = models::make_logistic_loss();
    const EmDroSolver solver(f.train, *loss, f.prior, dro::AmbiguitySet::none(), 1e6);
    const EmDroResult r = solver.solve();
    // With overwhelming prior weight, theta must sit essentially at a prior
    // mode: its log-density should be within a hair of the best atom's.
    double best_atom_density = -1e18;
    for (std::size_t k = 0; k < f.prior.num_components(); ++k) {
        best_atom_density =
            std::max(best_atom_density, f.prior.log_pdf(f.prior.atom(k).mean()));
    }
    EXPECT_GT(f.prior.log_pdf(r.theta), best_atom_density - 0.5);
}

TEST(EmDro, DimensionValidation) {
    const Fixture f = make_fixture(6);
    const auto loss = models::make_logistic_loss();
    // Prior of wrong dimension must be rejected at construction.
    const dp::MixturePrior bad =
        dp::MixturePrior::single(stats::MultivariateNormal::isotropic({0.0, 0.0}, 1.0));
    EXPECT_THROW(EmDroSolver(f.train, *loss, bad, dro::AmbiguitySet::none(), 1.0),
                 std::invalid_argument);
    const EmDroSolver solver(f.train, *loss, f.prior, dro::AmbiguitySet::none(), 1.0);
    EXPECT_THROW(solver.solve_from({1.0}), std::invalid_argument);
}

TEST(EmDro, TraceFieldsConsistent) {
    const Fixture f = make_fixture(7);
    const auto loss = models::make_logistic_loss();
    const EmDroSolver solver(f.train, *loss, f.prior, dro::AmbiguitySet::wasserstein(0.1),
                             1.0);
    const EmDroResult r = solver.solve_from(f.prior.mean());
    EXPECT_EQ(r.trace.robust_loss.size(), r.trace.log_prior.size());
    EXPECT_EQ(r.trace.robust_loss.size(),
              static_cast<std::size_t>(r.trace.outer_iterations));
    // objective = robust - w*log_prior at every recorded iterate.
    const double w = solver.transfer_weight_scaled();
    for (std::size_t i = 0; i < r.trace.robust_loss.size(); ++i) {
        EXPECT_NEAR(r.trace.objective[i],
                    r.trace.robust_loss[i] - w * r.trace.log_prior[i], 1e-9);
    }
}

// ------------------------------------------------------------- EdgeLearner

TEST(EdgeLearner, FitBeatsPureLocalOnFewSamples) {
    // The headline claim at unit-test scale: with 12 samples, EM-DRO with
    // the true population prior must beat unregularized local ERM on
    // held-out data (averaged over tasks to kill seed luck).
    double em_dro_total = 0.0;
    double local_total = 0.0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
        const Fixture f = make_fixture(100 + t, 12);
        EdgeLearnerConfig config;
        config.radius_coefficient = 0.25;
        config.transfer_weight = 2.0;
        const EdgeLearner learner(f.prior, config);
        const FitResult fit = learner.fit(f.train);
        em_dro_total += models::accuracy(fit.model, f.test);

        const auto loss = models::make_logistic_loss();
        const models::ErmObjective erm(f.train, *loss);
        const auto r = optim::minimize_lbfgs(erm, linalg::zeros(f.train.dim()));
        local_total += models::accuracy(models::LinearModel(r.x), f.test);
    }
    EXPECT_GT(em_dro_total / trials, local_total / trials + 0.02);
}

TEST(EdgeLearner, AutoRadiusFollowsSchedule) {
    const Fixture f = make_fixture(8);
    EdgeLearnerConfig config;
    config.radius_coefficient = 1.0;
    const EdgeLearner learner(f.prior, config);
    EXPECT_NEAR(learner.effective_ambiguity(16).radius, 0.25, 1e-12);
    EXPECT_NEAR(learner.effective_ambiguity(64).radius, 0.125, 1e-12);
}

TEST(EdgeLearner, ManualRadiusRespected) {
    const Fixture f = make_fixture(9);
    EdgeLearnerConfig config;
    config.auto_radius = false;
    config.ambiguity = dro::AmbiguitySet::kl(0.77);
    const EdgeLearner learner(f.prior, config);
    EXPECT_DOUBLE_EQ(learner.effective_ambiguity(10).radius, 0.77);
    EXPECT_EQ(learner.effective_ambiguity(10).kind, dro::AmbiguityKind::kKl);
}

TEST(EdgeLearner, FitReportIsCoherent) {
    const Fixture f = make_fixture(10);
    const EdgeLearner learner(f.prior, {});
    const FitResult fit = learner.fit(f.train);
    EXPECT_EQ(fit.model.dim(), f.train.dim());
    EXPECT_NEAR(linalg::sum(fit.responsibilities), 1.0, 1e-9);
    EXPECT_LT(fit.map_component, f.prior.num_components());
    EXPECT_GT(fit.chosen_radius, 0.0);
    EXPECT_GE(fit.trace.outer_iterations, 1);
}

TEST(EdgeLearner, RejectsDimensionMismatch) {
    const Fixture f = make_fixture(11);
    const EdgeLearner learner(f.prior, {});
    const models::Dataset wrong(test_support::matrix_of(3, 2, {1.0, 1.0, 2.0, 1.0, 3.0, 1.0}),
                                {1.0, -1.0, 1.0});
    EXPECT_THROW(learner.fit(wrong), std::invalid_argument);
}

TEST(EdgeLearner, WorksWithEveryAmbiguityKind) {
    const Fixture f = make_fixture(12);
    for (const dro::AmbiguityKind kind :
         {dro::AmbiguityKind::kNone, dro::AmbiguityKind::kWasserstein, dro::AmbiguityKind::kKl,
          dro::AmbiguityKind::kChiSquare}) {
        EdgeLearnerConfig config;
        config.ambiguity.kind = kind;
        config.em.max_outer_iterations = 10;
        const EdgeLearner learner(f.prior, config);
        const FitResult fit = learner.fit(f.train);
        EXPECT_GT(models::accuracy(fit.model, f.test), 0.5)
            << dro::ambiguity_name(kind);
    }
}

TEST(EdgeLearner, SmoothedHingeLossSupported) {
    const Fixture f = make_fixture(13);
    EdgeLearnerConfig config;
    config.loss = models::LossKind::kSmoothedHinge;
    const EdgeLearner learner(f.prior, config);
    const FitResult fit = learner.fit(f.train);
    EXPECT_GT(models::accuracy(fit.model, f.test), 0.6);
}

}  // namespace
}  // namespace drel::core
