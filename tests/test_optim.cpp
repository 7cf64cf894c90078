#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/task_generator.hpp"
#include "dp/mixture_prior.hpp"
#include "linalg/matrix.hpp"
#include "models/erm_objective.hpp"
#include "models/loss.hpp"
#include "optim/admm.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgs.hpp"
#include "optim/line_search.hpp"
#include "optim/objective.hpp"
#include "optim/scalar.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"
#include "util/workspace.hpp"

namespace drel::optim {
namespace {

using test_support::bits_equal;
using test_support::vectors_bits_equal;

/// f(x) = 0.5 x^T A x - b^T x with SPD A; optimum at A x = b.
class QuadraticObjective final : public Objective {
 public:
    QuadraticObjective(linalg::Matrix a, linalg::Vector b) : a_(std::move(a)), b_(std::move(b)) {}

    std::size_t dim() const override { return b_.size(); }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const linalg::Vector ax = a_.matvec(x);
        if (grad) {
            *grad = ax;
            linalg::axpy(-1.0, b_, *grad);
        }
        return 0.5 * linalg::dot(x, ax) - linalg::dot(b_, x);
    }

 private:
    linalg::Matrix a_;
    linalg::Vector b_;
};

QuadraticObjective random_quadratic(std::size_t n, stats::Rng& rng) {
    linalg::Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix a = m.matmul(m.transposed());
    a.add_diagonal(1.0);
    return QuadraticObjective(std::move(a), rng.standard_normal_vector(n));
}

/// Rosenbrock in 2-D — the classic nonconvex line-search stress test.
class RosenbrockObjective final : public Objective {
 public:
    std::size_t dim() const override { return 2; }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        if (grad) {
            *grad = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        }
        return a * a + 100.0 * b * b;
    }
};

/// Forwards to another objective and counts evaluations. It also counts
/// gradient out-vectors that arrive non-empty: L-BFGS hands every
/// evaluation an empty one.
class CountingObjective final : public Objective {
 public:
    explicit CountingObjective(const Objective& inner) : inner_(inner) {}

    std::size_t dim() const override { return inner_.dim(); }

    double eval(const linalg::Vector& x, linalg::Vector* grad) const override {
        ++evaluations;
        if (grad && !grad->empty()) ++non_empty_gradients;
        return inner_.eval(x, grad);
    }

    mutable int evaluations = 0;
    mutable int non_empty_gradients = 0;

 private:
    const Objective& inner_;
};

// ----------------------------------------------------------- finite checks

TEST(Objective, NumericalGradientMatchesAnalytic) {
    stats::Rng rng(21);
    const QuadraticObjective q = random_quadratic(5, rng);
    const linalg::Vector x = rng.standard_normal_vector(5);
    const linalg::Vector analytic = q.gradient(x);
    const linalg::Vector numeric = q.numerical_gradient(x);
    EXPECT_LT(linalg::distance2(analytic, numeric), 1e-5);
}

// ------------------------------------------------------------- line search

TEST(LineSearch, ArmijoAcceptsDescentDirection) {
    stats::Rng rng(22);
    const QuadraticObjective q = random_quadratic(4, rng);
    const linalg::Vector x = rng.standard_normal_vector(4);
    linalg::Vector grad;
    const double fx = q.eval(x, &grad);
    const LineSearchResult r =
        backtracking_armijo(q, x, fx, grad, linalg::scaled(grad, -1.0));
    ASSERT_TRUE(r.success);
    EXPECT_LT(r.value, fx);
}

TEST(LineSearch, ArmijoRejectsAscentDirection) {
    stats::Rng rng(23);
    const QuadraticObjective q = random_quadratic(4, rng);
    const linalg::Vector x = rng.standard_normal_vector(4);
    linalg::Vector grad;
    const double fx = q.eval(x, &grad);
    const LineSearchResult r = backtracking_armijo(q, x, fx, grad, grad);
    EXPECT_FALSE(r.success);
}

TEST(LineSearch, StrongWolfeSatisfiesBothConditions) {
    stats::Rng rng(24);
    const QuadraticObjective q = random_quadratic(6, rng);
    const linalg::Vector x = rng.standard_normal_vector(6);
    linalg::Vector grad;
    const double fx = q.eval(x, &grad);
    const linalg::Vector d = linalg::scaled(grad, -1.0);
    const double c1 = 1e-4;
    const double c2 = 0.9;
    const LineSearchResult r = strong_wolfe(q, x, fx, grad, d, 1.0, c1, c2);
    ASSERT_TRUE(r.success);
    // Armijo:
    EXPECT_LE(r.value, fx + c1 * r.step * linalg::dot(grad, d) + 1e-12);
    // Curvature:
    linalg::Vector x_new = x;
    linalg::axpy(r.step, d, x_new);
    linalg::Vector grad_new;
    const double f_new = q.eval(x_new, &grad_new);
    EXPECT_LE(std::fabs(linalg::dot(grad_new, d)), -c2 * linalg::dot(grad, d) + 1e-9);
    // The returned value and gradient are a fresh evaluation's bits at the
    // accepted point formed as copy + axpy, which is what L-BFGS relies on
    // to skip re-evaluating there.
    EXPECT_TRUE(bits_equal(r.value, f_new));
    EXPECT_TRUE(vectors_bits_equal(r.gradient, grad_new));
}

// --------------------------------------------------------- gradient descent

TEST(GradientDescent, SolvesQuadraticToTolerance) {
    stats::Rng rng(25);
    const QuadraticObjective q = random_quadratic(6, rng);
    GradientDescentOptions options;
    options.stopping.max_iterations = 5000;
    options.stopping.grad_tolerance = 1e-8;
    options.stopping.value_tolerance = 0.0;  // force the gradient criterion
    const OptimResult r = minimize_gradient_descent(q, linalg::zeros(6), options);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.grad_norm, 1e-6);
}

TEST(GradientDescent, RejectsDimensionMismatch) {
    stats::Rng rng(26);
    const QuadraticObjective q = random_quadratic(3, rng);
    EXPECT_THROW(minimize_gradient_descent(q, linalg::zeros(4)), std::invalid_argument);
}

// ------------------------------------------------------------------- L-BFGS

TEST(Lbfgs, MatchesClosedFormQuadraticSolution) {
    stats::Rng rng(28);
    linalg::Matrix m(8, 8);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix a = m.matmul(m.transposed());
    a.add_diagonal(1.0);
    const linalg::Vector b = rng.standard_normal_vector(8);
    const QuadraticObjective q(a, b);
    const OptimResult r = minimize_lbfgs(q, linalg::zeros(8));
    ASSERT_TRUE(r.converged);
    // Optimum solves A x = b.
    EXPECT_LT(linalg::distance2(a.matvec(r.x), b), 1e-5);
}

TEST(Lbfgs, SolvesRosenbrock) {
    const RosenbrockObjective f;
    LbfgsOptions options;
    options.stopping.max_iterations = 2000;
    const OptimResult r = minimize_lbfgs(f, {-1.2, 1.0}, options);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, FasterThanGradientDescentOnIllConditioned) {
    // Diagonal quadratic with condition number 1e4.
    linalg::Vector diag(10);
    for (std::size_t i = 0; i < 10; ++i) diag[i] = std::pow(10.0, static_cast<double>(i) / 2.25);
    const QuadraticObjective q(linalg::Matrix::diagonal(diag), linalg::constant(10, 1.0));
    const OptimResult lbfgs = minimize_lbfgs(q, linalg::zeros(10));
    GradientDescentOptions gd_options;
    gd_options.stopping.max_iterations = lbfgs.iterations + 5;
    const OptimResult gd = minimize_gradient_descent(q, linalg::zeros(10), gd_options);
    EXPECT_LT(lbfgs.value, gd.value - 1e-8);  // same budget, L-BFGS strictly better
}

// L-BFGS evaluates the objective once at x0 and otherwise only inside its
// line searches: the accepted point's value and gradient come back from the
// search. Each one-iteration solve below is replayed against a direct
// strong_wolfe call from the same start (steepest descent, the solver's
// first-iteration step), so the solve must cost exactly 1 + that search's
// evaluations and land on the bits the search accepted.
TEST(Lbfgs, EvaluatesOnlyInsideLineSearches) {
    const RosenbrockObjective rosenbrock;
    const CountingObjective counted(rosenbrock);
    LbfgsOptions options;
    options.stopping.max_iterations = 1;
    linalg::Vector x{-1.2, 1.0};
    int multi_probe_searches = 0;
    for (int step = 0; step < 40; ++step) {
        linalg::Vector grad;
        const double fx = rosenbrock.eval(x, &grad);
        const linalg::Vector d = linalg::scaled(grad, -1.0);
        const double init_step = 1.0 / std::max(1.0, linalg::norm2(grad));
        const LineSearchResult ls =
            strong_wolfe(rosenbrock, x, fx, grad, d, init_step);
        ASSERT_TRUE(ls.success) << "step " << step;
        if (ls.evaluations > 1) ++multi_probe_searches;

        counted.evaluations = 0;
        const OptimResult r = minimize_lbfgs(counted, x, options);
        EXPECT_EQ(counted.evaluations, 1 + ls.evaluations) << "step " << step;
        linalg::Vector x_ls = x;
        linalg::axpy(ls.step, d, x_ls);
        EXPECT_TRUE(vectors_bits_equal(r.x, x_ls)) << "step " << step;
        EXPECT_TRUE(bits_equal(r.value, ls.value)) << "step " << step;
        EXPECT_TRUE(bits_equal(r.grad_norm, linalg::norm_inf(ls.gradient))) << "step " << step;
        x = r.x;
    }
    EXPECT_EQ(counted.non_empty_gradients, 0);
    EXPECT_GT(multi_probe_searches, 0) << "no search left its first probe";
}

// history = 3 keeps the correction store full and evicting for most of each
// solve, so the two-loop recursion reads pairs in their wrap-around order on
// every iteration past the third. The objectives are Rosenbrock and the
// EM-DRO M-step shape: a 9-D logistic ERM minus a weighted mixture-prior
// surrogate over full-covariance atoms. Iterates, values and iteration
// counts were recorded from the solver that kept its pairs in a deque.
TEST(Lbfgs, HistoryWrapTrajectoryPinned) {
    using test_support::bits_digest;
    using test_support::hex_bits;
    LbfgsOptions options;
    options.history = 3;
    options.stopping.max_iterations = 200;

    const OptimResult rosenbrock = minimize_lbfgs(RosenbrockObjective{}, {-1.2, 1.0}, options);
    EXPECT_GE(rosenbrock.iterations, 15);
    EXPECT_EQ(rosenbrock.iterations, 36);
    EXPECT_EQ(bits_digest(rosenbrock.x), "7f3f47faff3104fb");
    EXPECT_EQ(hex_bits(rosenbrock.value), "3c50bd2b1f56e640");

    stats::Rng rng(63);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(8, 3, 2.0, 0.2, rng);
    const data::TaskSpec task = pop.sample_task(rng);
    const models::Dataset data = pop.generate(task, 24, rng);
    const auto loss = models::make_logistic_loss();
    const models::ErmObjective erm(data, *loss);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (int k = 0; k < 5; ++k) {
        linalg::Matrix m(9, 9);
        for (std::size_t r = 0; r < 9; ++r) {
            for (std::size_t c = 0; c < 9; ++c) m(r, c) = rng.normal();
        }
        linalg::Matrix cov = m.matmul(m.transposed());
        cov *= 1.0 / 9.0;
        cov.add_diagonal(0.1);
        weights.push_back(0.2 + rng.uniform());
        atoms.emplace_back(rng.standard_normal_vector(9), std::move(cov));
    }
    const dp::MixturePrior prior(std::move(weights), std::move(atoms));
    linalg::Vector r = prior.responsibilities(linalg::zeros(9));
    r[1] = 0.0;
    const double weight = 0.5;
    const FunctionObjective m_step(9, [&](const linalg::Vector& x, linalg::Vector* grad) {
        const double value = erm.eval(x, grad);
        if (grad == nullptr) return value - weight * prior.em_surrogate(x, r);
        linalg::Vector g;
        const double surrogate =
            prior.em_surrogate_and_gradient_into(x, r, g, util::Workspace::local());
        linalg::axpy(-weight, g, *grad);
        return value - weight * surrogate;
    });
    const OptimResult fit = minimize_lbfgs(m_step, linalg::zeros(9), options);
    EXPECT_GE(fit.iterations, 15);
    EXPECT_EQ(fit.iterations, 24);
    EXPECT_EQ(bits_digest(fit.x), "b85169267c920ba6");
    EXPECT_EQ(hex_bits(fit.value), "4013155649855f2c");
}

// A solve that exits on the iteration cap ran exactly that many iterations.
TEST(Lbfgs, MaxIterationsExitReportsTheCap) {
    LbfgsOptions options;
    options.stopping.max_iterations = 3;
    const OptimResult r = minimize_lbfgs(RosenbrockObjective{}, {-1.2, 1.0}, options);
    EXPECT_EQ(r.message, "max iterations reached");
    EXPECT_EQ(r.iterations, 3);
}

TEST(GradientDescent, MaxIterationsExitReportsTheCap) {
    const RosenbrockObjective f;
    const linalg::Vector x0{-1.2, 1.0};
    GradientDescentOptions gd_options;
    gd_options.stopping.max_iterations = 3;
    const OptimResult gd = minimize_gradient_descent(f, x0, gd_options);
    EXPECT_EQ(gd.message, "max iterations reached");
    EXPECT_EQ(gd.iterations, 3);
}

TEST(Lbfgs, RespectsHistoryValidation) {
    stats::Rng rng(29);
    const QuadraticObjective q = random_quadratic(3, rng);
    LbfgsOptions options;
    options.history = 0;
    EXPECT_THROW(minimize_lbfgs(q, linalg::zeros(3), options), std::invalid_argument);
}

// ------------------------------------------------------------------ scalar

TEST(Scalar, GoldenSectionFindsParabolaMinimum) {
    const auto r = golden_section_minimize([](double x) { return (x - 2.5) * (x - 2.5); },
                                           -10.0, 10.0);
    EXPECT_NEAR(r.x, 2.5, 1e-7);
    EXPECT_TRUE(r.converged);
}

TEST(Scalar, ConvexRayExpandsBracket) {
    // Minimum far beyond the initial width.
    const auto r = minimize_convex_on_ray(
        [](double x) { return (x - 300.0) * (x - 300.0); }, 0.0, 1.0);
    EXPECT_NEAR(r.x, 300.0, 1e-4);
}

TEST(Scalar, ConvexRayHandlesBoundaryMinimum) {
    // Increasing function: minimum at the ray origin.
    const auto r = minimize_convex_on_ray([](double x) { return x; }, 2.0, 1.0);
    EXPECT_NEAR(r.x, 2.0, 1e-6);
}

// -------------------------------------------------------------------- ADMM

TEST(Admm, ConsensusOfQuadraticsMatchesPooledSolution) {
    // Two quadratics 0.5(x-a)^2 and 0.5(x-b)^2: consensus optimum (a+b)/2.
    const FunctionObjective f1(1, [](const linalg::Vector& x, linalg::Vector* g) {
        if (g) *g = {x[0] - 1.0};
        return 0.5 * (x[0] - 1.0) * (x[0] - 1.0);
    });
    const FunctionObjective f2(1, [](const linalg::Vector& x, linalg::Vector* g) {
        if (g) *g = {x[0] - 5.0};
        return 0.5 * (x[0] - 5.0) * (x[0] - 5.0);
    });
    const AdmmResult r = minimize_consensus_admm({&f1, &f2}, {0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.z[0], 3.0, 1e-4);
}

TEST(Admm, MultiDimensionalConsensus) {
    stats::Rng rng(31);
    const QuadraticObjective q1 = random_quadratic(4, rng);
    const QuadraticObjective q2 = random_quadratic(4, rng);
    const QuadraticObjective q3 = random_quadratic(4, rng);
    const AdmmResult r = minimize_consensus_admm({&q1, &q2, &q3}, linalg::zeros(4));
    EXPECT_TRUE(r.converged);
    // The consensus optimum zeroes the summed gradient.
    linalg::Vector total = linalg::zeros(4);
    const std::vector<const Objective*> terms = {&q1, &q2, &q3};
    for (const Objective* f : terms) {
        linalg::axpy(1.0, f->gradient(r.z), total);
    }
    EXPECT_LT(linalg::norm_inf(total), 1e-3);
}

TEST(Admm, RejectsEmptyAndMismatched) {
    EXPECT_THROW(minimize_consensus_admm({}, {0.0}), std::invalid_argument);
    stats::Rng rng(32);
    const QuadraticObjective a = random_quadratic(2, rng);
    const QuadraticObjective b = random_quadratic(3, rng);
    EXPECT_THROW(minimize_consensus_admm({&a, &b}, linalg::zeros(2)), std::invalid_argument);
}

}  // namespace
}  // namespace drel::optim
