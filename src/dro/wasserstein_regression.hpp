// Wasserstein DRO for linear regression — exact type-2 duality.
//
// For squared loss l(theta; x, y) = (y - <theta, x>)^2 and the order-2
// Wasserstein ball with transport cost ||dx||_2^2 on features (labels and
// the trailing bias coordinate immutable), Blanchet, Kang & Murthy (2019)
// prove
//
//   sup_{Q : W2(Q, P_hat) <= rho} E_Q[(y - <theta, x>)^2]
//     = ( sqrt( E_{P_hat}[(y - <theta, x>)^2] ) + rho * ||theta_feat||_2 )^2
//
// — the square of a "sqrt-ridge" objective. The right-hand side is convex
// in theta (composition of the convex, nonnegative sqrt-MSE + norm with the
// increasing convex square), so the robust regression fit stays a smooth
// convex program. This module provides the objective, its gradient, and a
// Monte-Carlo adversary used by tests to certify the formula from below.
#pragma once

#include "models/dataset.hpp"
#include "optim/objective.hpp"
#include "stats/rng.hpp"

namespace drel::dro {

class WassersteinRegressionObjective final : public optim::Objective {
 public:
    /// Labels in `data` are real-valued responses.
    WassersteinRegressionObjective(const models::Dataset& data, double rho, double l2 = 0.0);

    std::size_t dim() const override;
    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override;

    double rho() const noexcept { return rho_; }

 private:
    const models::Dataset* data_;
    double rho_;
    double l2_;
    std::size_t perturbable_;
};

/// Feasible adversary for the type-2 ball: shifts each example's features
/// along the residual-increasing direction with per-example budgets chosen
/// proportional to |residual| (the profile of the attaining plan), scaled so
/// the mean squared transport equals rho^2. Its E_Q[squared loss] lower-
/// bounds the closed form — tests check it gets within a few percent.
double regression_adversary_value(const linalg::Vector& theta, const models::Dataset& data,
                                  double rho);

}  // namespace drel::dro
