#include "dro/wasserstein_regression.hpp"

#include <cmath>
#include <stdexcept>

#include "dro/wasserstein.hpp"

namespace drel::dro {

WassersteinRegressionObjective::WassersteinRegressionObjective(const models::Dataset& data,
                                                               double rho, double l2)
    : data_(&data), rho_(rho), l2_(l2), perturbable_(perturbable_dims(data)) {
    if (data.empty()) throw std::invalid_argument("WassersteinRegression: empty dataset");
    if (!(rho >= 0.0)) throw std::invalid_argument("WassersteinRegression: rho must be >= 0");
    if (l2 < 0.0) throw std::invalid_argument("WassersteinRegression: l2 must be >= 0");
}

std::size_t WassersteinRegressionObjective::dim() const { return data_->dim(); }

double WassersteinRegressionObjective::eval(const linalg::Vector& theta,
                                            linalg::Vector* grad) const {
    if (theta.size() != dim()) {
        throw std::invalid_argument("WassersteinRegression: dimension mismatch");
    }
    const std::size_t n = data_->size();
    // Accumulate MSE and its gradient.
    double mse_value = 0.0;
    linalg::Vector mse_grad;
    if (grad) mse_grad = linalg::zeros(dim());
    for (std::size_t i = 0; i < n; ++i) {
        const linalg::Vector xi = data_->feature_row(i);
        const double r = data_->label(i) - linalg::dot(theta, xi);
        mse_value += r * r;
        if (grad) linalg::axpy(-2.0 * r, xi, mse_grad);
    }
    mse_value /= static_cast<double>(n);
    if (grad) linalg::scale(mse_grad, 1.0 / static_cast<double>(n));

    const double root = std::sqrt(std::max(mse_value, 1e-300));
    const double norm = feature_norm(theta, perturbable_);
    const double outer = root + rho_ * norm;
    double value = outer * outer;
    if (grad) {
        // d/dtheta (sqrt(MSE) + rho*||theta_f||)^2
        //   = 2*outer * ( grad(MSE)/(2 sqrt(MSE)) + rho * subgrad norm ).
        *grad = mse_grad;
        linalg::scale(*grad, outer / root);
        if (rho_ > 0.0) {
            linalg::axpy(2.0 * outer * rho_, feature_norm_subgradient(theta, perturbable_),
                         *grad);
        }
    }
    if (l2_ > 0.0) {
        value += 0.5 * l2_ * linalg::dot(theta, theta);
        if (grad) linalg::axpy(l2_, theta, *grad);
    }
    return value;
}

double regression_adversary_value(const linalg::Vector& theta, const models::Dataset& data,
                                  double rho) {
    if (data.empty()) throw std::invalid_argument("regression_adversary_value: empty dataset");
    if (!(rho >= 0.0)) {
        throw std::invalid_argument("regression_adversary_value: rho must be >= 0");
    }
    const std::size_t n = data.size();
    const std::size_t perturbable = perturbable_dims(data);
    const double tnorm = feature_norm(theta, perturbable);

    // Residuals and their RMS.
    linalg::Vector residuals(n);
    double mean_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        residuals[i] = data.label(i) - linalg::dot(theta, data.feature_row(i));
        mean_sq += residuals[i] * residuals[i];
    }
    mean_sq /= static_cast<double>(n);
    const double rms = std::sqrt(mean_sq);

    if (tnorm < 1e-15 || rho == 0.0) return mean_sq;
    if (rms < 1e-15) {
        // Zero residual everywhere: any equal-budget shift attains rho*||theta||
        // of new residual per example.
        return rho * rho * tnorm * tnorm;
    }
    // Attaining plan: per-example transport t_i = rho * |r_i| / rms, moving
    // features along the residual-growing direction. New residual magnitude:
    // |r_i| * (1 + rho * ||theta_f|| / rms); its mean square is exactly
    // (rms + rho * ||theta_f||)^2.
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double grown = std::fabs(residuals[i]) * (1.0 + rho * tnorm / rms);
        value += grown * grown;
    }
    return value / static_cast<double>(n);
}

}  // namespace drel::dro
