#include "stats/multivariate_normal.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::stats {
namespace {

constexpr double kLogTwoPi = 1.8378770664093454836;

}  // namespace

MultivariateNormal::MultivariateNormal(linalg::Vector mean, linalg::Matrix covariance)
    : mean_(std::move(mean)),
      covariance_(std::move(covariance)),
      chol_(linalg::Cholesky::factor_with_jitter(covariance_)) {
    if (covariance_.rows() != mean_.size() || covariance_.cols() != mean_.size()) {
        throw std::invalid_argument("MultivariateNormal: covariance shape does not match mean");
    }
    // The factor is immutable from here on; cache log|Σ| eagerly so the
    // responsibility hot loops skip d logarithms per density evaluation.
    log_det_ = chol_.log_det();
}

MultivariateNormal MultivariateNormal::isotropic(linalg::Vector mean, double variance) {
    if (!(variance > 0.0)) {
        throw std::invalid_argument("MultivariateNormal::isotropic: variance must be positive");
    }
    linalg::Matrix cov = linalg::Matrix::identity(mean.size());
    cov *= variance;
    return MultivariateNormal(std::move(mean), std::move(cov));
}

MultivariateNormal MultivariateNormal::diagonal(linalg::Vector mean,
                                                const linalg::Vector& variances) {
    if (mean.size() != variances.size()) {
        throw std::invalid_argument("MultivariateNormal::diagonal: dimension mismatch");
    }
    for (const double v : variances) {
        if (!(v > 0.0)) {
            throw std::invalid_argument(
                "MultivariateNormal::diagonal: variances must be positive");
        }
    }
    return MultivariateNormal(std::move(mean), linalg::Matrix::diagonal(variances));
}

double MultivariateNormal::log_pdf(const linalg::Vector& x) const {
    return log_pdf_ws(x, util::Workspace::local());
}

double MultivariateNormal::mahalanobis_sq(const linalg::Vector& x) const {
    return mahalanobis_sq_ws(x, util::Workspace::local());
}

double MultivariateNormal::log_pdf_ws(const linalg::Vector& x, util::Workspace& ws) const {
    return log_pdf_from_mahalanobis_sq(mahalanobis_sq_ws(x, ws));
}

double MultivariateNormal::log_pdf_from_mahalanobis_sq(double quad) const noexcept {
    return -0.5 * (static_cast<double>(dim()) * kLogTwoPi + log_det_ + quad);
}

double MultivariateNormal::mahalanobis_sq_ws(const linalg::Vector& x,
                                             util::Workspace& ws) const {
    if (x.size() != dim()) {
        throw std::invalid_argument("MultivariateNormal::mahalanobis_sq: dimension mismatch");
    }
    // ||L⁻¹ (x - mean)||², with the residual and triangular solve done in a
    // leased buffer.
    auto diff = ws.vec(dim());
    linalg::sub_into(x, mean_, *diff);
    chol_.solve_lower_in_place(*diff);
    return linalg::dot_n(diff->data(), diff->data(), dim());
}

linalg::Vector MultivariateNormal::precision_times_residual(const linalg::Vector& x) const {
    if (x.size() != dim()) {
        throw std::invalid_argument(
            "MultivariateNormal::precision_times_residual: dimension mismatch");
    }
    linalg::Vector out;
    linalg::sub_into(x, mean_, out);
    chol_.solve_in_place(out);
    return out;
}

linalg::Vector MultivariateNormal::sample(Rng& rng) const {
    // x = mean + L z with z ~ N(0, I).
    const linalg::Vector z = rng.standard_normal_vector(dim());
    linalg::Vector x = mean_;
    const linalg::Matrix& l = chol_.lower();
    for (std::size_t r = 0; r < dim(); ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c <= r; ++c) acc += l(r, c) * z[c];
        x[r] += acc;
    }
    return x;
}

}  // namespace drel::stats
