#include "dp/diagonal_predictive.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eigen_sym.hpp"

namespace drel::dp {

DiagonalPredictive::DiagonalPredictive(const linalg::Matrix& base_precision,
                                       const linalg::Cholesky& within,
                                       const linalg::Vector& base_mean) {
    const linalg::Matrix& c = within.lower();
    const std::size_t d = c.rows();
    if (base_precision.rows() != d || base_precision.cols() != d || base_mean.size() != d) {
        throw std::invalid_argument("DiagonalPredictive: shape mismatch");
    }
    linalg::EigenSym eig = linalg::eigen_sym(c.transposed().matmul(base_precision).matmul(c));
    eigenvalues_ = std::move(eig.values);
    // Row i of T = Q^T C^{-1} is (C^{-T} q_i)^T: one back substitution per
    // eigenvector.
    transform_ = linalg::Matrix(d, d);
    for (std::size_t i = 0; i < d; ++i) transform_.set_row(i, within.solve_upper(eig.vectors.col(i)));
    log_det_within_ = within.log_det();
    prior_.resize(d);
    whiten(base_mean.data(), prior_.data());
    for (std::size_t i = 0; i < d; ++i) prior_[i] *= eigenvalues_[i];
}

void DiagonalPredictive::whiten(const double* x, double* y) const noexcept {
    for (std::size_t i = 0; i < dim(); ++i) y[i] = linalg::dot_n(transform_.row_data(i), x, dim());
}

DiagonalPredictive::CountTerms DiagonalPredictive::count_terms(std::size_t count) const {
    static constexpr double kLogTwoPi = 1.8378770664093454836;
    CountTerms terms{linalg::Vector(dim()), linalg::Vector(dim()), 0.0};
    double log_det = log_det_within_;
    for (std::size_t i = 0; i < dim(); ++i) {
        const double shrink = 1.0 / (eigenvalues_[i] + static_cast<double>(count));
        terms.shrink[i] = shrink;
        terms.inv_var[i] = 1.0 / (1.0 + shrink);
        log_det += std::log1p(shrink);
    }
    terms.log_norm = -0.5 * (static_cast<double>(dim()) * kLogTwoPi + log_det);
    return terms;
}

}  // namespace drel::dp
