// The conjugate Normal-Normal predictive in the basis that diagonalises it.
//
// DpmmGibbs's model is mu_k ~ N(m0, S0), theta | k ~ N(mu_k, Sw). A cluster
// with n members summing to s predicts a new member as
//
//   N( Lambda(n)^{-1} (S0^{-1} m0 + Sw^{-1} s),  Pred(n) = Lambda(n)^{-1} + Sw ),
//   Lambda(n) = S0^{-1} + n Sw^{-1}.
//
// One fixed change of basis makes every one of these matrices diagonal:
// factor Sw = C C^T, eigendecompose C^T S0^{-1} C = Q diag(D) Q^T, and map
// x to y = T x with T = Q^T C^{-1}. Then T Sw T^T = I, T S0 T^T = diag(1/D),
// and with the whitened sum s~ = T s and prior mean y0 = T m0:
//
//   mean~(n)     = (D ⊙ y0 + s~) ⊘ (D + n)
//   var_i(n)     = 1 + 1/(D_i + n)
//   log|Pred(n)| = log|Sw| + sum_i log(1 + 1/(D_i + n)).
//
// So once a count's terms are cached, a predictive log-density is an O(d)
// weighted sum of squares — no triangular solve, no division. The values
// equal the original-coordinate densities up to rounding, not bit for bit.
#pragma once

#include <cstddef>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::dp {

class DiagonalPredictive {
 public:
    /// What Pred(n) contributes independently of the cluster's sum.
    struct CountTerms {
        linalg::Vector shrink;    ///< 1/(D + n): scales (D ⊙ y0 + s~) to the mean
        linalg::Vector inv_var;   ///< 1/var_i(n): Pred(n)^{-1} in the whitened basis
        double log_norm = 0.0;    ///< -1/2 (d log 2 pi + log|Pred(n)|)
    };

    DiagonalPredictive() = default;

    /// `base_precision` is S0^{-1}, `within` factors Sw = C C^T, and
    /// `base_mean` is m0. Throws std::invalid_argument on mismatched shapes.
    DiagonalPredictive(const linalg::Matrix& base_precision, const linalg::Cholesky& within,
                       const linalg::Vector& base_mean);

    std::size_t dim() const noexcept { return eigenvalues_.size(); }

    /// T = Q^T C^{-1}.
    const linalg::Matrix& transform() const noexcept { return transform_; }

    /// D, ascending: the eigenvalues of C^T S0^{-1} C.
    const linalg::Vector& eigenvalues() const noexcept { return eigenvalues_; }

    /// Writes y = T x; both hold dim() doubles and must not alias.
    void whiten(const double* x, double* y) const noexcept;

    /// Pred(count)'s terms; count 0 is the base predictive N(m0, S0 + Sw).
    CountTerms count_terms(std::size_t count) const;

    /// Writes the whitened predictive mean of a cluster whose whitened
    /// member sum is `sum` (all zeros for count 0).
    void mean_into(const CountTerms& terms, const double* sum, double* mean) const noexcept {
        for (std::size_t i = 0; i < dim(); ++i) mean[i] = (prior_[i] + sum[i]) * terms.shrink[i];
    }

    /// log N(x; mean, Pred(n)) from y = T x and the whitened mean.
    double log_pdf(const double* y, const double* mean, const CountTerms& terms) const noexcept {
        double quad = 0.0;
        for (std::size_t i = 0; i < dim(); ++i) {
            const double diff = y[i] - mean[i];
            quad += terms.inv_var[i] * diff * diff;
        }
        return terms.log_norm - 0.5 * quad;
    }

 private:
    linalg::Matrix transform_;
    linalg::Vector eigenvalues_;
    linalg::Vector prior_;          ///< D ⊙ y0, the prior's share of every mean
    double log_det_within_ = 0.0;   ///< log|Sw|
};

}  // namespace drel::dp
