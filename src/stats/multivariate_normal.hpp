// Multivariate normal distribution over model-parameter vectors.
//
// This is the atom type of the (truncated) Dirichlet process prior: the
// cloud ships a list of (weight, MultivariateNormal) pairs to the edge, and
// the EM-DRO solver evaluates log-densities and Mahalanobis quadratics
// against them every outer iteration. The Cholesky factor is computed once
// at construction and reused.
#pragma once

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"
#include "util/workspace.hpp"

namespace drel::stats {

class MultivariateNormal {
 public:
    /// Full-covariance Gaussian. `covariance` must be symmetric positive
    /// definite; a tiny jitter is applied automatically if it is only
    /// semi-definite to working precision.
    MultivariateNormal(linalg::Vector mean, linalg::Matrix covariance);

    /// Isotropic convenience: N(mean, variance * I).
    static MultivariateNormal isotropic(linalg::Vector mean, double variance);

    /// Diagonal-covariance convenience.
    static MultivariateNormal diagonal(linalg::Vector mean, const linalg::Vector& variances);

    std::size_t dim() const noexcept { return mean_.size(); }
    const linalg::Vector& mean() const noexcept { return mean_; }
    const linalg::Matrix& covariance() const noexcept { return covariance_; }
    const linalg::Cholesky& chol() const noexcept { return chol_; }

    /// log |Σ|, computed once at construction.
    double log_det() const noexcept { return log_det_; }

    double log_pdf(const linalg::Vector& x) const;

    /// log_pdf at a point whose Mahalanobis quadratic `quad` (see
    /// mahalanobis_sq) the caller solved itself, as MixturePrior's lockstep
    /// atoms do. log_pdf_ws returns exactly this of its own quadratic.
    double log_pdf_from_mahalanobis_sq(double quad) const noexcept;

    /// (x - mean)ᵀ Σ⁻¹ (x - mean)
    double mahalanobis_sq(const linalg::Vector& x) const;

    /// Σ⁻¹ (x - mean) — the gradient of 0.5 * mahalanobis_sq.
    linalg::Vector precision_times_residual(const linalg::Vector& x) const;

    // Workspace-threaded variants. Identical arithmetic to the plain
    // versions (same substitutions, same accumulation order) but all
    // scratch comes from `ws`, so steady-state evaluation is
    // allocation-free. The plain versions delegate to these with the
    // calling thread's Workspace::local().
    double log_pdf_ws(const linalg::Vector& x, util::Workspace& ws) const;
    double mahalanobis_sq_ws(const linalg::Vector& x, util::Workspace& ws) const;

    linalg::Vector sample(Rng& rng) const;

 private:
    linalg::Vector mean_;
    linalg::Matrix covariance_;
    linalg::Cholesky chol_;
    double log_det_ = 0.0;
};

}  // namespace drel::stats
