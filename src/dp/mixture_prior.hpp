// The transferable form of the cloud's Dirichlet process posterior.
//
// After truncation, the cloud's belief over edge model parameters is a
// finite mixture of Gaussians sum_k pi_k N(theta; mu_k, Sigma_k). This type
// is what goes over the wire (see edgesim/transfer.hpp for the encoding) and
// what the EM-DRO solver consumes: it evaluates log p(theta), component
// responsibilities, and the responsibility-weighted quadratic surrogate that
// makes the M-step convex.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"
#include "util/workspace.hpp"

namespace drel::dp {

class MixturePrior {
 public:
    /// `weights` must be positive and are normalized to sum to 1;
    /// `atoms` must share a dimension and match weights in count.
    MixturePrior(linalg::Vector weights, std::vector<stats::MultivariateNormal> atoms);

    /// Degenerate single-Gaussian prior (the MAP-transfer baseline).
    static MixturePrior single(stats::MultivariateNormal atom);

    std::size_t num_components() const noexcept { return atoms_.size(); }
    std::size_t dim() const noexcept { return atoms_.front().dim(); }
    const linalg::Vector& weights() const noexcept { return weights_; }
    const std::vector<stats::MultivariateNormal>& atoms() const noexcept { return atoms_; }
    const stats::MultivariateNormal& atom(std::size_t k) const { return atoms_.at(k); }

    /// log sum_k pi_k N(theta; mu_k, Sigma_k), computed via log-sum-exp.
    double log_pdf(const linalg::Vector& theta) const;

    /// Posterior responsibilities r_k(theta) ∝ pi_k N(theta; mu_k, Sigma_k).
    linalg::Vector responsibilities(const linalg::Vector& theta) const;

    /// Gradient of log_pdf at theta: -sum_k r_k Sigma_k^{-1} (theta - mu_k).
    linalg::Vector log_pdf_gradient(const linalg::Vector& theta) const;

    /// EM majorizer value at theta given responsibilities r (fixed):
    ///   Q(theta; r) = sum_k r_k [ log pi_k + log N(theta; mu_k, Sigma_k) ].
    /// By Jensen, Q(theta; r) - sum_k r_k log r_k <= log_pdf(theta) with
    /// equality when r = responsibilities(theta) — the property the EM-DRO
    /// monotonicity proof (and our property tests) rely on.
    double em_surrogate(const linalg::Vector& theta, const linalg::Vector& r) const;

    /// Gradient of the surrogate in theta: -sum_k r_k Sigma_k^{-1}(theta-mu_k).
    linalg::Vector em_surrogate_gradient(const linalg::Vector& theta,
                                         const linalg::Vector& r) const;

    // Workspace-threaded cores. The plain methods above delegate here with
    // Workspace::local(); results (and eval-counter increments) are
    // identical — only the scratch buffers change, so the EM inner loop can
    // run allocation-free. `_into` variants write into caller-owned storage
    // (resized as needed) instead of returning a fresh vector.
    double log_pdf_ws(const linalg::Vector& theta, util::Workspace& ws) const;
    void responsibilities_into(const linalg::Vector& theta, linalg::Vector& out,
                               util::Workspace& ws) const;
    double em_surrogate_ws(const linalg::Vector& theta, const linalg::Vector& r,
                           util::Workspace& ws) const;
    void em_surrogate_gradient_into(const linalg::Vector& theta, const linalg::Vector& r,
                                    linalg::Vector& grad, util::Workspace& ws) const;

    /// em_surrogate_ws and em_surrogate_gradient_into in one pass over the
    /// atoms, sharing each atom's residual solve: returns the value and
    /// writes the gradient, both bit-identical to the separate calls (same
    /// accumulation order). Counts one surrogate evaluation. The separate
    /// entry points stay as its differential-test reference.
    double em_surrogate_and_gradient_into(const linalg::Vector& theta, const linalg::Vector& r,
                                          linalg::Vector& grad, util::Workspace& ws) const;

    /// Mixture mean sum_k pi_k mu_k.
    linalg::Vector mean() const;

    /// Draws theta ~ mixture.
    linalg::Vector sample(stats::Rng& rng) const;

    /// Index of the component with the highest responsibility at theta.
    std::size_t map_component(const linalg::Vector& theta) const;

    /// Moment-matched single Gaussian (for the single-Gaussian ablation):
    /// mean = mixture mean, covariance = within + between component spread.
    stats::MultivariateNormal moment_matched_gaussian() const;

 private:
    linalg::Vector weights_;
    linalg::Vector log_weights_;  // log(pi_k), cached once after normalization
    std::vector<stats::MultivariateNormal> atoms_;
};

}  // namespace drel::dp
