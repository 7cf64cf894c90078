// The transferable form of the cloud's Dirichlet process posterior.
//
// After truncation, the cloud's belief over edge model parameters is a
// finite mixture of Gaussians sum_k pi_k N(theta; mu_k, Sigma_k). This type
// is what goes over the wire (see edgesim/transfer.hpp for the encoding) and
// what the EM-DRO solver consumes: it evaluates log p(theta), component
// responsibilities, and the responsibility-weighted quadratic surrogate that
// makes the M-step convex.
//
// Every density evaluation solves all atoms in lockstep: the constructor
// packs the atoms' Cholesky factors and means lane-interleaved, four atoms
// per group (linalg::simd::atom_group_solve), and each entry point then
// folds the atoms' results in k order. The bits are those of a per-atom
// loop over MultivariateNormal::log_pdf_ws and
// axpy(coeff, precision_times_residual(x), grad).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
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
    // (resized as needed) instead of returning a fresh vector. All of them
    // throw std::invalid_argument when theta's size is not dim().
    double log_pdf_ws(const linalg::Vector& theta, util::Workspace& ws) const;
    void responsibilities_into(const linalg::Vector& theta, linalg::Vector& out,
                               util::Workspace& ws) const;
    double em_surrogate_ws(const linalg::Vector& theta, const linalg::Vector& r,
                           util::Workspace& ws) const;
    void em_surrogate_gradient_into(const linalg::Vector& theta, const linalg::Vector& r,
                                    linalg::Vector& grad, util::Workspace& ws) const;

    /// em_surrogate_ws and em_surrogate_gradient_into in one pass over the
    /// atoms, sharing each atom's forward solve: returns the value and
    /// writes the gradient, both bit-identical to the separate calls (same
    /// accumulation order). Counts one surrogate evaluation.
    double em_surrogate_and_gradient_into(const linalg::Vector& theta, const linalg::Vector& r,
                                          linalg::Vector& grad, util::Workspace& ws) const;

    /// Mixture mean sum_k pi_k mu_k.
    linalg::Vector mean() const;

    /// Draws theta ~ mixture.
    linalg::Vector sample(stats::Rng& rng) const;

    /// Component indices by descending weight, equal weights in index
    /// order: the order in which the EM solvers pick multi-start atoms.
    std::vector<std::size_t> components_by_weight() const;

    /// Moment-matched single Gaussian (for the single-Gaussian ablation):
    /// mean = mixture mean, covariance = within + between component spread.
    stats::MultivariateNormal moment_matched_gaussian() const;

 private:
    /// Solves every atom group at theta and calls visit(k, quad, solved) for
    /// each atom in k order: quad is its Mahalanobis quadratic; with
    /// `back_substitute`, solved[c * simd::kAtomLanes] is entry c of
    /// Σ_k⁻¹(theta - mu_k).
    template <class Visit>
    void solve_atoms(const linalg::Vector& theta, bool back_substitute, util::Workspace& ws,
                     Visit&& visit) const;

    linalg::Vector weights_;
    linalg::Vector log_weights_;  // log(pi_k), cached once after normalization
    std::vector<stats::MultivariateNormal> atoms_;
    // The atoms packed for simd::atom_group_solve: ceil(K / kAtomLanes)
    // groups; padding lanes hold an identity factor and a zero mean.
    std::vector<double> packed_atoms_;
};

}  // namespace drel::dp
