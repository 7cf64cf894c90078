// Truncated stick-breaking variational inference for the DP mixture
// (Blei & Jordan 2006), sharing the likelihood model of dpmm_gibbs.hpp:
//
//   v_k ~ Beta(1, alpha)  (k < K; v_K := 1)     q(v_k) = Beta(g1_k, g2_k)
//   mu_k ~ N(m0, S0)                            q(mu_k) = N(m_k, V_k)
//   z_j ~ Cat(pi(v)),  x_j | z_j=k ~ N(mu_k, Sw)  q(z_j) = Cat(phi_j)
//
// Coordinate ascent maximizes the ELBO, which is computed exactly and must
// be monotone across iterations (a property test enforces this). The cloud
// can choose Gibbs (exact asymptotically, slower) or CAVI (fast,
// deterministic given an init) — bench_fig6 compares the priors they ship.
#pragma once

#include <vector>

#include "dp/mixture_prior.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"

namespace drel::dp {

struct VariationalConfig {
    double alpha = 1.0;
    linalg::Vector base_mean;          ///< m0
    linalg::Matrix base_covariance;    ///< S0
    linalg::Matrix within_covariance;  ///< Sw
    std::size_t truncation = 12;       ///< K
    int max_iterations = 200;
};

class DpmmVariational {
 public:
    DpmmVariational(std::vector<linalg::Vector> observations, VariationalConfig config);

    /// Runs CAVI to convergence; `rng` only seeds the responsibility init.
    /// Returns the number of iterations performed.
    int run(stats::Rng& rng);

    /// One CAVI iteration (q(z) -> q(v) -> q(mu)); returns the new ELBO.
    double iterate();

    double elbo() const;
    std::size_t truncation() const noexcept { return config_.truncation; }

    /// E[pi_k] under the fitted stick posteriors.
    linalg::Vector expected_weights() const;

    /// Transferable prior: atoms N(m_k, V_k + Sw), weights E[pi_k];
    /// components with weight below `min_weight` are dropped (and the
    /// remaining weights renormalized).
    MixturePrior extract_prior(double min_weight = 1e-4) const;

 private:
    void update_responsibilities();
    void update_sticks();
    void update_means();

    std::vector<linalg::Vector> observations_;
    VariationalConfig config_;
    std::size_t dim_;

    linalg::Matrix base_precision_;     ///< S0^{-1}
    linalg::Vector base_precision_m0_;
    linalg::Matrix within_precision_;   ///< Sw^{-1}
    double within_log_det_ = 0.0;
    double base_log_det_ = 0.0;         ///< log |S0|, cached from the ctor factor

    // Variational parameters.
    std::vector<linalg::Vector> phi_;   ///< per-observation responsibilities (size K)
    linalg::Vector gamma1_;             ///< stick Beta first params (size K-1)
    linalg::Vector gamma2_;             ///< stick Beta second params
    std::vector<linalg::Vector> means_; ///< m_k
    std::vector<linalg::Matrix> covs_;  ///< V_k
};

}  // namespace drel::dp
