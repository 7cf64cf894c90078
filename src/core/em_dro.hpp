// EM-DRO: the paper's core algorithm.
//
// Problem (single-layer form after dualizing both distributional
// constraints; see DESIGN.md "The method, precisely"):
//
//   min_theta  F(theta) =  R(theta)  -  w * log p_DP(theta)
//
// where R(theta) = sup_{Q in B(P_hat)} E_Q[loss] is the dual-reformulated
// robust empirical loss (dro/robust_objective.hpp), p_DP is the truncated
// Dirichlet-process prior transferred from the cloud (dp/mixture_prior.hpp),
// and w = tau / n is the transfer weight — the Lagrange multiplier of the
// "parameter distribution stays near the cloud prior" constraint, scaled so
// cloud influence fades as local evidence accumulates.
//
// -log p_DP is a negative log Gaussian-mixture: not convex. The EM-inspired
// convex relaxation majorizes it at the current iterate theta_t:
//
//   E-step:  r_k = pi_k N(theta_t; mu_k, Sigma_k) / sum_j ...
//   M-step:  theta_{t+1} = argmin  R(theta)
//                - w * sum_k r_k [ log pi_k + log N(theta; mu_k, Sigma_k) ]
//
// The M-step objective is convex (R convex for convex margin losses; the
// surrogate is a responsibility-weighted sum of convex quadratics), solved
// with L-BFGS. Jensen's inequality makes the surrogate a majorizer of F up
// to the responsibilities' entropy (constant in theta), so F is monotone
// non-increasing across outer iterations — asserted by property tests and
// plotted by bench_fig5_convergence.
#pragma once

#include <memory>
#include <vector>

#include "dp/mixture_prior.hpp"
#include "dro/ambiguity.hpp"
#include "dro/robust_objective.hpp"
#include "models/dataset.hpp"
#include "models/loss.hpp"
#include "optim/lbfgs.hpp"

namespace drel::core {

struct EmDroOptions {
    int max_outer_iterations = 50;
    double objective_tolerance = 1e-8;   ///< relative F decrease stop rule
    /// Number of prior atoms (by weight) to try as extra EM starting points
    /// in addition to the prior mean; the best final objective wins. The
    /// surrogate is tight only locally, so multi-start matters when the
    /// prior is strongly multi-modal.
    int multi_start_atoms = 3;
    /// Runners for the multi-start loop in solve(). Starts are independent
    /// EM runs writing to indexed slots and the winner is picked in fixed
    /// start order, so any value yields bit-identical results; >1 runs the
    /// starts concurrently on the shared executor (util/executor.hpp).
    std::size_t num_threads = 1;
};

struct EmDroTrace {
    std::vector<double> objective;          ///< F(theta_t) per outer iteration
    std::vector<double> robust_loss;        ///< R(theta_t)
    std::vector<double> log_prior;          ///< log p_DP(theta_t)
    std::vector<double> responsibility_entropy;
    int outer_iterations = 0;
    bool converged = false;
};

struct EmDroResult {
    linalg::Vector theta;
    double objective = 0.0;
    EmDroTrace trace;
    linalg::Vector final_responsibilities;
    /// Total EM outer iterations spent across ALL multi-start runs (equals
    /// trace.outer_iterations for a single solve_from). The honest compute
    /// cost — what the streaming warm-start comparison measures.
    int total_outer_iterations = 0;
    /// The solve encountered a non-finite objective or iterate. EM stops at
    /// the last finite iterate instead of throwing; callers (the fleet and
    /// lifecycle simulators) report this as a degraded device rather than
    /// aborting the run. solve() prefers any finite multi-start candidate
    /// over a flagged one.
    bool hit_non_finite = false;
};

class EmDroSolver {
 public:
    /// All references are borrowed and must outlive the solver.
    EmDroSolver(const models::Dataset& data, const models::Loss& loss,
                const dp::MixturePrior& prior, const dro::AmbiguitySet& ambiguity,
                double transfer_weight, EmDroOptions options = {});

    /// Generalized form: any convex robust-loss objective R(theta) (e.g. the
    /// multiclass softmax DRO objective) with an explicit penalty weight
    /// w = tau/n. `robust` and `prior` are borrowed.
    EmDroSolver(const optim::Objective& robust, const dp::MixturePrior& prior,
                double penalty_weight, EmDroOptions options = {});

    /// F(theta) = R(theta) - w * log p_DP(theta).
    double objective(const linalg::Vector& theta) const;

    /// Runs EM from `theta0`.
    EmDroResult solve_from(const linalg::Vector& theta0) const;

    /// Runs EM with the default multi-start (prior mean + top atoms).
    EmDroResult solve() const;

    double transfer_weight_scaled() const noexcept { return weight_; }

 private:
    const optim::Objective& robust() const noexcept {
        return external_robust_ ? *external_robust_ : *owned_robust_;
    }

    const dp::MixturePrior* prior_;
    double weight_;                 ///< w = tau / n
    EmDroOptions options_;
    std::unique_ptr<optim::Objective> owned_robust_;   ///< built from (data, loss)
    const optim::Objective* external_robust_ = nullptr;
};

}  // namespace drel::core
