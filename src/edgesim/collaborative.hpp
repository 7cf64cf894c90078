// Collaborative edge learning (extension).
//
// Several edge devices that the cloud believes serve the same task family
// can co-train one shared model WITHOUT pooling raw data: each device keeps
// its local DRO objective, and consensus ADMM (optim/admm.hpp) couples the
// per-device copies. The DP prior from the cloud enters as one extra
// consensus term (the EM surrogate quadratic), so the outer loop is the same
// majorize-minimize scheme as core::EmDroSolver, with the M-step solved by
// ADMM instead of a single L-BFGS:
//
//   F(theta) = sum_i (n_i/N) R_i(theta) - (tau/N) log p_DP(theta),  N = sum n_i.
//
// Every ADMM x-update touches only one device's data — this is the
// communication pattern a real fleet would run (devices exchange iterates
// with a coordinator, never samples).
#pragma once

#include <vector>

#include "dp/mixture_prior.hpp"
#include "dro/ambiguity.hpp"
#include "models/dataset.hpp"
#include "models/linear_model.hpp"
#include "models/loss.hpp"
#include "optim/admm.hpp"

namespace drel::edgesim {

struct CollaborativeConfig {
    models::LossKind loss = models::LossKind::kLogistic;
    dro::AmbiguityKind ambiguity = dro::AmbiguityKind::kWasserstein;
    /// Per-device radius rho_i = radius_coefficient / sqrt(n_i).
    double radius_coefficient = 0.25;
    double transfer_weight = 1.0;   ///< tau
    int max_outer_iterations = 20;
    double objective_tolerance = 1e-7;
    optim::AdmmOptions admm;
    /// Runners for the multi-start loop: starts solve independently into
    /// indexed slots and the winner is picked in fixed start order, so any
    /// value is bit-identical; >1 uses the shared executor.
    std::size_t num_threads = 1;
};

struct CollaborativeResult {
    models::LinearModel model;          ///< consensus iterate
    double objective = 0.0;
    int outer_iterations = 0;
    bool converged = false;
    std::vector<double> objective_trace;
    linalg::Vector responsibilities;    ///< prior responsibilities at the optimum
    int total_admm_iterations = 0;      ///< sum over M-steps (communication rounds)
};

/// Fits the consensus model. `devices` must be non-empty, non-null, and share
/// the prior's dimension. Datasets are borrowed for the duration of the call.
CollaborativeResult collaborative_fit(const std::vector<const models::Dataset*>& devices,
                                      const dp::MixturePrior& prior,
                                      const CollaborativeConfig& config = {});

}  // namespace drel::edgesim
