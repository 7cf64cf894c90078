// Consensus ADMM.
//
// Solves min_x sum_i f_i(x) by giving each term a local copy x_i and
// enforcing x_i = z with scaled dual variables u_i (Boyd et al. 2011, §7).
// In this repository it powers the collaborative-fleet extension: several
// edge devices jointly fit a shared model without pooling raw data — each
// x-update touches only that device's local DRO objective.
#pragma once

#include <vector>

#include "optim/objective.hpp"

namespace drel::optim {

struct AdmmOptions {
    int max_iterations = 200;
};

struct AdmmResult {
    linalg::Vector z;                  ///< consensus iterate
    double primal_residual = 0.0;
    double dual_residual = 0.0;
    int iterations = 0;
    bool converged = false;
};

/// `terms` must be non-empty and share a common dimension. The penalty rho
/// starts at 1 and adapts by residual balancing.
AdmmResult minimize_consensus_admm(const std::vector<const Objective*>& terms,
                                   linalg::Vector z0, const AdmmOptions& options = {});

}  // namespace drel::optim
