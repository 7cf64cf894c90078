// One-dimensional solvers.
//
// Every DRO dual in this repository ends with a scalar convex minimization
// over the dual variable (lambda for Wasserstein/KL, eta for chi-square), so
// these routines are on the hot path of the inner problem.
#pragma once

#include <functional>

namespace drel::optim {

using ScalarFn = std::function<double(double)>;

struct ScalarResult {
    double x = 0.0;
    double value = 0.0;
    int evaluations = 0;
    bool converged = false;
};

/// Golden-section minimization of a unimodal function on [lo, hi].
ScalarResult golden_section_minimize(const ScalarFn& f, double lo, double hi,
                                     double x_tolerance = 1e-10, int max_evals = 200);

/// Minimizes a convex function over [lo, +inf): expands an upper bracket
/// geometrically until the function stops decreasing, then golden-sections.
ScalarResult minimize_convex_on_ray(const ScalarFn& f, double lo, double initial_width = 1.0,
                                    double x_tolerance = 1e-10, int max_evals = 400);

}  // namespace drel::optim
