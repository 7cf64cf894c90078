// Line searches used by the first-order solvers.
#pragma once

#include "optim/objective.hpp"

namespace drel::optim {

struct LineSearchResult {
    double step = 0.0;
    double value = 0.0;       ///< f(x + step * direction)
    /// ∇f(x + step * direction) on strong_wolfe success; empty otherwise
    /// and from backtracking_armijo, which evaluates values only.
    linalg::Vector gradient;
    int evaluations = 0;
    bool success = false;
};

/// Backtracking Armijo search: shrinks `initial_step` by `shrink` until
///   f(x + t d) <= f(x) + c1 * t * <grad, d>.
/// `direction` must be a descent direction (<grad, d> < 0); returns
/// success=false otherwise or when the step underflows.
LineSearchResult backtracking_armijo(const Objective& objective, const linalg::Vector& x,
                                     double fx, const linalg::Vector& grad,
                                     const linalg::Vector& direction,
                                     double initial_step = 1.0, double c1 = 1e-4,
                                     double shrink = 0.5, int max_evals = 60);

inline constexpr int kStrongWolfeMaxEvals = 60;

/// Strong-Wolfe search (Nocedal & Wright alg. 3.5/3.6) used by L-BFGS.
/// Satisfies the Armijo condition with c1 and the curvature condition
/// |<grad(x+td), d>| <= c2 |<grad(x), d>|. The accepted step is always the
/// last point evaluated, so on success `value` and `gradient` are that
/// evaluation's outputs, and the point is x + step * d formed as a copy of
/// x plus one axpy. A caller forming the point the same way gets the same
/// bits, so it need not evaluate there again (Objective::eval is pure).
///
/// Every probe is formed in one workspace buffer and hands the objective
/// the same gradient vector, emptied first with its capacity kept; that
/// vector starts as `gradient_buffer` and is returned as `gradient`. A
/// caller that searches repeatedly passes back the gradient it replaced,
/// so its searches allocate nothing.
LineSearchResult strong_wolfe(const Objective& objective, const linalg::Vector& x, double fx,
                              const linalg::Vector& grad, const linalg::Vector& direction,
                              double initial_step = 1.0, double c1 = 1e-4, double c2 = 0.9,
                              int max_evals = kStrongWolfeMaxEvals,
                              linalg::Vector gradient_buffer = {});

}  // namespace drel::optim
