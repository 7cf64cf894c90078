// Gradient descent with backtracking line search: the fine-tune baseline's
// solver (a fixed step budget from the prior mean), and the reference the
// tests compare L-BFGS against.
#pragma once

#include "optim/objective.hpp"

namespace drel::optim {

struct GradientDescentOptions {
    StoppingCriteria stopping;
};

OptimResult minimize_gradient_descent(const Objective& objective, linalg::Vector x0,
                                      const GradientDescentOptions& options = {});

}  // namespace drel::optim
