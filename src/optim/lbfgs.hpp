// Limited-memory BFGS, the default M-step solver.
//
// The EM-DRO M-step is a smooth convex problem in tens-to-hundreds of
// dimensions solved hundreds of times per experiment; L-BFGS with a
// strong-Wolfe search is the standard tool and is ~10-50x faster than plain
// GD on these problems (see bench_table4_runtime).
#pragma once

#include "optim/objective.hpp"

namespace drel::optim {

struct LbfgsOptions {
    StoppingCriteria stopping;
    int history = 10;        ///< number of (s, y) correction pairs kept
};

OptimResult minimize_lbfgs(const Objective& objective, linalg::Vector x0,
                           const LbfgsOptions& options = {});

}  // namespace drel::optim
