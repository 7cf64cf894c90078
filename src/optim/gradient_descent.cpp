#include "optim/gradient_descent.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "optim/line_search.hpp"

namespace drel::optim {

OptimResult minimize_gradient_descent(const Objective& objective, linalg::Vector x0,
                                      const GradientDescentOptions& options) {
    if (x0.size() != objective.dim()) {
        throw std::invalid_argument("minimize_gradient_descent: x0 dimension mismatch");
    }
    DREL_PROFILE_SCOPE("optim.gd");
    OptimResult result;
    result.x = std::move(x0);
    linalg::Vector grad;
    double fx = objective.eval(result.x, &grad);
    double step_hint = 1.0;  // the first search starts at a unit step

    for (int it = 0; it < options.stopping.max_iterations; ++it) {
        const double gnorm = linalg::norm_inf(grad);
        if (gnorm <= options.stopping.grad_tolerance) {
            result.converged = true;
            result.message = "gradient tolerance reached";
            break;
        }
        const linalg::Vector direction = linalg::scaled(grad, -1.0);
        const LineSearchResult ls =
            backtracking_armijo(objective, result.x, fx, grad, direction, step_hint);
        if (!ls.success) {
            result.message = "line search failed";
            break;
        }
        linalg::axpy(ls.step, direction, result.x);
        const double f_new = objective.eval(result.x, &grad);
        const double decrease = fx - f_new;
        fx = f_new;
        result.iterations = it + 1;
        // Warm-start the next search near the accepted step.
        step_hint = std::max(ls.step * 2.0, 1e-12);
        if (decrease >= 0.0 &&
            decrease <= options.stopping.value_tolerance * (std::fabs(fx) + 1.0)) {
            result.converged = true;
            result.message = "value tolerance reached";
            break;
        }
    }
    result.value = fx;
    result.grad_norm = linalg::norm_inf(grad);
    if (result.message.empty()) result.message = "max iterations reached";
    static obs::Counter& solves = obs::Registry::global().counter("optim.gd_solves");
    static obs::Counter& iterations = obs::Registry::global().counter("optim.gd_iterations");
    solves.add(1);
    iterations.add(static_cast<std::uint64_t>(result.iterations));
    return result;
}

}  // namespace drel::optim
