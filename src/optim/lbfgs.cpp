#include "optim/lbfgs.hpp"

#include <cmath>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "optim/line_search.hpp"

namespace drel::optim {

OptimResult minimize_lbfgs(const Objective& objective, linalg::Vector x0,
                           const LbfgsOptions& options) {
    if (x0.size() != objective.dim()) {
        throw std::invalid_argument("minimize_lbfgs: x0 dimension mismatch");
    }
    if (options.history < 1) throw std::invalid_argument("minimize_lbfgs: history must be >= 1");
    DREL_PROFILE_SCOPE("optim.lbfgs");

    OptimResult result;
    result.x = std::move(x0);
    linalg::Vector grad;
    double fx = objective.eval(result.x, &grad);

    struct Correction {
        linalg::Vector s;  // x_{k+1} - x_k
        linalg::Vector y;  // g_{k+1} - g_k
        double rho;        // 1 / <y, s>
    };
    std::deque<Correction> history;

    for (int it = 0; it < options.stopping.max_iterations; ++it) {
        const double gnorm = linalg::norm_inf(grad);
        if (gnorm <= options.stopping.grad_tolerance) {
            result.converged = true;
            result.message = "gradient tolerance reached";
            break;
        }

        // Two-loop recursion: d = -H_k * grad.
        linalg::Vector q = grad;
        std::vector<double> alpha(history.size());
        for (std::size_t i = history.size(); i-- > 0;) {
            const Correction& c = history[i];
            alpha[i] = c.rho * linalg::dot(c.s, q);
            linalg::axpy(-alpha[i], c.y, q);
        }
        if (!history.empty()) {
            const Correction& last = history.back();
            const double gamma = linalg::dot(last.s, last.y) / linalg::dot(last.y, last.y);
            linalg::scale(q, gamma);
        }
        for (std::size_t i = 0; i < history.size(); ++i) {
            const Correction& c = history[i];
            const double beta = c.rho * linalg::dot(c.y, q);
            linalg::axpy(alpha[i] - beta, c.s, q);
        }
        linalg::Vector direction = linalg::scaled(q, -1.0);

        // Fall back to steepest descent if curvature information went stale.
        if (!(linalg::dot(grad, direction) < 0.0)) {
            direction = linalg::scaled(grad, -1.0);
            history.clear();
        }

        const double init_step = history.empty()
                                     ? 1.0 / std::max(1.0, linalg::norm2(grad))
                                     : 1.0;
        LineSearchResult ls = strong_wolfe(objective, result.x, fx, grad, direction,
                                           init_step, options.c1, options.c2);
        if (!ls.success) {
            result.message = "line search failed";
            break;
        }

        // The search's last probe was this exact point (same copy + axpy),
        // so its value and gradient are f and ∇f here; no re-evaluation.
        linalg::Vector x_new = result.x;
        linalg::axpy(ls.step, direction, x_new);
        linalg::Vector grad_new = std::move(ls.gradient);
        const double f_new = ls.value;

        Correction c;
        c.s = linalg::sub(x_new, result.x);
        c.y = linalg::sub(grad_new, grad);
        const double sy = linalg::dot(c.s, c.y);
        if (sy > 1e-12 * linalg::norm2(c.s) * linalg::norm2(c.y)) {
            c.rho = 1.0 / sy;
            history.push_back(std::move(c));
            if (history.size() > static_cast<std::size_t>(options.history)) {
                history.pop_front();
            }
        }

        const double decrease = fx - f_new;
        result.x = std::move(x_new);
        grad = std::move(grad_new);
        fx = f_new;
        result.iterations = it + 1;
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
    static obs::Counter& solves = obs::Registry::global().counter("optim.lbfgs_solves");
    static obs::Counter& iterations =
        obs::Registry::global().counter("optim.lbfgs_iterations");
    solves.add(1);
    iterations.add(static_cast<std::uint64_t>(result.iterations));
    return result;
}

}  // namespace drel::optim
