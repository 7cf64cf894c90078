#include "optim/lbfgs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "optim/line_search.hpp"
#include "util/workspace.hpp"

namespace drel::optim {
namespace {

constexpr double kArmijoC1 = 1e-4;     ///< strong-Wolfe sufficient decrease
constexpr double kCurvatureC2 = 0.9;   ///< strong-Wolfe curvature

}  // namespace

OptimResult minimize_lbfgs(const Objective& objective, linalg::Vector x0,
                           const LbfgsOptions& options) {
    if (x0.size() != objective.dim()) {
        throw std::invalid_argument("minimize_lbfgs: x0 dimension mismatch");
    }
    if (options.history < 1) throw std::invalid_argument("minimize_lbfgs: history must be >= 1");
    DREL_PROFILE_SCOPE("optim.lbfgs");
    const std::size_t n = x0.size();
    const std::size_t m = static_cast<std::size_t>(options.history);

    OptimResult result;
    result.x = std::move(x0);
    linalg::Vector grad;
    double fx = objective.eval(result.x, &grad);

    // Every buffer is leased once for the whole solve. The correction pairs
    // s = x_{k+1} - x_k, y = g_{k+1} - g_k and rho = 1 / <y, s> live in a
    // ring of m slots: the i-th oldest of `count` pairs sits at slot
    // (head + i) mod m, and a full ring overwrites its oldest pair. A new
    // pair is formed in s_new / y_new and copied into the ring only once
    // accepted, so a rejected one never evicts the oldest.
    util::Workspace& ws = util::Workspace::local();
    auto s_ring = ws.vec(m * n);
    auto y_ring = ws.vec(m * n);
    auto rho = ws.vec(m);
    auto alpha = ws.vec(m);
    auto q = ws.vec(n);
    auto direction = ws.vec(n);
    auto x_new = ws.vec(n);
    auto s_new = ws.vec(n);
    auto y_new = ws.vec(n);
    std::size_t head = 0;
    std::size_t count = 0;
    const auto s_of = [&](std::size_t i) { return s_ring.data() + (head + i) % m * n; };
    const auto y_of = [&](std::size_t i) { return y_ring.data() + (head + i) % m * n; };
    const auto rho_of = [&](std::size_t i) { return (*rho)[(head + i) % m]; };
    // The line search fills this with the accepted point's gradient; the
    // replaced gradient's buffer goes back to it for the next search.
    linalg::Vector spare_gradient;

    for (int it = 0; it < options.stopping.max_iterations; ++it) {
        const double gnorm = linalg::norm_inf(grad);
        if (gnorm <= options.stopping.grad_tolerance) {
            result.converged = true;
            result.message = "gradient tolerance reached";
            break;
        }

        // Two-loop recursion: d = -H_k * grad.
        std::copy(grad.begin(), grad.end(), q->begin());
        for (std::size_t i = count; i-- > 0;) {
            (*alpha)[i] = rho_of(i) * linalg::dot_n(s_of(i), q.data(), n);
            linalg::axpy_n(-(*alpha)[i], y_of(i), q.data(), n);
        }
        if (count > 0) {
            const double* s_last = s_of(count - 1);
            const double* y_last = y_of(count - 1);
            const double gamma =
                linalg::dot_n(s_last, y_last, n) / linalg::dot_n(y_last, y_last, n);
            linalg::scale(*q, gamma);
        }
        for (std::size_t i = 0; i < count; ++i) {
            const double beta = rho_of(i) * linalg::dot_n(y_of(i), q.data(), n);
            linalg::axpy_n((*alpha)[i] - beta, s_of(i), q.data(), n);
        }
        for (std::size_t j = 0; j < n; ++j) (*direction)[j] = (*q)[j] * -1.0;

        // Fall back to steepest descent if curvature information went stale.
        if (!(linalg::dot(grad, *direction) < 0.0)) {
            for (std::size_t j = 0; j < n; ++j) (*direction)[j] = grad[j] * -1.0;
            count = 0;
        }

        const double init_step = count == 0 ? 1.0 / std::max(1.0, linalg::norm2(grad)) : 1.0;
        LineSearchResult ls =
            strong_wolfe(objective, result.x, fx, grad, *direction, init_step, kArmijoC1,
                         kCurvatureC2, kStrongWolfeMaxEvals, std::move(spare_gradient));
        if (!ls.success) {
            result.message = "line search failed";
            break;
        }

        // The search's last probe was this exact point (same copy + axpy),
        // so its value and gradient are f and ∇f here; no re-evaluation.
        std::copy(result.x.begin(), result.x.end(), x_new->begin());
        linalg::axpy(ls.step, *direction, *x_new);
        const double f_new = ls.value;

        linalg::sub_into(*x_new, result.x, *s_new);
        linalg::sub_into(ls.gradient, grad, *y_new);
        const double sy = linalg::dot(*s_new, *y_new);
        if (sy > 1e-12 * linalg::norm2(*s_new) * linalg::norm2(*y_new)) {
            if (count == m) {
                head = (head + 1) % m;
                --count;
            }
            std::copy(s_new->begin(), s_new->end(), s_of(count));
            std::copy(y_new->begin(), y_new->end(), y_of(count));
            (*rho)[(head + count) % m] = 1.0 / sy;
            ++count;
        }

        const double decrease = fx - f_new;
        result.x.swap(*x_new);
        grad.swap(ls.gradient);
        spare_gradient = std::move(ls.gradient);
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
