#include "optim/line_search.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/workspace.hpp"

namespace drel::optim {
namespace {

linalg::Vector advance(const linalg::Vector& x, double t, const linalg::Vector& d) {
    linalg::Vector out = x;
    linalg::axpy(t, d, out);
    return out;
}

}  // namespace

LineSearchResult backtracking_armijo(const Objective& objective, const linalg::Vector& x,
                                     double fx, const linalg::Vector& grad,
                                     const linalg::Vector& direction, double initial_step,
                                     double c1, double shrink, int max_evals) {
    LineSearchResult result;
    const double slope = linalg::dot(grad, direction);
    if (!(slope < 0.0)) return result;  // not a descent direction

    double t = initial_step;
    for (int e = 0; e < max_evals; ++e) {
        const double ft = objective.value(advance(x, t, direction));
        ++result.evaluations;
        if (std::isfinite(ft) && ft <= fx + c1 * t * slope) {
            result.step = t;
            result.value = ft;
            result.success = true;
            return result;
        }
        t *= shrink;
        if (t < 1e-20) break;
    }
    return result;
}

LineSearchResult strong_wolfe(const Objective& objective, const linalg::Vector& x, double fx,
                              const linalg::Vector& grad, const linalg::Vector& direction,
                              double initial_step, double c1, double c2, int max_evals,
                              linalg::Vector gradient_buffer) {
    LineSearchResult result;
    result.gradient = std::move(gradient_buffer);
    result.gradient.clear();
    const double slope0 = linalg::dot(grad, direction);
    if (!(slope0 < 0.0)) return result;

    // Each probe refills the one gradient vector: every success path below
    // accepts the point it probed last, so that probe's gradient is the one
    // handed back.
    auto point = util::Workspace::local().vec(x.size());
    auto phi = [&](double t, double& dphi) {
        std::copy(x.begin(), x.end(), point->begin());
        linalg::axpy(t, direction, *point);
        result.gradient.clear();
        const double f = objective.eval(*point, &result.gradient);
        ++result.evaluations;
        dphi = linalg::dot(result.gradient, direction);
        return f;
    };
    auto accept = [&](double t, double f) {
        result.step = t;
        result.value = f;
        result.success = true;
    };

    // Zoom stage (Nocedal & Wright algorithm 3.6): bisection-based.
    auto zoom = [&](double lo, double f_lo, double hi) -> bool {
        for (int z = 0; z < max_evals; ++z) {
            const double t = 0.5 * (lo + hi);
            double dphi_t = 0.0;
            const double f_t = phi(t, dphi_t);
            if (!std::isfinite(f_t) || f_t > fx + c1 * t * slope0 || f_t >= f_lo) {
                hi = t;
            } else {
                if (std::fabs(dphi_t) <= -c2 * slope0) {
                    accept(t, f_t);
                    return true;
                }
                if (dphi_t * (hi - lo) >= 0.0) hi = lo;
                lo = t;
                f_lo = f_t;
            }
            if (std::fabs(hi - lo) < 1e-16) break;
        }
        // Accept the best Armijo point found even if curvature failed; this
        // keeps L-BFGS making progress on ill-conditioned tails.
        double dphi_lo = 0.0;
        const double f_final = phi(lo, dphi_lo);
        if (lo > 0.0 && std::isfinite(f_final) && f_final <= fx + c1 * lo * slope0) {
            accept(lo, f_final);
            return true;
        }
        return false;
    };

    // The bracketing stage; returns once a step is accepted or the search
    // gives up.
    auto search = [&] {
        double t_prev = 0.0;
        double f_prev = fx;
        double t = initial_step;
        const double t_max = 1e10;
        for (int e = 0; e < max_evals; ++e) {
            double dphi_t = 0.0;
            const double f_t = phi(t, dphi_t);
            if (!std::isfinite(f_t) || f_t > fx + c1 * t * slope0 ||
                (e > 0 && f_t >= f_prev)) {
                zoom(t_prev, f_prev, t);
                return;
            }
            if (std::fabs(dphi_t) <= -c2 * slope0) {
                accept(t, f_t);
                return;
            }
            if (dphi_t >= 0.0) {
                zoom(t, f_t, t_prev);
                return;
            }
            t_prev = t;
            f_prev = f_t;
            t = std::min(2.0 * t, t_max);
        }
    };
    search();
    if (!result.success) result.gradient.clear();
    return result;
}

}  // namespace drel::optim
