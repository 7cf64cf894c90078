#include "optim/scalar.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::optim {

ScalarResult golden_section_minimize(const ScalarFn& f, double lo, double hi,
                                     double x_tolerance, int max_evals) {
    if (!(lo <= hi)) throw std::invalid_argument("golden_section_minimize: requires lo <= hi");
    ScalarResult result;
    constexpr double kInvPhi = 0.6180339887498949;
    double a = lo;
    double b = hi;
    double x1 = b - kInvPhi * (b - a);
    double x2 = a + kInvPhi * (b - a);
    double f1 = f(x1);
    double f2 = f(x2);
    result.evaluations = 2;
    while (b - a > x_tolerance && result.evaluations < max_evals) {
        if (f1 <= f2) {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - kInvPhi * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + kInvPhi * (b - a);
            f2 = f(x2);
        }
        ++result.evaluations;
    }
    result.x = 0.5 * (a + b);
    result.value = f(result.x);
    ++result.evaluations;
    result.converged = (b - a) <= x_tolerance;
    return result;
}

ScalarResult minimize_convex_on_ray(const ScalarFn& f, double lo, double initial_width,
                                    double x_tolerance, int max_evals) {
    if (!(initial_width > 0.0)) {
        throw std::invalid_argument("minimize_convex_on_ray: initial_width must be positive");
    }
    ScalarResult bracket;
    // Expand until f starts increasing: for a convex f the minimizer then
    // lies inside [lo, hi].
    double hi = lo + initial_width;
    double f_prev = f(lo);
    double f_hi = f(hi);
    bracket.evaluations = 2;
    while (f_hi < f_prev && bracket.evaluations < max_evals / 2) {
        f_prev = f_hi;
        hi = lo + (hi - lo) * 2.0;
        f_hi = f(hi);
        ++bracket.evaluations;
        if (!std::isfinite(f_hi)) break;
    }
    ScalarResult result =
        golden_section_minimize(f, lo, hi, x_tolerance, max_evals - bracket.evaluations);
    result.evaluations += bracket.evaluations;
    return result;
}

}  // namespace drel::optim
