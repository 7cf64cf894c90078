#include "stats/distributions.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace drel::stats {
namespace {

constexpr double kLogTwoPi = 1.8378770664093454836;

void check_positive(double v, const char* what) {
    if (!(v > 0.0)) throw std::invalid_argument(std::string(what) + " must be positive");
}

}  // namespace

double log_normal_pdf(double x, double mean, double var) {
    check_positive(var, "log_normal_pdf: variance");
    const double d = x - mean;
    return -0.5 * (kLogTwoPi + std::log(var) + d * d / var);
}

double log_student_t_pdf(double x, double dof, double loc, double scale) {
    check_positive(dof, "log_student_t_pdf: dof");
    check_positive(scale, "log_student_t_pdf: scale");
    const double z = (x - loc) / scale;
    return std::lgamma(0.5 * (dof + 1.0)) - std::lgamma(0.5 * dof) -
           0.5 * std::log(dof * std::numbers::pi) - std::log(scale) -
           0.5 * (dof + 1.0) * std::log1p(z * z / dof);
}

double digamma(double x) {
    check_positive(x, "digamma: argument");
    // Recurrence to push x above 10, then the asymptotic series; the first
    // omitted term is O(x^-10), so the result is accurate to ~1e-12.
    double result = 0.0;
    while (x < 10.0) {
        result -= 1.0 / x;
        x += 1.0;
    }
    const double inv = 1.0 / x;
    const double inv2 = inv * inv;
    result += std::log(x) - 0.5 * inv -
              inv2 * (1.0 / 12.0 -
                      inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))));
    return result;
}

}  // namespace drel::stats
