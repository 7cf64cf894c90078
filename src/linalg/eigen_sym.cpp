#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace drel::linalg {

EigenSym eigen_sym(const Matrix& input) {
    constexpr int kMaxSweeps = 64;
    if (!input.is_square()) throw std::invalid_argument("eigen_sym: matrix must be square");
    DREL_PROFILE_SCOPE("linalg.eig_sym");
    const std::size_t n = input.rows();

    // Symmetrize to absorb round-off asymmetry.
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) = 0.5 * (input(r, c) + input(c, r));
    }
    Matrix v = Matrix::identity(n);

    // Rotations preserve the Frobenius norm, so one threshold relative to it
    // holds for the whole run: converged once the off-diagonal mass is an
    // ulp of the matrix's own. An absolute bound would stop a small-scale
    // matrix before it is diagonal and never stop a large-scale one. A pair
    // below its share of that mass is skipped, so a sweep that rotates
    // nothing has converged, and a zero pivot never reaches the division.
    const double ulp_of_norm = std::numeric_limits<double>::epsilon() * a.frobenius_norm();
    const double off_tolerance = ulp_of_norm * ulp_of_norm;
    const double pair_tolerance =
        n > 1 ? off_tolerance / static_cast<double>(n * (n - 1) / 2) : 0.0;

    for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
        double off = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = r + 1; c < n; ++c) off += a(r, c) * a(r, c);
        }
        if (off <= off_tolerance) break;

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a(p, q);
                if (apq * apq <= pair_tolerance) continue;
                const double app = a(p, p);
                const double aqq = a(q, q);
                const double tau = (aqq - app) / (2.0 * apq);
                const double t = (tau >= 0.0)
                                     ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                     : -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
                const double cth = 1.0 / std::sqrt(1.0 + t * t);
                const double sth = t * cth;

                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a(k, p);
                    const double akq = a(k, q);
                    a(k, p) = cth * akp - sth * akq;
                    a(k, q) = sth * akp + cth * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a(p, k);
                    const double aqk = a(q, k);
                    a(p, k) = cth * apk - sth * aqk;
                    a(q, k) = sth * apk + cth * aqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = v(k, p);
                    const double vkq = v(k, q);
                    v(k, p) = cth * vkp - sth * vkq;
                    v(k, q) = sth * vkp + cth * vkq;
                }
            }
        }
    }

    // Sort ascending by eigenvalue, permuting eigenvector columns to match.
    // Stable, so equal eigenvalues keep their column order: std::sort leaves
    // equal keys in an implementation-defined order.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t i, std::size_t j) { return a(i, i) < a(j, j); });

    EigenSym out{Vector(n), Matrix(n, n)};
    for (std::size_t k = 0; k < n; ++k) {
        out.values[k] = a(order[k], order[k]);
        for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = v(r, order[k]);
    }
    return out;
}

}  // namespace drel::linalg
