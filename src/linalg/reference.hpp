// Naive reference kernels — the differential-test oracles.
//
// Every routine here is the textbook triple-loop / scalar-accumulation form
// that the optimized kernels in linalg/, dro/ and stats/ were derived from.
// They are deliberately slow and deliberately simple: each optimized kernel
// is required (by tests/property/) to match its reference either
// bit-for-bit (when the optimization only re-blocks or removes allocations
// without changing the accumulation order) or to a tight analytic tolerance
// (when the rewrite is algebraic, e.g. the chi-square prefix-sum dual).
//
// Do not "optimize" these. Their value is that they are obviously correct.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::linalg::reference {

inline double dot(const Vector& x, const Vector& y) {
    if (x.size() != y.size()) throw std::invalid_argument("reference::dot: size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
    return acc;
}

inline void axpy(double alpha, const Vector& x, Vector& y) {
    if (x.size() != y.size()) throw std::invalid_argument("reference::axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

inline Vector matvec(const Matrix& a, const Vector& x) {
    if (x.size() != a.cols()) throw std::invalid_argument("reference::matvec: size mismatch");
    Vector out(a.rows(), 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
        out[r] = acc;
    }
    return out;
}

// ikj order with the zero skip, un-blocked: the historical Matrix::matmul.
inline Matrix matmul(const Matrix& a, const Matrix& b) {
    if (a.cols() != b.rows()) throw std::invalid_argument("reference::matmul: size mismatch");
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
        }
    }
    return out;
}

inline double trace_product(const Matrix& a, const Matrix& b) {
    return matmul(a, b).trace();
}

/// Textbook jik Cholesky; nullopt when a pivot fails.
inline std::optional<Matrix> cholesky_factor(const Matrix& a) {
    if (!a.is_square()) throw std::invalid_argument("reference::cholesky_factor: not square");
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
        if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
        l(j, j) = std::sqrt(diag);
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
            l(i, j) = acc / l(j, j);
        }
    }
    return l;
}

/// Out-of-place forward + back substitution against a lower factor L.
inline Vector cholesky_solve(const Matrix& l, const Vector& b) {
    const std::size_t n = l.rows();
    if (b.size() != n) throw std::invalid_argument("reference::cholesky_solve: size mismatch");
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
        y[i] = acc / l(i, i);
    }
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
        x[ii] = acc / l(ii, ii);
    }
    return x;
}

inline double log_sum_exp(const Vector& x) {
    if (x.empty()) return -std::numeric_limits<double>::infinity();
    const double m = *std::max_element(x.begin(), x.end());
    if (!std::isfinite(m)) return m;
    double acc = 0.0;
    for (const double v : x) acc += std::exp(v - m);
    return m + std::log(acc);
}

inline Vector softmax(const Vector& log_weights) {
    Vector out(log_weights);
    const double lse = log_sum_exp(out);
    for (double& v : out) v = std::exp(v - lse);
    return out;
}

/// The chi-square DRO dual integrand at fixed (lambda, eta) — the O(n)
/// per-evaluation scalar loop that solve_chi_square_dual used before the
/// sorted prefix-sum rewrite. The optimized closed form must agree with this
/// to ~1e-12 relative on every (losses, rho, lambda, eta).
inline double chi_square_dual_value(const Vector& losses, double rho, double lambda,
                                    double eta) {
    double acc = 0.0;
    for (const double l : losses) {
        const double a = l - eta;
        if (a >= -lambda) {
            acc += a + a * a / (2.0 * lambda);
        } else {
            acc += -lambda / 2.0;
        }
    }
    return lambda * rho + eta + acc / static_cast<double>(losses.size());
}

/// The KL DRO dual objective g(lambda) relative to the max-shift form used
/// by solve_kl_dual.
inline double kl_dual_value(const Vector& losses, double rho, double lambda) {
    const double max_loss = *std::max_element(losses.begin(), losses.end());
    double acc = 0.0;
    for (const double l : losses) acc += std::exp((l - max_loss) / lambda);
    return lambda * rho + max_loss + lambda * std::log(acc / static_cast<double>(losses.size()));
}

// ---------------------------------------------------------------------------
// Oracles for the SIMD kernel table (linalg/simd.hpp). Raw-pointer signatures
// mirror the table entries exactly so the dispatch tests can run both sides
// on the same (possibly unaligned, possibly denormal) buffers. All strictly
// left-to-right, one element at a time.

inline double dot_n(const double* x, const double* y, std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
    return acc;
}

inline double dot_stride_n(const double* x, std::size_t x_stride, const double* y,
                           std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += x[i * x_stride] * y[i];
    return acc;
}

inline void axpy_n(double alpha, const double* x, double* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline void sub_const_n(const double* x, double c, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = x[i] - c;
}

inline void div_const_n(double* x, double c, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) x[i] /= c;
}

inline void add_sq_n(const double* x, double* acc, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) acc[i] += x[i] * x[i];
}

// ---------------------------------------------------------------------------
// Oracle for the batched responsibilities kernel (dp/batch_responsibilities).
// One device at a time, textbook forward solve — no transpose, no batching.
// Stated in raw mixture pieces (means, Cholesky lowers, log-weights) so this
// header stays independent of dp/.

/// out[i * K + k] = log pi_k + log N(theta_i; mu_k, Sigma_k) for row-major
/// `thetas` (count x dim). `chol_lowers[k]` is the lower Cholesky factor of
/// Sigma_k.
inline void batch_log_densities(const std::vector<Vector>& means,
                                const std::vector<Matrix>& chol_lowers,
                                const Vector& log_weights, const double* thetas,
                                std::size_t count, std::size_t dim, double* out) {
    constexpr double kLogTwoPi = 1.8378770664093454836;
    const std::size_t num_components = means.size();
    if (chol_lowers.size() != num_components || log_weights.size() != num_components) {
        throw std::invalid_argument("reference::batch_log_densities: component mismatch");
    }
    std::vector<double> diff(dim);
    for (std::size_t i = 0; i < count; ++i) {
        const double* theta = thetas + i * dim;
        for (std::size_t k = 0; k < num_components; ++k) {
            const Matrix& l = chol_lowers[k];
            double log_det = 0.0;
            for (std::size_t r = 0; r < dim; ++r) log_det += std::log(l(r, r));
            log_det *= 2.0;
            for (std::size_t r = 0; r < dim; ++r) diff[r] = theta[r] - means[k][r];
            for (std::size_t r = 0; r < dim; ++r) {
                double acc = diff[r];
                for (std::size_t c = 0; c < r; ++c) acc -= l(r, c) * diff[c];
                diff[r] = acc / l(r, r);
            }
            double quad = 0.0;
            for (std::size_t r = 0; r < dim; ++r) quad += diff[r] * diff[r];
            out[i * num_components + k] =
                log_weights[k] -
                0.5 * (static_cast<double>(dim) * kLogTwoPi + log_det + quad);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracles for the sampling kernel (stats/alias_table).

/// The linear CDF scan the alias table replaces, with Rng::categorical's
/// exact arithmetic (subtractive scan, round-off fallthrough to the last
/// index). NOT the same u -> index map as the alias draw — distributional
/// equality is what the chi-square suite checks.
inline std::size_t categorical_from_uniform(const Vector& weights, double u) {
    if (weights.empty()) {
        throw std::invalid_argument("reference::categorical_from_uniform: empty weights");
    }
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    double remaining = u * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        remaining -= weights[i];
        if (remaining <= 0.0) return i;
    }
    return weights.size() - 1;
}

/// The exact pmf a (prob, alias) table pair encodes: bucket i keeps
/// prob[i]/n of its own mass and donates (1 - prob[i])/n to alias[i].
/// Reconstructing this and comparing against w / sum(w) validates a Vose
/// build without drawing a single sample.
inline Vector alias_pmf(const std::vector<double>& prob,
                        const std::vector<std::uint32_t>& alias) {
    if (prob.size() != alias.size()) {
        throw std::invalid_argument("reference::alias_pmf: size mismatch");
    }
    const double n = static_cast<double>(prob.size());
    Vector pmf(prob.size(), 0.0);
    for (std::size_t i = 0; i < prob.size(); ++i) {
        pmf[i] += prob[i] / n;
        pmf[alias[i]] += (1.0 - prob[i]) / n;
    }
    return pmf;
}

}  // namespace drel::linalg::reference
