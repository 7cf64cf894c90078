#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/simd.hpp"
#include "obs/profiler.hpp"

namespace drel::linalg {

std::optional<Matrix> Cholesky::factor_impl(const Matrix& a) {
    if (!a.is_square()) throw std::invalid_argument("Cholesky: matrix must be square");
    DREL_PROFILE_SCOPE("linalg.cholesky_factor");
    const std::size_t n = a.rows();
    Matrix l(n, n);
    // Row-pointer form of the classic jik factorization: the k-loops walk
    // rows j and i contiguously. Same subtraction order as the textbook
    // reference (linalg/reference.hpp), so results are bit-identical.
    for (std::size_t j = 0; j < n; ++j) {
        const double* l_j = l.row_data(j);
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k) diag -= l_j[k] * l_j[k];
        if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
        const double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double* l_i = l.row_data(i);
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k) acc -= l_i[k] * l_j[k];
            l_i[j] = acc / ljj;
        }
    }
    return l;
}

Cholesky::Cholesky(const Matrix& a) : l_(0, 0) {
    auto l = factor_impl(a);
    if (!l) throw std::invalid_argument("Cholesky: matrix is not positive definite");
    l_ = std::move(*l);
}

std::optional<Cholesky> Cholesky::try_factor(const Matrix& a) {
    auto l = factor_impl(a);
    if (!l) return std::nullopt;
    return Cholesky(Unchecked{}, std::move(*l));
}

Cholesky Cholesky::factor_with_jitter(Matrix a, double initial_jitter, int max_tries) {
    if (auto c = try_factor(a)) return std::move(*c);
    double jitter = initial_jitter;
    for (int attempt = 0; attempt < max_tries; ++attempt) {
        Matrix damped = a;
        damped.add_diagonal(jitter);
        if (auto c = try_factor(damped)) return std::move(*c);
        jitter *= 10.0;
    }
    throw std::invalid_argument("Cholesky: matrix not PD even after jittering");
}

Vector Cholesky::solve_lower(const Vector& b) const {
    const std::size_t n = dim();
    if (b.size() != n) throw std::invalid_argument("Cholesky::solve_lower: dimension mismatch");
    // Substitutions subtract the lane-contract dot of the solved prefix —
    // the 8-lane tree (simd.hpp), not the historical one-by-one subtraction,
    // so results are bit-identical across backends (and a few ULPs off the
    // naive reference; the property suite pins the bound). dot_n's inline
    // short-input path matters here: every prefix at dim <= 16 is short.
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double* l_i = l_.row_data(i);
        y[i] = (b[i] - dot_n(l_i, y.data(), i)) / l_i[i];
    }
    return y;
}

Vector Cholesky::solve_upper(const Vector& y) const {
    const std::size_t n = dim();
    if (y.size() != n) throw std::invalid_argument("Cholesky::solve_upper: dimension mismatch");
    // Back-substitution walks column ii of L — stride-n access. Every
    // backend's table points at the one shared lane-contract strided dot, so
    // calling it directly (inline, no dispatch) changes nothing but speed.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        const std::size_t tail = n - ii - 1;
        // &l_(ii + 1, ii); only formed when the column below the diagonal is
        // non-empty, so the pointer always lands inside the factor.
        const double* col = tail > 0 ? l_.row_data(ii + 1) + ii : nullptr;
        x[ii] = (y[ii] - simd::scalar::dot_stride_n(col, n, x.data() + ii + 1, tail)) /
                l_(ii, ii);
    }
    return x;
}

Vector Cholesky::solve(const Vector& b) const { return solve_upper(solve_lower(b)); }

void Cholesky::solve_lower_in_place(Vector& x) const {
    const std::size_t n = dim();
    if (x.size() != n) throw std::invalid_argument("Cholesky::solve_lower_in_place: dimension mismatch");
    // Forward substitution overwriting x: entry i reads x[i] (still b[i]) and
    // entries < i (already solutions), exactly like the allocating version —
    // same lane-contract dot, so both produce identical bits.
    for (std::size_t i = 0; i < n; ++i) {
        const double* l_i = l_.row_data(i);
        x[i] = (x[i] - dot_n(l_i, x.data(), i)) / l_i[i];
    }
}

void Cholesky::solve_upper_in_place(Vector& x) const {
    const std::size_t n = dim();
    if (x.size() != n) throw std::invalid_argument("Cholesky::solve_upper_in_place: dimension mismatch");
    for (std::size_t ii = n; ii-- > 0;) {
        const std::size_t tail = n - ii - 1;
        const double* col = tail > 0 ? l_.row_data(ii + 1) + ii : nullptr;  // &l_(ii + 1, ii)
        x[ii] = (x[ii] - simd::scalar::dot_stride_n(col, n, x.data() + ii + 1, tail)) /
                l_(ii, ii);
    }
}

void Cholesky::solve_in_place(Vector& x) const {
    solve_lower_in_place(x);
    solve_upper_in_place(x);
}

double Cholesky::log_det() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim(); ++i) acc += std::log(l_(i, i));
    return 2.0 * acc;
}

Matrix Cholesky::inverse() const {
    const std::size_t n = dim();
    Matrix inv(n, n);
    for (std::size_t c = 0; c < n; ++c) {
        const Vector col = solve(unit(n, c));
        for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
    }
    return inv;
}

}  // namespace drel::linalg
