// Cholesky factorization of symmetric positive-definite matrices.
//
// The DP prior transfers (truncated) Gaussian atoms whose covariances we
// must invert, log-det and sample from; Cholesky is the workhorse for all
// three. A jittered variant handles the near-semidefinite covariances that
// arise when the cloud has seen few devices in a cluster.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::linalg {

class Cholesky {
 public:
    /// Factors A = L Lᵀ. Throws std::invalid_argument if A is not square or
    /// not (numerically) positive definite.
    explicit Cholesky(const Matrix& a);

    /// Like the constructor but returns nullopt instead of throwing when the
    /// matrix is not positive definite.
    static std::optional<Cholesky> try_factor(const Matrix& a);

    /// Factors A + jitter*I, growing jitter by 10x up to `max_tries` times.
    /// Throws if even the most-damped matrix fails.
    static Cholesky factor_with_jitter(Matrix a, double initial_jitter = 1e-10,
                                       int max_tries = 12);

    std::size_t dim() const noexcept { return l_.rows(); }
    const Matrix& lower() const noexcept { return l_; }

    /// Solves A x = b.
    Vector solve(const Vector& b) const;

    /// Solves L y = b (forward substitution).
    Vector solve_lower(const Vector& b) const;

    /// Solves Lᵀ x = y (back substitution).
    Vector solve_upper(const Vector& y) const;

    // In-place variants: overwrite `x` with the solution, performing the
    // same substitutions in the same order as the allocating versions (the
    // forward pass reads x[i] before writing it and only earlier entries
    // after, so aliasing input and output is exact). These are what the
    // Workspace-threaded hot paths use to reuse a factorization with zero
    // allocations per solve.
    void solve_in_place(Vector& x) const;
    void solve_lower_in_place(Vector& x) const;
    void solve_upper_in_place(Vector& x) const;

    /// log det(A) = 2 * sum_i log L_ii.
    double log_det() const;

    /// Dense A⁻¹ (used when a full precision matrix must be shipped).
    Matrix inverse() const;

 private:
    struct Unchecked {};
    Cholesky(Unchecked, Matrix l) : l_(std::move(l)) {}

    /// Returns the lower factor, or nullopt if a pivot is non-positive.
    static std::optional<Matrix> factor_impl(const Matrix& a);

    Matrix l_;
};

}  // namespace drel::linalg
