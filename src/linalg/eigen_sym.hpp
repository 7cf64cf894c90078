// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// The DP sampler (dp/diagonal_predictive.hpp) uses it once per sampler to
// find the basis that diagonalises the conjugate Normal-Normal predictive.
// Jacobi is the right tool at the model dimensions here (d in the tens):
// a few dozen flops per rotation, no workspace, and eigenvectors that stay
// orthonormal to rounding.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::linalg {

struct EigenSym {
    /// Eigenvalues in ascending order.
    Vector values;
    /// Column k of `vectors` is the eigenvector for values[k].
    Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix. The input is symmetrized
/// as (A + Aᵀ)/2 before iterating, so slight asymmetry from accumulation is
/// tolerated. Sweeps stop once the off-diagonal mass is negligible next to
/// the matrix's own norm, or after 64 sweeps. Throws std::invalid_argument
/// on non-square input.
EigenSym eigen_sym(const Matrix& a);

}  // namespace drel::linalg
