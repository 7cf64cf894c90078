#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::linalg {
namespace {

// -------------------------------------------------------------- vector ops

TEST(VectorOps, DotAndNorms) {
    const Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
    EXPECT_DOUBLE_EQ(norm2(x), 5.0);
    EXPECT_DOUBLE_EQ(norm_inf(x), 4.0);
}

TEST(VectorOps, DotRejectsMismatch) {
    EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, Norm2AvoidsOverflow) {
    const Vector huge{1e200, 1e200};
    EXPECT_NEAR(norm2(huge) / 1e200, std::sqrt(2.0), 1e-12);
}

TEST(VectorOps, AxpyAndArithmetic) {
    Vector y{1.0, 1.0};
    axpy(2.0, {1.0, -1.0}, y);
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
    const Vector d = sub({1.0, 2.0}, {3.0, 4.0});
    EXPECT_DOUBLE_EQ(d[1], -2.0);
}

TEST(VectorOps, LogSumExpStable) {
    // Huge values must not overflow.
    EXPECT_NEAR(log_sum_exp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
    // Tiny values must not underflow to -inf.
    EXPECT_NEAR(log_sum_exp({-1000.0, -1000.0}), -1000.0 + std::log(2.0), 1e-9);
    EXPECT_TRUE(std::isinf(log_sum_exp({})));
}

TEST(VectorOps, SoftmaxSumsToOne) {
    Vector lw{1.0, 2.0, 3.0};
    softmax_inplace(lw);
    EXPECT_NEAR(sum(lw), 1.0, 1e-12);
    EXPECT_GT(lw[2], lw[1]);
    EXPECT_GT(lw[1], lw[0]);
}

TEST(VectorOps, ArgmaxAndUnit) {
    EXPECT_EQ(argmax({0.1, 5.0, 2.0}), 1u);
    EXPECT_THROW(argmax({}), std::invalid_argument);
    const Vector e = unit(3, 1);
    EXPECT_DOUBLE_EQ(e[1], 1.0);
    EXPECT_DOUBLE_EQ(e[0] + e[2], 0.0);
    EXPECT_THROW(unit(3, 3), std::out_of_range);
}

// ------------------------------------------------------------------ matrix

TEST(Matrix, ConstructionAndAccess) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(Matrix, MatvecAgainstHandComputed) {
    const Matrix a = test_support::matrix_of(2, 2, {1.0, 2.0, 3.0, 4.0});
    const Vector v = a.matvec({1.0, 1.0});
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(Matrix, MatmulMatchesIdentity) {
    const Matrix a = test_support::matrix_of(2, 2, {1.0, 2.0, 3.0, 4.0});
    const Matrix prod = a.matmul(Matrix::identity(2));
    EXPECT_NEAR(Matrix::max_abs_diff(a, prod), 0.0, 1e-15);
}

TEST(Matrix, MatmulHandChecked) {
    const Matrix a = test_support::matrix_of(2, 3, {1.0, 0.0, 2.0, 0.0, 1.0, -1.0});
    const Matrix b = test_support::matrix_of(3, 1, {1.0, 2.0, 3.0});
    const Matrix c = a.matmul(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
    EXPECT_DOUBLE_EQ(c(1, 0), -1.0);
    EXPECT_THROW(b.matmul(a).matmul(b), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
    const Matrix a = test_support::matrix_of(2, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
    EXPECT_NEAR(Matrix::max_abs_diff(a, a.transposed().transposed()), 0.0, 0.0);
    EXPECT_DOUBLE_EQ(a.transposed()(2, 1), 6.0);
}

TEST(Matrix, OuterAndAddOuter) {
    Matrix s = Matrix::identity(2);
    s.add_outer(2.0, {1.0, 1.0});
    EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(s(0, 1), 2.0);
}

TEST(Matrix, TraceAndDiagonal) {
    Matrix m = Matrix::diagonal({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(m.trace(), 6.0);
    m.add_diagonal(0.5);
    EXPECT_DOUBLE_EQ(m.trace(), 7.5);
}

TEST(Matrix, RowColumnOps) {
    Matrix m = test_support::matrix_of(2, 2, {1.0, 2.0, 3.0, 4.0});
    const Vector r = m.row(1);
    EXPECT_DOUBLE_EQ(r[0], 3.0);
    const Vector c = m.col(1);
    EXPECT_DOUBLE_EQ(c[0], 2.0);
    m.set_row(0, {9.0, 8.0});
    EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
    EXPECT_THROW(m.set_row(0, {1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- cholesky

Matrix random_spd(std::size_t n, stats::Rng& rng) {
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    }
    Matrix spd = a.matmul(a.transposed());
    spd.add_diagonal(0.5);
    return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
    stats::Rng rng(1);
    const Matrix a = random_spd(5, rng);
    const Cholesky chol(a);
    const Matrix rebuilt = chol.lower().matmul(chol.lower().transposed());
    EXPECT_LT(Matrix::max_abs_diff(a, rebuilt), 1e-10);
}

TEST(Cholesky, SolveMatchesDirectCheck) {
    stats::Rng rng(2);
    const Matrix a = random_spd(6, rng);
    const Cholesky chol(a);
    const Vector b = rng.standard_normal_vector(6);
    const Vector x = chol.solve(b);
    EXPECT_LT(distance2(a.matvec(x), b), 1e-9);
}

TEST(Cholesky, LogDetMatchesDiagonalCase) {
    const Matrix d = Matrix::diagonal({2.0, 3.0, 4.0});
    const Cholesky chol(d);
    EXPECT_NEAR(chol.log_det(), std::log(24.0), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
    Matrix bad = Matrix::identity(2);
    bad(0, 0) = -1.0;
    EXPECT_THROW(Cholesky{bad}, std::invalid_argument);
    EXPECT_FALSE(Cholesky::try_factor(bad).has_value());
}

TEST(Cholesky, JitterRescuesSemidefinite) {
    // Rank-1 matrix: singular but PSD; jitter must make it factorable.
    Matrix semidefinite = test_support::outer({1.0, 1.0}, {1.0, 1.0});
    const Cholesky chol = Cholesky::factor_with_jitter(semidefinite);
    EXPECT_EQ(chol.dim(), 2u);
}

TEST(Cholesky, InverseTimesOriginalIsIdentity) {
    stats::Rng rng(4);
    const Matrix a = random_spd(5, rng);
    const Matrix inv = Cholesky(a).inverse();
    EXPECT_LT(Matrix::max_abs_diff(a.matmul(inv), Matrix::identity(5)), 1e-8);
}

// ------------------------------------------------------------- eigen_sym

TEST(EigenSym, DiagonalMatrixEigenvaluesSorted) {
    const EigenSym es = eigen_sym(Matrix::diagonal({3.0, 1.0, 2.0}));
    EXPECT_NEAR(es.values[0], 1.0, 1e-10);
    EXPECT_NEAR(es.values[1], 2.0, 1e-10);
    EXPECT_NEAR(es.values[2], 3.0, 1e-10);
}

TEST(EigenSym, ReconstructsMatrix) {
    stats::Rng rng(7);
    const Matrix a = random_spd(5, rng);
    const EigenSym es = eigen_sym(a);
    // A = V diag(lambda) V^T
    Matrix scaled = es.vectors;
    for (std::size_t c = 0; c < 5; ++c) {
        for (std::size_t r = 0; r < 5; ++r) scaled(r, c) *= es.values[c];
    }
    const Matrix rebuilt = scaled.matmul(es.vectors.transposed());
    EXPECT_LT(Matrix::max_abs_diff(a, rebuilt), 1e-8);
}

// Equal eigenvalues keep their column order. Past 16 entries libstdc++'s
// std::sort no longer keeps equal keys in index order, so 20 is the size
// where an unstable sort would permute the identity's eigenvectors.
TEST(EigenSym, EqualEigenvaluesKeepColumnOrder) {
    const EigenSym es = eigen_sym(Matrix::identity(20));
    EXPECT_EQ(Matrix::max_abs_diff(es.vectors, Matrix::identity(20)), 0.0);
    for (const double value : es.values) EXPECT_EQ(value, 1.0);
}

}  // namespace
}  // namespace drel::linalg
