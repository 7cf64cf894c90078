// Property + differential tests for the optimized linalg kernels.
//
// Three kinds of assertion, per DESIGN.md "Workspaces & kernels" and "SIMD
// dispatch & sampling kernels":
//  - BITWISE differential: elementwise kernels (axpy/matmul/trace_product)
//    and order-preserving rewrites (Cholesky factor, log_sum_exp/softmax)
//    must match the retained naive reference in src/linalg/reference.hpp
//    bit-for-bit; in-place variants must match their allocating twins
//    bit-for-bit.
//  - ULP-BOUNDED differential: dot-shaped reductions accumulate into the
//    SIMD lane tree (linalg/simd.hpp) since the dispatch layer landed, so
//    dot/matvec/triangular solves match the left-to-right reference within
//    the standard summation forward-error bound (2 n eps sum|x_i y_i|), not
//    bitwise. Cross-BACKEND bit-identity is pinned in test_simd_dispatch.
//  - ANALYTIC oracles: reconstruction (L Lᵀ = A) and solve residuals within
//    a scaled tolerance, which catch "matches the reference but the
//    reference is wrong" failures.
//
// Sizes 1..64 x seeds 1..32, per the harness spec.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/reference.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"
#include "util/workspace.hpp"

namespace {

using drel::linalg::Cholesky;
using drel::linalg::Matrix;
using drel::linalg::Vector;
using drel::test_support::bits_equal;
using drel::test_support::vectors_bits_equal;
namespace reference = drel::linalg::reference;

constexpr std::size_t kMaxSize = 64;
constexpr std::uint64_t kNumSeeds = 32;

Matrix random_matrix(std::size_t rows, std::size_t cols, drel::stats::Rng& rng) {
    return drel::test_support::matrix_of(rows, cols, rng.standard_normal_vector(rows * cols));
}

/// Random SPD matrix: B Bᵀ + ridge, comfortably positive definite.
Matrix random_spd(std::size_t n, drel::stats::Rng& rng) {
    const Matrix b = random_matrix(n, n, rng);
    Matrix a = b.matmul(b.transposed());
    a.add_diagonal(0.1 + 0.01 * static_cast<double>(n));
    return a;
}

bool matrices_bits_equal(const Matrix& a, const Matrix& b) {
    if (!a.same_shape(b)) return false;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            if (!bits_equal(a(r, c), b(r, c))) return false;
        }
    }
    return true;
}

/// Forward-error bound for summing n products in ANY order: both the
/// left-to-right reference and the lane tree sit within n*eps*sum|x_i*y_i|
/// of the exact value, so they sit within twice that of each other.
double dot_reorder_tolerance(const Vector& x, const Vector& y) {
    double magnitude = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) magnitude += std::fabs(x[i] * y[i]);
    const double eps = std::numeric_limits<double>::epsilon();
    return 2.0 * static_cast<double>(x.size()) * eps * magnitude;
}

TEST(LinalgProperty, DotWithinReorderBoundAxpyMatchesReferenceBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        for (std::size_t n = 1; n <= kMaxSize; n += 7) {
            const Vector x = rng.standard_normal_vector(n);
            const Vector y = rng.standard_normal_vector(n);
            EXPECT_NEAR(drel::linalg::dot(x, y), reference::dot(x, y),
                        dot_reorder_tolerance(x, y))
                << "n=" << n << " seed=" << seed;

            Vector opt = y;
            Vector ref = y;
            drel::linalg::axpy(0.37, x, opt);
            reference::axpy(0.37, x, ref);
            EXPECT_TRUE(vectors_bits_equal(opt, ref));
        }
    }
}

TEST(LinalgProperty, MatvecMatchesReferenceWithinReorderBound) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        const std::size_t rows = 1 + static_cast<std::size_t>(seed % kMaxSize);
        const std::size_t cols = 1 + static_cast<std::size_t>((3 * seed) % kMaxSize);
        const Matrix a = random_matrix(rows, cols, rng);
        const Vector x = rng.standard_normal_vector(cols);
        const Vector ref = reference::matvec(a, x);

        const Vector opt = a.matvec(x);
        ASSERT_EQ(opt.size(), ref.size());
        for (std::size_t r = 0; r < rows; ++r) {
            EXPECT_NEAR(opt[r], ref[r], dot_reorder_tolerance(a.row(r), x))
                << "row " << r << " seed=" << seed;
        }

        // The _into variant is the same dispatched dot per row — bitwise.
        Vector into;
        a.matvec_into(x, into);
        EXPECT_TRUE(vectors_bits_equal(into, opt));
    }
}

TEST(LinalgProperty, BlockedMatmulMatchesReferenceBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        const std::size_t m = 1 + static_cast<std::size_t>(seed % kMaxSize);
        const std::size_t k = 1 + static_cast<std::size_t>((5 * seed) % kMaxSize);
        const std::size_t n = 1 + static_cast<std::size_t>((11 * seed) % kMaxSize);
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        EXPECT_TRUE(matrices_bits_equal(a.matmul(b), reference::matmul(a, b)));
    }
}

TEST(LinalgProperty, BlockedMatmulCrossesColumnBlockBoundary) {
    // Column counts beyond the 256-wide block so the j-blocking actually
    // splits; results must still be bit-identical to the un-blocked loop.
    drel::stats::Rng rng(7);
    for (const std::size_t n : {255U, 256U, 257U, 300U, 513U}) {
        const Matrix a = random_matrix(9, 17, rng);
        const Matrix b = random_matrix(17, n, rng);
        EXPECT_TRUE(matrices_bits_equal(a.matmul(b), reference::matmul(a, b)));
    }
}

TEST(LinalgProperty, TraceProductMatchesMaterializedProductBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        const std::size_t m = 1 + static_cast<std::size_t>(seed % kMaxSize);
        const std::size_t k = 1 + static_cast<std::size_t>((7 * seed) % kMaxSize);
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, m, rng);
        EXPECT_TRUE(bits_equal(Matrix::trace_product(a, b), a.matmul(b).trace()));
    }
}

TEST(LinalgProperty, CholeskyFactorMatchesReferenceBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        for (std::size_t n = 1; n <= kMaxSize; ++n) {
            const Matrix a = random_spd(n, rng);
            const Cholesky chol(a);
            const auto ref = reference::cholesky_factor(a);
            ASSERT_TRUE(ref.has_value()) << "reference rejected an SPD matrix, n=" << n;
            EXPECT_TRUE(matrices_bits_equal(chol.lower(), *ref))
                << "factor mismatch at n=" << n << " seed=" << seed;
        }
    }
}

TEST(LinalgProperty, CholeskyReconstructionOracle) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        for (std::size_t n = 1; n <= kMaxSize; n += 3) {
            const Matrix a = random_spd(n, rng);
            const Cholesky chol(a);
            const Matrix rebuilt = chol.lower().matmul(chol.lower().transposed());
            const double tol = 1e-10 * (1.0 + a.frobenius_norm());
            EXPECT_LE(Matrix::max_abs_diff(rebuilt, a), tol) << "n=" << n << " seed=" << seed;
        }
    }
}

TEST(LinalgProperty, CholeskySolveNearReferenceAndInPlaceBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        for (std::size_t n = 1; n <= kMaxSize; n += 5) {
            const Matrix a = random_spd(n, rng);
            const Vector b = rng.standard_normal_vector(n);
            const Cholesky chol(a);

            // The substitutions subtract a lane-tree dot, so the solution
            // tracks the naive reference to a reorder-sized tolerance (the
            // ridge in random_spd bounds the condition number).
            const Vector x = chol.solve(b);
            const Vector ref = reference::cholesky_solve(chol.lower(), b);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_NEAR(x[i], ref[i], 1e-9 * (1.0 + drel::linalg::norm_inf(ref)))
                    << "n=" << n << " seed=" << seed;
            }

            // In-place solves overwrite their input with the exact same bits.
            Vector in_place = b;
            chol.solve_in_place(in_place);
            EXPECT_TRUE(vectors_bits_equal(in_place, x));

            Vector lower_ip = b;
            chol.solve_lower_in_place(lower_ip);
            EXPECT_TRUE(vectors_bits_equal(lower_ip, chol.solve_lower(b)));

            Vector upper_ip = b;
            chol.solve_upper_in_place(upper_ip);
            EXPECT_TRUE(vectors_bits_equal(upper_ip, chol.solve_upper(b)));

            // Analytic residual oracle: A x ≈ b.
            const Vector ax = a.matvec(x);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_NEAR(ax[i], b[i], 1e-8 * (1.0 + a.frobenius_norm()));
            }
        }
    }
}

TEST(LinalgProperty, LogSumExpAndSoftmaxMatchReferenceBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        drel::stats::Rng rng(seed);
        for (std::size_t n = 1; n <= kMaxSize; n += 11) {
            Vector v = rng.standard_normal_vector(n);
            for (double& x : v) x *= 50.0;  // exercise the max-shift path
            EXPECT_TRUE(
                bits_equal(drel::linalg::log_sum_exp(v), reference::log_sum_exp(v)));

            Vector opt = v;
            drel::linalg::softmax_inplace(opt);
            EXPECT_TRUE(vectors_bits_equal(opt, reference::softmax(v)));

            double total = 0.0;
            for (const double p : opt) total += p;
            EXPECT_NEAR(total, 1.0, 1e-12);
        }
    }
}

TEST(LinalgProperty, MahalanobisWorkspaceReuseVsFreshBitIdentical) {
    // The explicit-Workspace entry points exist exactly so this is provable:
    // a warm, repeatedly reused arena returns the same bits as a fresh arena
    // per call (buffer contents never leak into results).
    drel::stats::Rng rng(11);
    const std::size_t d = 8;
    const Matrix cov = random_spd(d, rng);
    const drel::stats::MultivariateNormal mvn(rng.standard_normal_vector(d), cov);

    drel::util::Workspace reused;
    for (int i = 0; i < 50; ++i) {
        const Vector x = rng.standard_normal_vector(d);
        drel::util::Workspace fresh;
        const double with_fresh = mvn.mahalanobis_sq_ws(x, fresh);
        const double with_reused = mvn.mahalanobis_sq_ws(x, reused);
        EXPECT_TRUE(bits_equal(with_fresh, with_reused));
        EXPECT_TRUE(bits_equal(mvn.log_pdf_ws(x, fresh), mvn.log_pdf_ws(x, reused)));
        EXPECT_EQ(fresh.depth(), 0u);
        EXPECT_EQ(reused.depth(), 0u);
    }
}

// take/give hand out owned buffers: a taken vector outlives any lease, and
// the next take reuses the storage a give handed back.
TEST(LinalgProperty, WorkspaceTakeReusesGivenStorage) {
    drel::util::Workspace ws;
    std::vector<double> first = ws.take(8);
    EXPECT_EQ(first.size(), 8u);
    const double* storage = first.data();
    ws.give(std::move(first));
    std::vector<double> second = ws.take(6);
    EXPECT_EQ(second.size(), 6u);
    EXPECT_EQ(second.data(), storage);
    ws.give(std::vector<double>{});  // nothing to hold
    std::vector<double> fresh = ws.take(3);
    EXPECT_EQ(fresh.size(), 3u);
    EXPECT_NE(fresh.data(), storage);
    EXPECT_EQ(ws.depth(), 0u);
}

TEST(LinalgProperty, WorkspaceLeaseDiscipline) {
    drel::util::Workspace ws;
    EXPECT_EQ(ws.depth(), 0u);
    {
        auto a = ws.vec(16);
        EXPECT_EQ(a->size(), 16u);
        EXPECT_EQ(ws.depth(), 1u);
        {
            auto z = ws.zeros(9);
            EXPECT_EQ(ws.depth(), 2u);
            for (const double v : *z) EXPECT_EQ(v, 0.0);
        }
        EXPECT_EQ(ws.depth(), 1u);
        // Re-borrowing after release reuses capacity at any size.
        auto b = ws.vec(4);
        EXPECT_EQ(b->size(), 4u);
        EXPECT_EQ(ws.depth(), 2u);
    }
    EXPECT_EQ(ws.depth(), 0u);
}

}  // namespace
