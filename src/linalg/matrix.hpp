// Dense row-major matrix.
//
// Sized for the workloads in this repository: model dimensions in the tens
// to low hundreds, so a straightforward O(n^3) dense kernel set is the right
// tool. All shape errors throw std::invalid_argument.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace drel::linalg {

class Matrix {
 public:
    Matrix() = default;

    /// rows x cols matrix filled with `fill`.
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    static Matrix identity(std::size_t n);
    static Matrix diagonal(const Vector& d);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }
    bool is_square() const noexcept { return rows_ == cols_; }

    double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

    const std::vector<double>& data() const noexcept { return data_; }

    /// Raw pointer to row r's contiguous storage (unchecked, like
    /// operator()). The allocation-free alternative to row() for hot loops.
    const double* row_data(std::size_t r) const noexcept { return data_.data() + r * cols_; }
    double* row_data(std::size_t r) noexcept { return data_.data() + r * cols_; }

    Vector row(std::size_t r) const;
    Vector col(std::size_t c) const;
    void set_row(std::size_t r, const Vector& v);

    Matrix transposed() const;

    /// this * x
    Vector matvec(const Vector& x) const;
    /// this * x written into an existing buffer (resized; must not alias x).
    void matvec_into(const Vector& x, Vector& out) const;
    /// this * other
    Matrix matmul(const Matrix& other) const;

    /// trace(a * b) without forming the product. Each diagonal entry is
    /// accumulated in the same k-ascending order (with the same zero skip) as
    /// matmul, so trace_product(a, b) == a.matmul(b).trace() bit-for-bit.
    static double trace_product(const Matrix& a, const Matrix& b);

    Matrix& operator+=(const Matrix& other);
    Matrix& operator*=(double alpha) noexcept;
    friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
    friend Matrix operator*(Matrix a, double alpha) { return a *= alpha; }
    friend Matrix operator*(double alpha, Matrix a) { return a *= alpha; }

    /// Adds alpha to every diagonal element (ridge / damping).
    void add_diagonal(double alpha);

    /// Adds alpha * x xᵀ (symmetric rank-1 update).
    void add_outer(double alpha, const Vector& x);

    double trace() const;
    double frobenius_norm() const noexcept;

    /// Max |a_ij - b_ij|; throws on shape mismatch.
    static double max_abs_diff(const Matrix& a, const Matrix& b);

    bool same_shape(const Matrix& other) const noexcept {
        return rows_ == other.rows_ && cols_ == other.cols_;
    }

 private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace drel::linalg
