#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace drel::linalg {
namespace {

[[noreturn]] void shape_error(const char* op) {
    throw std::invalid_argument(std::string("Matrix::") + op + ": shape mismatch");
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
    Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
    return out;
}

Matrix Matrix::diagonal(const Vector& d) {
    Matrix out(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) out(i, i) = d[i];
    return out;
}

Vector Matrix::row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row: index out of range");
    return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                  data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::col(std::size_t c) const {
    if (c >= cols_) throw std::out_of_range("Matrix::col: index out of range");
    Vector out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
    return out;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
    if (r >= rows_) throw std::out_of_range("Matrix::set_row: index out of range");
    if (v.size() != cols_) shape_error("set_row");
    for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

Matrix Matrix::transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    }
    return out;
}

Vector Matrix::matvec(const Vector& x) const {
    Vector out;
    matvec_into(x, out);
    return out;
}

void Matrix::matvec_into(const Vector& x, Vector& out) const {
    if (x.size() != cols_) shape_error("matvec");
    out.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        out[r] = dot_n(data_.data() + r * cols_, x.data(), cols_);
    }
}

Matrix Matrix::matmul(const Matrix& other) const {
    if (cols_ != other.rows_) shape_error("matmul");
    Matrix out(rows_, other.cols_);
    const std::size_t n = other.cols_;
    // ikj loop order keeps the inner loop contiguous in both `other` and
    // `out`; the column blocking keeps the touched slices of `other` and
    // `out` resident in cache for large products. The inner update is the
    // dispatched axpy over [j0, j1) — elementwise, so each out(i, j) still
    // accumulates over k in ascending order (blocking splits j, not k) and
    // results are bit-identical at every block size and on every backend.
    constexpr std::size_t kColBlock = 256;
    for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
        const std::size_t j1 = std::min(n, j0 + kColBlock);
        for (std::size_t i = 0; i < rows_; ++i) {
            double* o_row = out.data_.data() + i * n;
            for (std::size_t k = 0; k < cols_; ++k) {
                const double aik = (*this)(i, k);
                if (aik == 0.0) continue;
                const double* b_row = other.data_.data() + k * n;
                axpy_n(aik, b_row + j0, o_row + j0, j1 - j0);
            }
        }
    }
    return out;
}

double Matrix::trace_product(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_ || b.cols_ != a.rows_) shape_error("trace_product");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows_; ++i) {
        const double* a_row = a.data_.data() + i * a.cols_;
        double diag = 0.0;
        for (std::size_t k = 0; k < a.cols_; ++k) {
            const double aik = a_row[k];
            if (aik == 0.0) continue;  // mirror matmul's skip exactly
            diag += aik * b(k, i);
        }
        acc += diag;
    }
    return acc;
}

Matrix& Matrix::operator+=(const Matrix& other) {
    if (!same_shape(other)) shape_error("operator+=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double alpha) noexcept {
    for (double& v : data_) v *= alpha;
    return *this;
}

void Matrix::add_diagonal(double alpha) {
    if (!is_square()) shape_error("add_diagonal");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

void Matrix::add_outer(double alpha, const Vector& x) {
    if (!is_square() || x.size() != rows_) shape_error("add_outer");
    for (std::size_t r = 0; r < rows_; ++r) {
        const double ax = alpha * x[r];
        if (ax == 0.0) continue;
        double* row_ptr = data_.data() + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) row_ptr[c] += ax * x[c];
    }
}

double Matrix::trace() const {
    if (!is_square()) shape_error("trace");
    double acc = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
    return acc;
}

double Matrix::frobenius_norm() const noexcept {
    double acc = 0.0;
    for (const double v : data_) acc += v * v;
    return std::sqrt(acc);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
    if (!a.same_shape(b)) shape_error("max_abs_diff");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.data_.size(); ++i) {
        acc = std::max(acc, std::fabs(a.data_[i] - b.data_[i]));
    }
    return acc;
}

}  // namespace drel::linalg
