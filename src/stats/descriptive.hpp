// Descriptive statistics used by benches (mean±std over seeds, quantiles,
// CDFs) and by the DPMM sufficient-statistics bookkeeping.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::stats {

double mean(const linalg::Vector& x);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(const linalg::Vector& x);

double stddev(const linalg::Vector& x);

/// Empirical quantile with linear interpolation; q in [0, 1].
double quantile(linalg::Vector x, double q);

/// Nearest-rank quantile over an ALREADY SORTED sample: the ceil(q * n)-th
/// value (1-based; q = 0 resolves to the first). Unlike `quantile` this
/// never interpolates — the result is always an observed sample, which is
/// what the fleet engine's latency percentiles and the health layer's
/// histogram quantiles both need. Returns 0.0 on an empty input (the fleet
/// engine's historical no-devices convention).
double nearest_rank(const std::vector<double>& sorted, double q);

/// The 0-based slot nearest_rank reads in a sorted sample of n > 0 values:
/// ceil(q * n) - 1, clamped to [0, n - 1]. Selection (std::nth_element at
/// this index) places the same value there without sorting. Throws
/// std::invalid_argument unless 0 <= q <= 1.
std::size_t nearest_rank_index(std::size_t n, double q);

double median(linalg::Vector x);

/// Column-wise mean of a set of row-vectors.
linalg::Vector mean_rows(const std::vector<linalg::Vector>& rows);

/// Sample covariance of row-vectors (n-1 denominator). Throws for n < 2.
linalg::Matrix covariance_rows(const std::vector<linalg::Vector>& rows);

/// Welford online accumulator for scalar streams.
class RunningStats {
 public:
    void push(double x) noexcept;
    std::size_t count() const noexcept { return n_; }
    double mean() const noexcept { return mean_; }
    /// Unbiased variance; 0 for fewer than two samples.
    double variance() const noexcept;
    double stddev() const noexcept;
    double min() const noexcept { return min_; }
    double max() const noexcept { return max_; }

 private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace drel::stats
