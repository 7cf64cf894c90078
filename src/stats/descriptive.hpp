// Descriptive statistics used by benches (mean±std over seeds, quantiles,
// CDFs) and by the DPMM sufficient-statistics bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::stats {

double mean(const linalg::Vector& x);

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

// Exact nearest-rank selection from bucket counts, for a sample held in
// blocks that are gathered apart (the fleet close's shard slices, each on
// its own thread). Every block counts its members into the buckets of one
// monotone map and groups them by bucket; the selection merges the counts,
// finds the bucket holding each rank and runs nth_element inside that
// bucket alone. Monotone means x <= y puts x in a bucket no higher than
// y's, so every value of a lower bucket is below every value of a higher
// one, and the selected value is the one nearest_rank reads from the
// sorted union of the blocks' members.

/// The monotone map: num_buckets buckets of width limit / num_buckets
/// over [0, limit). x goes to floor(x * num_buckets / limit), clamped to
/// [0, num_buckets - 1], so values below 0 share the first bucket and
/// values at or past `limit` the last; the clamp costs a larger selection
/// there, never a wrong one.
class RankBuckets {
 public:
    /// Throws std::invalid_argument unless num_buckets >= 1 and limit > 0.
    RankBuckets(std::size_t num_buckets, double limit);

    std::size_t size() const noexcept { return num_buckets_; }

    std::size_t operator()(double x) const noexcept {
        const double t = x * per_unit_;
        if (!(t < last_)) return num_buckets_ - 1;
        if (!(t >= 1.0)) return 0;
        return static_cast<std::size_t>(t);
    }

 private:
    std::size_t num_buckets_;
    double per_unit_;  ///< num_buckets / limit
    double last_;      ///< num_buckets - 1
};

/// One block's members grouped by bucket, reused across fills.
class RankBlock {
 public:
    /// Groups the members of values[0, n) — the entries whose `member`
    /// flag is non-zero, or all of them when `member` is null — into
    /// grouped[0, members()) by bucket, each bucket in block order, and
    /// keeps their max. `grouped` must hold n doubles and outlive the
    /// selection that reads this block.
    void assign(const RankBuckets& buckets, const double* values, const std::uint8_t* member,
                std::size_t n, double* grouped);

    std::size_t members() const noexcept { return starts_.empty() ? 0 : starts_.back(); }
    /// The largest member; -inf when the block has none.
    double max() const noexcept { return max_; }
    /// Members in bucket b: [bucket_begin(b), bucket_begin(b + 1)).
    const double* bucket_begin(std::size_t b) const noexcept { return grouped_ + starts_[b]; }
    std::size_t bucket_count(std::size_t b) const noexcept {
        return starts_[b + 1] - starts_[b];
    }

 private:
    std::vector<std::uint32_t> starts_;  ///< bucket b starts at grouped_[starts_[b]]
    std::vector<std::uint32_t> next_;    ///< scatter cursors
    const double* grouped_ = nullptr;
    double max_ = -std::numeric_limits<double>::infinity();
};

/// out[i] = nearest_rank of qs[i] (ascending, each in [0, 1]) over the
/// sorted union of the blocks' members, and 0.0 for every i when no block
/// has a member (nearest_rank's empty convention). `blocks` must be
/// filled under `buckets`; `scratch` holds one bucket's values at a time.
/// Throws std::invalid_argument when qs is not ascending or a q lies
/// outside [0, 1].
void select_nearest_ranks(const RankBuckets& buckets, const RankBlock* blocks,
                          std::size_t num_blocks, const double* qs, std::size_t num_qs,
                          double* out, std::vector<double>& scratch);

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
