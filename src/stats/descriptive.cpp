#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace drel::stats {

double mean(const linalg::Vector& x) {
    if (x.empty()) throw std::invalid_argument("mean: empty input");
    return linalg::sum(x) / static_cast<double>(x.size());
}

double quantile(linalg::Vector x, double q) {
    if (x.empty()) throw std::invalid_argument("quantile: empty input");
    if (!(q >= 0.0) || !(q <= 1.0)) throw std::invalid_argument("quantile: q must be in [0,1]");
    std::sort(x.begin(), x.end());
    const double pos = q * static_cast<double>(x.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, x.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return x[lo] * (1.0 - frac) + x[hi] * frac;
}

double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    return sorted[nearest_rank_index(sorted.size(), q)];
}

std::size_t nearest_rank_index(std::size_t n, double q) {
    if (!(q >= 0.0) || !(q <= 1.0)) {
        throw std::invalid_argument("nearest_rank: q must be in [0,1]");
    }
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    return std::min(index, n == 0 ? 0 : n - 1);
}

RankBuckets::RankBuckets(std::size_t num_buckets, double limit)
    : num_buckets_(num_buckets),
      per_unit_(static_cast<double>(num_buckets) / limit),
      last_(static_cast<double>(num_buckets) - 1.0) {
    if (num_buckets == 0 || !(limit > 0.0)) {
        throw std::invalid_argument("RankBuckets: needs num_buckets >= 1 and limit > 0");
    }
}

void RankBlock::assign(const RankBuckets& buckets, const double* values,
                       const std::uint8_t* member, std::size_t n, double* grouped) {
    const std::size_t num_buckets = buckets.size();
    starts_.assign(num_buckets + 1, 0);
    grouped_ = grouped;
    double max = -std::numeric_limits<double>::infinity();
    // Count bucket b in starts_[b + 1], then prefix-sum into starts.
    for (std::size_t j = 0; j < n; ++j) {
        if (member != nullptr && member[j] == 0) continue;
        const double x = values[j];
        ++starts_[buckets(x) + 1];
        if (max < x) max = x;
    }
    max_ = max;
    for (std::size_t b = 0; b < num_buckets; ++b) starts_[b + 1] += starts_[b];
    next_.assign(starts_.begin(), starts_.end() - 1);
    for (std::size_t j = 0; j < n; ++j) {
        if (member != nullptr && member[j] == 0) continue;
        grouped[next_[buckets(values[j])]++] = values[j];
    }
}

void select_nearest_ranks(const RankBuckets& buckets, const RankBlock* blocks,
                          std::size_t num_blocks, const double* qs, std::size_t num_qs,
                          double* out, std::vector<double>& scratch) {
    std::size_t total = 0;
    for (std::size_t s = 0; s < num_blocks; ++s) total += blocks[s].members();
    const auto in_bucket = [&](std::size_t b) {
        std::size_t count = 0;
        for (std::size_t s = 0; s < num_blocks; ++s) count += blocks[s].bucket_count(b);
        return count;
    };
    const std::size_t none = buckets.size();
    std::size_t bucket = 0;
    std::size_t below = 0;  // members in buckets before `bucket`
    std::size_t held = total > 0 ? in_bucket(0) : 0;
    std::size_t gathered = none;
    std::size_t from = 0;  // scratch[from, end) holds every rank not yet read
    for (std::size_t i = 0; i < num_qs; ++i) {
        if (i > 0 && !(qs[i - 1] <= qs[i])) {
            throw std::invalid_argument("select_nearest_ranks: qs must be ascending");
        }
        const std::size_t k = nearest_rank_index(total, qs[i]);
        if (total == 0) {
            out[i] = 0.0;
            continue;
        }
        while (below + held <= k) {
            below += held;
            held = in_bucket(++bucket);
        }
        if (gathered != bucket) {
            scratch.clear();
            for (std::size_t s = 0; s < num_blocks; ++s) {
                const double* first = blocks[s].bucket_begin(bucket);
                scratch.insert(scratch.end(), first, first + blocks[s].bucket_count(bucket));
            }
            gathered = bucket;
            from = 0;
        }
        // Successive selection inside the bucket: every value right of the
        // last selected slot is >= it, so the next rank lies there.
        const std::size_t local = k - below;
        std::nth_element(scratch.begin() + static_cast<std::ptrdiff_t>(from),
                         scratch.begin() + static_cast<std::ptrdiff_t>(local), scratch.end());
        out[i] = scratch[local];
        from = local;
    }
}

double median(linalg::Vector x) { return quantile(std::move(x), 0.5); }

linalg::Vector mean_rows(const std::vector<linalg::Vector>& rows) {
    if (rows.empty()) throw std::invalid_argument("mean_rows: empty input");
    linalg::Vector out(rows.front().size(), 0.0);
    for (const auto& r : rows) linalg::axpy(1.0, r, out);
    linalg::scale(out, 1.0 / static_cast<double>(rows.size()));
    return out;
}

linalg::Matrix covariance_rows(const std::vector<linalg::Vector>& rows) {
    if (rows.size() < 2) throw std::invalid_argument("covariance_rows: need at least 2 rows");
    const linalg::Vector m = mean_rows(rows);
    const std::size_t d = m.size();
    linalg::Matrix cov(d, d);
    for (const auto& r : rows) {
        cov.add_outer(1.0, linalg::sub(r, m));
    }
    cov *= 1.0 / static_cast<double>(rows.size() - 1);
    return cov;
}

void RunningStats::push(double x) noexcept {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace drel::stats
