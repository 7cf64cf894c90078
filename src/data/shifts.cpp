#include "data/shifts.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace drel::data {
namespace {

std::size_t non_bias_dim(const models::Dataset& d) {
    if (d.dim() < 2) throw std::invalid_argument("shift: dataset must have >= 2 columns");
    return d.dim() - 1;
}

}  // namespace

models::Dataset apply_mean_shift(const models::Dataset& d, const linalg::Vector& delta) {
    const std::size_t nb = non_bias_dim(d);
    if (delta.size() != nb) throw std::invalid_argument("apply_mean_shift: dimension mismatch");
    linalg::Matrix f(d.size(), d.dim());
    for (std::size_t i = 0; i < d.size(); ++i) {
        linalg::Vector row = d.feature_row(i);
        for (std::size_t c = 0; c < nb; ++c) row[c] += delta[c];
        f.set_row(i, row);
    }
    return models::Dataset(std::move(f), d.labels());
}

models::Dataset apply_rotation(const models::Dataset& d, double angle) {
    const std::size_t nb = non_bias_dim(d);
    if (nb < 2) throw std::invalid_argument("apply_rotation: need >= 2 non-bias features");
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    linalg::Matrix f(d.size(), d.dim());
    for (std::size_t i = 0; i < d.size(); ++i) {
        linalg::Vector row = d.feature_row(i);
        const double x0 = row[0];
        const double x1 = row[1];
        row[0] = c * x0 - s * x1;
        row[1] = s * x0 + c * x1;
        f.set_row(i, row);
    }
    return models::Dataset(std::move(f), d.labels());
}

models::Dataset apply_label_shift(const models::Dataset& d, double positive_fraction,
                                  stats::Rng& rng) {
    if (!(positive_fraction >= 0.0) || !(positive_fraction <= 1.0)) {
        throw std::invalid_argument("apply_label_shift: fraction must be in [0,1]");
    }
    std::vector<std::size_t> positives;
    std::vector<std::size_t> negatives;
    for (std::size_t i = 0; i < d.size(); ++i) {
        (d.label(i) > 0.0 ? positives : negatives).push_back(i);
    }
    const std::size_t n = d.size();
    const std::size_t n_pos =
        static_cast<std::size_t>(std::llround(positive_fraction * static_cast<double>(n)));
    const std::size_t n_neg = n - n_pos;
    if (n_pos > 0 && positives.empty()) {
        throw std::invalid_argument("apply_label_shift: no positive examples to resample");
    }
    if (n_neg > 0 && negatives.empty()) {
        throw std::invalid_argument("apply_label_shift: no negative examples to resample");
    }
    std::vector<std::size_t> indices;
    indices.reserve(n);
    for (std::size_t i = 0; i < n_pos; ++i) {
        indices.push_back(positives[rng.uniform_index(positives.size())]);
    }
    for (std::size_t i = 0; i < n_neg; ++i) {
        indices.push_back(negatives[rng.uniform_index(negatives.size())]);
    }
    return d.subset(indices);
}

models::Dataset apply_feature_noise(const models::Dataset& d, double stddev, stats::Rng& rng) {
    if (!(stddev >= 0.0)) throw std::invalid_argument("apply_feature_noise: stddev must be >= 0");
    const std::size_t nb = non_bias_dim(d);
    linalg::Matrix f(d.size(), d.dim());
    for (std::size_t i = 0; i < d.size(); ++i) {
        linalg::Vector row = d.feature_row(i);
        for (std::size_t c = 0; c < nb; ++c) row[c] += rng.normal(0.0, stddev);
        f.set_row(i, row);
    }
    return models::Dataset(std::move(f), d.labels());
}

}  // namespace drel::data
