#include "models/dataset.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::models {

Dataset::Dataset(linalg::Matrix features, linalg::Vector labels)
    : features_(std::move(features)), labels_(std::move(labels)) {
    if (features_.rows() != labels_.size()) {
        throw std::invalid_argument("Dataset: feature rows != label count");
    }
    // Reject NaN/inf up front: a single non-finite sample silently poisons
    // every loss, gradient and dual downstream, which is far harder to
    // diagnose than a loud constructor failure at the ingestion boundary.
    for (const double v : features_.data()) {
        if (!std::isfinite(v)) {
            throw std::invalid_argument("Dataset: non-finite feature value");
        }
    }
    for (const double y : labels_) {
        if (!std::isfinite(y)) {
            throw std::invalid_argument("Dataset: non-finite label");
        }
    }
}

void Dataset::push_back(const linalg::Vector& x, double y) {
    if (!empty() && x.size() != dim()) {
        throw std::invalid_argument("Dataset::push_back: dimension mismatch");
    }
    linalg::Matrix grown(features_.rows() + 1, empty() ? x.size() : dim());
    for (std::size_t r = 0; r < features_.rows(); ++r) {
        for (std::size_t c = 0; c < features_.cols(); ++c) grown(r, c) = features_(r, c);
    }
    grown.set_row(features_.rows(), x);
    features_ = std::move(grown);
    labels_.push_back(y);
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
    linalg::Matrix f(indices.size(), dim());
    linalg::Vector l(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        if (indices[i] >= size()) throw std::out_of_range("Dataset::subset: index out of range");
        f.set_row(i, feature_row(indices[i]));
        l[i] = labels_[indices[i]];
    }
    return Dataset(std::move(f), std::move(l));
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction, stats::Rng& rng) const {
    if (!(train_fraction >= 0.0) || !(train_fraction <= 1.0)) {
        throw std::invalid_argument("Dataset::split: fraction must be in [0,1]");
    }
    const std::vector<std::size_t> perm = rng.permutation(size());
    const std::size_t n_train =
        static_cast<std::size_t>(std::llround(train_fraction * static_cast<double>(size())));
    std::vector<std::size_t> train_idx(perm.begin(),
                                       perm.begin() + static_cast<std::ptrdiff_t>(n_train));
    std::vector<std::size_t> test_idx(perm.begin() + static_cast<std::ptrdiff_t>(n_train),
                                      perm.end());
    return {subset(train_idx), subset(test_idx)};
}

Dataset Dataset::concatenate(const Dataset& a, const Dataset& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    if (a.dim() != b.dim()) {
        throw std::invalid_argument("Dataset::concatenate: dimension mismatch");
    }
    linalg::Matrix f(a.size() + b.size(), a.dim());
    linalg::Vector l(a.size() + b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        f.set_row(i, a.feature_row(i));
        l[i] = a.label(i);
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
        f.set_row(a.size() + i, b.feature_row(i));
        l[a.size() + i] = b.label(i);
    }
    return Dataset(std::move(f), std::move(l));
}

double Dataset::positive_fraction() const {
    if (empty()) return 0.0;
    std::size_t positives = 0;
    for (const double y : labels_) {
        if (y > 0.0) ++positives;
    }
    return static_cast<double>(positives) / static_cast<double>(size());
}

}  // namespace drel::models
