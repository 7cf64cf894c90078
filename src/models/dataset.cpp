#include "models/dataset.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

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

}  // namespace drel::models
