// Supervised dataset container.
//
// The hypothesis class of the paper's edge learner is a (generalized) linear
// model, so a dataset is a dense feature matrix plus a label vector. Labels
// are -1/+1 for binary classification and real-valued for regression; the
// loss chosen downstream decides the interpretation.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::models {

class Dataset {
 public:
    Dataset() = default;

    /// `features` is n x d; `labels` has n entries.
    Dataset(linalg::Matrix features, linalg::Vector labels);

    std::size_t size() const noexcept { return labels_.size(); }
    std::size_t dim() const noexcept { return features_.cols(); }
    bool empty() const noexcept { return labels_.empty(); }

    const linalg::Matrix& features() const noexcept { return features_; }
    const linalg::Vector& labels() const noexcept { return labels_; }

    linalg::Vector feature_row(std::size_t i) const { return features_.row(i); }

    /// Raw pointer to example i's contiguous feature row (unchecked). The
    /// allocation-free alternative to feature_row() for per-example loops.
    const double* feature_row_data(std::size_t i) const noexcept {
        return features_.row_data(i);
    }

    double label(std::size_t i) const { return labels_.at(i); }

    /// Subset by indices (duplicates allowed — used by bootstrap resampling).
    Dataset subset(const std::vector<std::size_t>& indices) const;

    /// Merges two datasets with identical dimensionality.
    static Dataset concatenate(const Dataset& a, const Dataset& b);

 private:
    linalg::Matrix features_;
    linalg::Vector labels_;
};

}  // namespace drel::models
