// The edge hypothesis: a linear model over (bias-augmented) features.
//
// The weight vector *is* the model parameter theta that the DP prior from
// the cloud is a distribution over; keeping the model this thin makes the
// cloud->edge transfer a plain vector/covariance exchange.
#pragma once

#include "linalg/vector_ops.hpp"
#include "models/dataset.hpp"
#include "models/loss.hpp"

namespace drel::models {

class LinearModel {
 public:
    LinearModel() = default;
    explicit LinearModel(linalg::Vector weights) : weights_(std::move(weights)) {}

    std::size_t dim() const noexcept { return weights_.size(); }
    const linalg::Vector& weights() const noexcept { return weights_; }
    linalg::Vector& weights() noexcept { return weights_; }

    /// <w, x>
    double decision_value(const linalg::Vector& x) const;

    /// sigmoid(<w, x>) — probability of class +1 under the logistic link.
    double predict_probability(const linalg::Vector& x) const;

    // The same two, and the class sign(<w, x>) in {-1, +1} with ties to +1,
    // over the dim() entries at `x`, unchecked: the allocation-free form for
    // loops over Dataset::feature_row_data, whose caller checks the
    // dataset's dimension once. Inline, so a metric's loop over rows
    // compiles to the dot itself.
    double decision_value(const double* x) const noexcept {
        return linalg::dot_n(weights_.data(), x, weights_.size());
    }
    double predict_class(const double* x) const noexcept { return class_of(decision_value(x)); }
    double predict_probability(const double* x) const noexcept;

    /// Per-example loss: phi(y <w,x>) for margin losses, phi(y - <w,x>)
    /// for residual losses.
    double example_loss(const Loss& loss, const linalg::Vector& x, double y) const;

    /// Average loss over a dataset.
    double average_loss(const Loss& loss, const Dataset& data) const;

    /// Per-example loss under the worst feature perturbation with
    /// ||delta||_2 <= epsilon, where only the non-bias features (all but the
    /// trailing coordinate, per library convention) are perturbable. For
    /// margin losses this is exact: phi(y<w,x> - epsilon ||w_feat||_2). For
    /// residual losses it is phi(|y - <w,x>| + epsilon ||w_feat||_2), exact
    /// for monotone-in-|r| phi.
    double adversarial_example_loss(const Loss& loss, const linalg::Vector& x, double y,
                                    double epsilon) const;

    double average_adversarial_loss(const Loss& loss, const Dataset& data,
                                    double epsilon) const;

 private:
    /// The tie rule of predict_class: ties break to +1.
    static double class_of(double decision) noexcept { return decision >= 0.0 ? 1.0 : -1.0; }

    linalg::Vector weights_;
};

}  // namespace drel::models
