// Multiclass softmax (multinomial logistic) models.
//
// Extends the edge hypothesis class beyond binary classification: theta is
// the row-major stacking of a C x d weight matrix W, so the same
// MixturePrior / EmDroSolver machinery applies unchanged — the cloud simply
// learns its DP prior over the stacked vectors.
//
// Labels are class indices 0..C-1 stored in Dataset's label vector (the
// binary convention of -1/+1 does NOT apply here; use the softmax-specific
// generators and metrics in this header).
//
// Wasserstein DRO: for the softmax cross-entropy l(W; x, y), the gradient in
// x is sum_c p_c W_c - W_y, whose L2 norm is bounded by
// max_{c != c'} ||W_c - W_c'||_2 (a convex function of W as a max of norms
// of linear maps). The robust objective therefore adds
// rho * max-pairwise-feature-norm — the exact multiclass analogue of the
// binary rho*||w|| regularizer (Shafieezadeh-Abadeh et al. 2018 give the
// matching duality result).
#pragma once

#include <cstddef>

#include "linalg/vector_ops.hpp"
#include "models/dataset.hpp"
#include "optim/objective.hpp"
#include "stats/rng.hpp"

namespace drel::models {

class SoftmaxModel {
 public:
    SoftmaxModel() = default;

    /// `stacked` is row-major C x dim; its size must be divisible by
    /// num_classes.
    SoftmaxModel(std::size_t num_classes, linalg::Vector stacked);

    std::size_t num_classes() const noexcept { return num_classes_; }
    std::size_t feature_dim() const noexcept {
        return num_classes_ == 0 ? 0 : stacked_.size() / num_classes_;
    }
    const linalg::Vector& stacked() const noexcept { return stacked_; }

    /// Logits W x.
    linalg::Vector logits(const linalg::Vector& x) const;

    /// softmax(W x).
    linalg::Vector probabilities(const linalg::Vector& x) const;

    /// argmax_c logits.
    std::size_t predict(const linalg::Vector& x) const;

    /// Cross-entropy of one example.
    double example_loss(const linalg::Vector& x, std::size_t label) const;

    /// max_{c != c'} || (W_c - W_c') restricted to first `perturbable` ||_2 —
    /// the Lipschitz modulus of the loss in the features.
    double pairwise_feature_norm(std::size_t perturbable) const;

 private:
    std::size_t num_classes_ = 0;
    linalg::Vector stacked_;
};

/// Average cross-entropy + (l2/2)||theta||^2 over a multiclass dataset,
/// as an optim::Objective over the stacked parameter vector.
class SoftmaxErmObjective : public optim::Objective {
 public:
    /// Labels in `data` must be integers in [0, num_classes).
    SoftmaxErmObjective(const Dataset& data, std::size_t num_classes, double l2 = 0.0);

    std::size_t dim() const override;
    double eval(const linalg::Vector& stacked, linalg::Vector* grad) const override;

    std::size_t num_classes() const noexcept { return num_classes_; }
    const Dataset& data() const noexcept { return *data_; }

 private:
    const Dataset* data_;
    std::size_t num_classes_;
    double l2_;
};

/// Wasserstein-robust multiclass objective:
///   ERM + rho * max_{c != c'} ||W_c - W_c'||_feat  (+ l2 ridge).
/// Convex; the max term contributes a subgradient.
class SoftmaxWassersteinObjective final : public SoftmaxErmObjective {
 public:
    SoftmaxWassersteinObjective(const Dataset& data, std::size_t num_classes, double rho,
                                double l2 = 0.0);

    double eval(const linalg::Vector& stacked, linalg::Vector* grad) const override;

    double rho() const noexcept { return rho_; }

 private:
    const Dataset* data_;
    std::size_t num_classes_;
    double rho_;
};

/// Classification accuracy with integer labels.
double softmax_accuracy(const SoftmaxModel& model, const Dataset& data);

/// Average cross-entropy on a dataset.
double softmax_log_loss(const SoftmaxModel& model, const Dataset& data);

}  // namespace drel::models
