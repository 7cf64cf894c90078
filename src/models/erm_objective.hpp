// Empirical-risk objectives over a Dataset, exposed as optim::Objective.
//
// ErmObjective is both the `local-ERM` baseline's training objective and the
// smooth data-fit term inside every DRO/EM-DRO surrogate, so its gradient is
// the most heavily exercised code in the repository (and is validated against
// numerical differentiation in the tests).
#pragma once

#include <memory>

#include "models/dataset.hpp"
#include "models/loss.hpp"
#include "optim/objective.hpp"

namespace drel::models {

class ErmObjective final : public optim::Objective {
 public:
    /// f(w) = (1/n) sum_i phi_i(w) + (l2/2) ||w||^2.
    /// The dataset and loss are borrowed; both must outlive the objective.
    ErmObjective(const Dataset& data, const Loss& loss, double l2 = 0.0);

    std::size_t dim() const override { return data_->dim(); }
    double eval(const linalg::Vector& w, linalg::Vector* grad) const override;

    const Dataset& data() const noexcept { return *data_; }
    const Loss& loss() const noexcept { return *loss_; }
    double l2() const noexcept { return l2_; }

 private:
    const Dataset* data_;
    const Loss* loss_;
    double l2_;
};

/// Vector of per-example losses phi_i(w) — the DRO duals need the whole
/// loss profile, not just its mean.
linalg::Vector per_example_losses(const Dataset& data, const Loss& loss,
                                  const linalg::Vector& w);

/// Gradient of phi_i at w added into `grad` with coefficient `weight`.
void add_example_gradient(const Dataset& data, const Loss& loss, const linalg::Vector& w,
                          std::size_t i, double weight, linalg::Vector& grad);

}  // namespace drel::models
