// Component-posterior ensemble (extension).
//
// EM-DRO returns a point estimate, and when a device's handful of samples
// is consistent with two prior components the solver must pick one — the
// wrong-mode lock-ins visible in the fleet benches' lower tail. The
// ensemble learner hedges instead of picking:
//
//   1. For every prior component k, solve the convex per-component problem
//        theta_k = argmin R(theta) + w/2 * (theta-mu_k)' Sigma_k^{-1} (theta-mu_k)
//      (the M-step with responsibilities pinned to component k).
//   2. Weight each expert by the (tempered) evidence of its component:
//        v_k ∝ pi_k * exp(-n * R(theta_k)) * N(theta_k; mu_k, Sigma_k)^w'
//      computed in log space — components whose expert explains the local
//      data better get more say.
//   3. Predict with the weighted probability average (a mixture-of-experts
//      posterior predictive).
//
// Costs K convex solves instead of one EM run; on ambiguous devices the
// hedge buys accuracy, on clear devices it converges to the point estimate
// (one weight -> 1).
#pragma once

#include <vector>

#include "dp/mixture_prior.hpp"
#include "dro/ambiguity.hpp"
#include "models/dataset.hpp"
#include "models/linear_model.hpp"
#include "models/loss.hpp"

namespace drel::core {

struct EnsembleConfig {
    models::LossKind loss = models::LossKind::kLogistic;
    dro::AmbiguityKind ambiguity = dro::AmbiguityKind::kWasserstein;
    bool auto_radius = true;
    double radius_coefficient = 0.25;
    double radius = 0.0;
    double transfer_weight = 1.0;      ///< tau; per-component penalty weight tau/n
};

class EnsembleModel {
 public:
    EnsembleModel(std::vector<models::LinearModel> experts, linalg::Vector weights);

    std::size_t num_experts() const noexcept { return experts_.size(); }
    const linalg::Vector& weights() const noexcept { return weights_; }
    const models::LinearModel& expert(std::size_t k) const { return experts_.at(k); }

    /// Weighted-average probability of class +1.
    double predict_probability(const linalg::Vector& x) const;
    double predict_class(const linalg::Vector& x) const;

    /// Accuracy on a -1/+1 dataset using the averaged probabilities.
    double accuracy(const models::Dataset& data) const;

 private:
    std::vector<models::LinearModel> experts_;
    linalg::Vector weights_;
};

class EnsembleEdgeLearner {
 public:
    EnsembleEdgeLearner(dp::MixturePrior prior, EnsembleConfig config);

    const dp::MixturePrior& prior() const noexcept { return prior_; }

    EnsembleModel fit(const models::Dataset& local_data) const;

 private:
    dp::MixturePrior prior_;
    EnsembleConfig config_;
};

}  // namespace drel::core
