// Baseline learners the paper's method is compared against.
//
// A Trainer maps a local dataset to a fitted LinearModel. The suite spans
// the two axes the paper combines — cloud knowledge (none / point / single
// Gaussian / DP mixture) and robustness (none / DRO) — so the benches can
// attribute gains to each ingredient:
//
//   local-erm       no cloud, no DRO          (the paper's main comparator:
//                                              "local edge data only")
//   ridge-erm       no cloud, L2 shrinkage
//   cloud-only      cloud point estimate, no local training
//   fine-tune       cloud init + budgeted local gradient steps
//   map-gaussian    single-Gaussian (moment-matched) MAP transfer
//   dro-only        ambiguity set, no cloud prior
//   em-dro          the full method (wraps core::EdgeLearner)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/edge_learner.hpp"
#include "dp/mixture_prior.hpp"
#include "dro/ambiguity.hpp"
#include "models/dataset.hpp"
#include "models/linear_model.hpp"
#include "models/loss.hpp"

namespace drel::baselines {

class Trainer {
 public:
    virtual ~Trainer() = default;
    virtual std::string name() const = 0;
    virtual models::LinearModel fit(const models::Dataset& data) const = 0;
};

/// Unregularized empirical risk minimization on local data.
std::unique_ptr<Trainer> make_local_erm(models::LossKind loss);

/// ERM + (c/n) * ||theta||^2 / 2.
std::unique_ptr<Trainer> make_ridge_erm(models::LossKind loss, double c = 1.0);

/// Returns the cloud prior's mean — zero local adaptation.
std::unique_ptr<Trainer> make_cloud_only(dp::MixturePrior prior);

/// Gradient descent from the cloud mean with a hard iteration budget; the
/// classic transfer recipe for when local compute is the binding constraint.
std::unique_ptr<Trainer> make_finetune(dp::MixturePrior prior, models::LossKind loss,
                                       int gradient_steps = 10);

/// MAP with the moment-matched single Gaussian of the cloud prior:
/// min ERM - (tau/n) log N(theta; m, S). What transfer looks like when the
/// cloud ignores device heterogeneity.
std::unique_ptr<Trainer> make_map_gaussian(dp::MixturePrior prior, models::LossKind loss,
                                           double transfer_weight = 1.0);

/// DRO with the given ambiguity family and the rho = c/sqrt(n) schedule,
/// but no cloud knowledge.
std::unique_ptr<Trainer> make_dro_only(models::LossKind loss, dro::AmbiguityKind kind,
                                       double radius_coefficient = 0.25);

/// The paper's method as a Trainer (wraps core::EdgeLearner).
std::unique_ptr<Trainer> make_em_dro(dp::MixturePrior prior,
                                     core::EdgeLearnerConfig config = {});

/// The standard comparison suite used by the benches, in reporting order.
std::vector<std::unique_ptr<Trainer>> make_standard_suite(const dp::MixturePrior& prior,
                                                          models::LossKind loss,
                                                          double radius_coefficient = 0.25,
                                                          double transfer_weight = 1.0);

}  // namespace drel::baselines
