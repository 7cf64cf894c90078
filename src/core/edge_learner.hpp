// EdgeLearner — the library's primary public API.
//
// One object = one edge device's learning stack: it holds the prior
// transferred from the cloud plus a configuration, and fit() runs the full
// paper pipeline on a local dataset:
//
//   1. (optionally) set the ambiguity radius by the rho = c/sqrt(n) schedule;
//   2. build the dual single-layer DRO objective;
//   3. run the EM-inspired convex relaxation (core/em_dro.hpp);
//   4. return the fitted linear model plus a diagnostics report.
//
// Quickstart:
//   auto prior = /* cloud: DpmmGibbs(...).extract_prior() */;
//   core::EdgeLearner learner(prior, {});
//   core::FitResult fit = learner.fit(local_data);
//   double yhat = fit.model.predict_class(x.data());  // x: a feature row
#pragma once

#include <string>

#include "core/em_dro.hpp"
#include "dp/mixture_prior.hpp"
#include "dro/ambiguity.hpp"
#include "models/dataset.hpp"
#include "models/linear_model.hpp"
#include "models/loss.hpp"

namespace drel::core {

struct EdgeLearnerConfig {
    models::LossKind loss = models::LossKind::kLogistic;

    /// Ambiguity-set family. When `auto_radius` is set, `ambiguity.radius`
    /// is ignored and rho = radius_coefficient / sqrt(n) is used instead.
    dro::AmbiguitySet ambiguity = dro::AmbiguitySet::wasserstein(0.0);
    bool auto_radius = true;
    double radius_coefficient = 0.25;

    /// tau — strength of the cloud-prior constraint. The effective penalty
    /// weight is tau/n, so transfer fades as local data grows.
    double transfer_weight = 1.0;

    EmDroOptions em;
};

struct FitResult {
    models::LinearModel model;
    double objective = 0.0;               ///< final F(theta)
    double chosen_radius = 0.0;           ///< rho actually used
    EmDroTrace trace;
    linalg::Vector responsibilities;      ///< prior-component posterior at theta*
    std::size_t map_component = 0;        ///< argmax responsibility
    /// The solve hit a non-finite state (see EmDroResult::hit_non_finite) or
    /// the returned parameters are not finite. The model may be unusable;
    /// the simulators fall back to local-only ERM and report the device as
    /// degraded instead of trusting it.
    bool degraded = false;
};

class EdgeLearner {
 public:
    /// The prior is copied in: an EdgeLearner owns its knowledge and remains
    /// valid after the transfer buffer is gone.
    EdgeLearner(dp::MixturePrior prior, EdgeLearnerConfig config);

    const EdgeLearnerConfig& config() const noexcept { return config_; }
    const dp::MixturePrior& prior() const noexcept { return prior_; }

    /// Trains on `local_data` (bias column last, matching the prior's dim).
    FitResult fit(const models::Dataset& local_data) const;

    /// The ambiguity set that fit() would use for a dataset of size n.
    dro::AmbiguitySet effective_ambiguity(std::size_t n) const;

 private:
    dp::MixturePrior prior_;
    EdgeLearnerConfig config_;
};

}  // namespace drel::core
