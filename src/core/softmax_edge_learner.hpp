// Multiclass extension of the edge learner.
//
// Same pipeline as core::EdgeLearner, with the hypothesis class widened to a
// C-class softmax model: the transferred DP prior lives over the stacked
// C x dim weight vector, the robust data-fit term is the multiclass
// Wasserstein reformulation (models/softmax.hpp), and the EM-inspired outer
// loop is the generalized EmDroSolver.
#pragma once

#include "core/em_dro.hpp"
#include "dp/mixture_prior.hpp"
#include "models/dataset.hpp"
#include "models/softmax.hpp"

namespace drel::core {

struct SoftmaxEdgeLearnerConfig {
    std::size_t num_classes = 3;
    /// Ambiguity family: kWasserstein uses the max-pairwise-norm closed
    /// form; kKl/kChiSquare use the f-divergence duals; kNone is plain ERM.
    dro::AmbiguityKind ambiguity = dro::AmbiguityKind::kWasserstein;
    bool auto_radius = true;
    double radius_coefficient = 0.25;
    double radius = 0.0;            ///< used when auto_radius is false
    double transfer_weight = 1.0;   ///< tau; penalty weight is tau/n
    EmDroOptions em;
};

struct SoftmaxFitResult {
    models::SoftmaxModel model;
    double objective = 0.0;
    double chosen_radius = 0.0;
    EmDroTrace trace;
    linalg::Vector responsibilities;
    std::size_t map_component = 0;
};

class SoftmaxEdgeLearner {
 public:
    /// The prior's dimension must equal num_classes * (local data dim).
    SoftmaxEdgeLearner(dp::MixturePrior prior, SoftmaxEdgeLearnerConfig config);

    const SoftmaxEdgeLearnerConfig& config() const noexcept { return config_; }
    const dp::MixturePrior& prior() const noexcept { return prior_; }

    SoftmaxFitResult fit(const models::Dataset& local_data) const;

 private:
    dp::MixturePrior prior_;
    SoftmaxEdgeLearnerConfig config_;
};

}  // namespace drel::core
