#include "core/softmax_edge_learner.hpp"

#include <stdexcept>

#include "dro/ambiguity.hpp"
#include "dro/softmax_dro.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::core {

SoftmaxEdgeLearner::SoftmaxEdgeLearner(dp::MixturePrior prior, SoftmaxEdgeLearnerConfig config)
    : prior_(std::move(prior)), config_(std::move(config)) {
    if (config_.num_classes < 2) {
        throw std::invalid_argument("SoftmaxEdgeLearner: need >= 2 classes");
    }
    if (!(config_.transfer_weight >= 0.0)) {
        throw std::invalid_argument("SoftmaxEdgeLearner: transfer_weight must be >= 0");
    }
    if (prior_.dim() % config_.num_classes != 0) {
        throw std::invalid_argument(
            "SoftmaxEdgeLearner: prior dim must be num_classes * feature dim");
    }
}

SoftmaxFitResult SoftmaxEdgeLearner::fit(const models::Dataset& local_data) const {
    if (local_data.empty()) {
        throw std::invalid_argument("SoftmaxEdgeLearner::fit: empty dataset");
    }
    if (prior_.dim() != config_.num_classes * local_data.dim()) {
        throw std::invalid_argument(
            "SoftmaxEdgeLearner::fit: prior dim != num_classes * data dim");
    }
    const double rho =
        config_.auto_radius
            ? dro::radius_for_sample_size(config_.radius_coefficient, local_data.size())
            : config_.radius;
    const auto robust = dro::make_softmax_robust_objective(
        local_data, config_.num_classes, dro::AmbiguitySet{config_.ambiguity, rho});
    const double penalty =
        config_.transfer_weight / static_cast<double>(local_data.size());
    const EmDroSolver solver(*robust, prior_, penalty, config_.em);
    EmDroResult em = solver.solve();

    SoftmaxFitResult result;
    result.model = models::SoftmaxModel(config_.num_classes, std::move(em.theta));
    result.objective = em.objective;
    result.chosen_radius = rho;
    result.trace = std::move(em.trace);
    result.responsibilities = std::move(em.final_responsibilities);
    result.map_component = linalg::argmax(result.responsibilities);
    return result;
}

}  // namespace drel::core
