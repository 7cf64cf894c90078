#include "core/ensemble.hpp"

#include <cmath>
#include <stdexcept>

#include "dro/robust_objective.hpp"
#include "optim/lbfgs.hpp"

namespace drel::core {
namespace {

/// Evidence temperature: expert weights use exp(-kEvidenceScale * n * R).
constexpr double kEvidenceScale = 1.0;

/// R(theta) + (w/2) * Mahalanobis^2 to one prior atom — convex.
class ComponentObjective final : public optim::Objective {
 public:
    ComponentObjective(const optim::Objective& robust, const stats::MultivariateNormal& atom,
                       double weight)
        : robust_(robust), atom_(atom), weight_(weight) {}

    std::size_t dim() const override { return robust_.dim(); }

    double eval(const linalg::Vector& theta, linalg::Vector* grad) const override {
        double value = robust_.eval(theta, grad) + 0.5 * weight_ * atom_.mahalanobis_sq(theta);
        if (grad) linalg::axpy(weight_, atom_.precision_times_residual(theta), *grad);
        return value;
    }

 private:
    const optim::Objective& robust_;
    const stats::MultivariateNormal& atom_;
    double weight_;
};

}  // namespace

EnsembleModel::EnsembleModel(std::vector<models::LinearModel> experts, linalg::Vector weights)
    : experts_(std::move(experts)), weights_(std::move(weights)) {
    if (experts_.empty()) throw std::invalid_argument("EnsembleModel: no experts");
    if (experts_.size() != weights_.size()) {
        throw std::invalid_argument("EnsembleModel: experts/weights size mismatch");
    }
    double total = 0.0;
    for (const double w : weights_) {
        if (!(w >= 0.0)) throw std::invalid_argument("EnsembleModel: negative weight");
        total += w;
    }
    if (!(total > 0.0)) throw std::invalid_argument("EnsembleModel: all-zero weights");
    for (double& w : weights_) w /= total;
}

double EnsembleModel::predict_probability(const linalg::Vector& x) const {
    double acc = 0.0;
    for (std::size_t k = 0; k < experts_.size(); ++k) {
        if (weights_[k] == 0.0) continue;
        acc += weights_[k] * experts_[k].predict_probability(x);
    }
    return acc;
}

double EnsembleModel::predict_class(const linalg::Vector& x) const {
    return predict_probability(x) >= 0.5 ? 1.0 : -1.0;
}

double EnsembleModel::accuracy(const models::Dataset& data) const {
    if (data.empty()) throw std::invalid_argument("EnsembleModel::accuracy: empty dataset");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (predict_class(data.feature_row(i)) * data.label(i) > 0.0) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

EnsembleEdgeLearner::EnsembleEdgeLearner(dp::MixturePrior prior, EnsembleConfig config)
    : prior_(std::move(prior)), config_(std::move(config)) {
    if (!(config_.transfer_weight >= 0.0)) {
        throw std::invalid_argument("EnsembleEdgeLearner: transfer_weight must be >= 0");
    }
}

EnsembleModel EnsembleEdgeLearner::fit(const models::Dataset& local_data) const {
    if (local_data.empty()) {
        throw std::invalid_argument("EnsembleEdgeLearner::fit: empty dataset");
    }
    if (local_data.dim() != prior_.dim()) {
        throw std::invalid_argument("EnsembleEdgeLearner::fit: dimension mismatch");
    }
    const auto loss = models::make_loss(config_.loss);
    dro::AmbiguitySet set{config_.ambiguity, config_.radius};
    if (config_.auto_radius && set.kind != dro::AmbiguityKind::kNone) {
        set.radius = dro::radius_for_sample_size(config_.radius_coefficient,
                                                 local_data.size());
    }
    const auto robust = dro::make_robust_objective(local_data, *loss, set);
    const double n = static_cast<double>(local_data.size());
    const double weight = config_.transfer_weight / n;

    optim::LbfgsOptions solver_options;
    solver_options.stopping.max_iterations = 300;

    std::vector<models::LinearModel> experts;
    linalg::Vector log_evidence(prior_.num_components());
    for (std::size_t k = 0; k < prior_.num_components(); ++k) {
        const ComponentObjective objective(*robust, prior_.atom(k), weight);
        const auto r = optim::minimize_lbfgs(objective, prior_.atom(k).mean(), solver_options);
        // Tempered evidence: prior mass x data fit x prior plausibility of
        // the fitted expert under its own component (weighted like the
        // training penalty).
        log_evidence[k] = std::log(prior_.weights()[k]) -
                          kEvidenceScale * n * robust->value(r.x) +
                          weight * prior_.atom(k).log_pdf(r.x);
        experts.emplace_back(r.x);
    }
    linalg::softmax_inplace(log_evidence);
    return EnsembleModel(std::move(experts), std::move(log_evidence));
}

}  // namespace drel::core
