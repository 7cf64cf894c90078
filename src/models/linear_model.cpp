#include "models/linear_model.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::models {
namespace {

double probability_of(double decision) noexcept {
    if (decision > 30.0) return 1.0;
    if (decision < -30.0) return 0.0;
    return 1.0 / (1.0 + std::exp(-decision));
}

}  // namespace

double LinearModel::decision_value(const linalg::Vector& x) const {
    return linalg::dot(weights_, x);
}

double LinearModel::predict_probability(const linalg::Vector& x) const {
    return probability_of(decision_value(x));
}

double LinearModel::predict_probability(const double* x) const noexcept {
    return probability_of(decision_value(x));
}

double LinearModel::example_loss(const Loss& loss, const linalg::Vector& x, double y) const {
    const double score = decision_value(x);
    return loss.is_margin_loss() ? loss.phi(y * score) : loss.phi(y - score);
}

double LinearModel::average_loss(const Loss& loss, const Dataset& data) const {
    if (data.empty()) throw std::invalid_argument("LinearModel::average_loss: empty dataset");
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        acc += example_loss(loss, data.feature_row(i), data.label(i));
    }
    return acc / static_cast<double>(data.size());
}

double LinearModel::adversarial_example_loss(const Loss& loss, const linalg::Vector& x,
                                             double y, double epsilon) const {
    if (!(epsilon >= 0.0)) {
        throw std::invalid_argument("adversarial_example_loss: epsilon must be >= 0");
    }
    // Library convention: the trailing feature is the constant bias, which
    // an adversary cannot perturb — only the feature weights count.
    double wnorm_sq = 0.0;
    for (std::size_t i = 0; i + 1 < weights_.size(); ++i) wnorm_sq += weights_[i] * weights_[i];
    const double wnorm = std::sqrt(wnorm_sq);
    const double score = decision_value(x);
    if (loss.is_margin_loss()) {
        // Adversary minimizes the margin: worst shift is -epsilon*||w||.
        return loss.phi(y * score - epsilon * wnorm);
    }
    // Adversary maximizes |residual|: pushes the residual away from zero.
    const double r = y - score;
    const double worst = (r >= 0.0) ? r + epsilon * wnorm : r - epsilon * wnorm;
    return loss.phi(worst);
}

double LinearModel::average_adversarial_loss(const Loss& loss, const Dataset& data,
                                             double epsilon) const {
    if (data.empty()) {
        throw std::invalid_argument("LinearModel::average_adversarial_loss: empty dataset");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        acc += adversarial_example_loss(loss, data.feature_row(i), data.label(i), epsilon);
    }
    return acc / static_cast<double>(data.size());
}

}  // namespace drel::models
