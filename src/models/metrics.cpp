#include "models/metrics.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace drel::models {
namespace {

/// Every metric scores the dataset's rows in place, so the model's
/// dimension is checked once here rather than by a dot per example.
void check_inputs(const LinearModel& model, const Dataset& data, const char* what) {
    if (data.empty()) throw std::invalid_argument(std::string(what) + ": empty dataset");
    if (model.dim() != data.dim()) {
        throw std::invalid_argument(std::string(what) + ": model dimension " +
                                    std::to_string(model.dim()) + " != data dimension " +
                                    std::to_string(data.dim()));
    }
}

}  // namespace

double accuracy(const LinearModel& model, const Dataset& data) {
    check_inputs(model, data, "accuracy");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (model.predict_class(data.feature_row_data(i)) * data.label(i) > 0.0) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

double log_loss(const LinearModel& model, const Dataset& data) {
    check_inputs(model, data, "log_loss");
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double z = data.label(i) * model.decision_value(data.feature_row_data(i));
        acc += (z < -30.0) ? -z : std::log1p(std::exp(-z));
    }
    return acc / static_cast<double>(data.size());
}

double mse(const LinearModel& model, const Dataset& data) {
    check_inputs(model, data, "mse");
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double r = data.label(i) - model.decision_value(data.feature_row_data(i));
        acc += r * r;
    }
    return acc / static_cast<double>(data.size());
}

double adversarial_accuracy(const LinearModel& model, const Dataset& data, double epsilon) {
    check_inputs(model, data, "adversarial_accuracy");
    if (!(epsilon >= 0.0)) {
        throw std::invalid_argument("adversarial_accuracy: epsilon must be >= 0");
    }
    // Feature-only norm: the trailing bias coordinate is not perturbable
    // (library convention, matching dro::feature_norm).
    double wnorm_sq = 0.0;
    const linalg::Vector& w = model.weights();
    for (std::size_t i = 0; i + 1 < w.size(); ++i) wnorm_sq += w[i] * w[i];
    const double wnorm = std::sqrt(wnorm_sq);
    std::size_t robust = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        // The adversary pushes the decision value toward misclassifying
        // example i by up to epsilon*||w_feat||. Apply the same tie rule as
        // predict_class (decision >= 0 -> +1), so a constant classifier
        // (w_feat = 0) is exactly as robust as it is accurate.
        const double decision = model.decision_value(data.feature_row_data(i));
        const bool survives = data.label(i) > 0.0 ? decision - epsilon * wnorm >= 0.0
                                                  : decision + epsilon * wnorm < 0.0;
        if (survives) ++robust;
    }
    return static_cast<double>(robust) / static_cast<double>(data.size());
}

double brier_score(const LinearModel& model, const Dataset& data) {
    check_inputs(model, data, "brier_score");
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double p = model.predict_probability(data.feature_row_data(i));
        const double target = data.label(i) > 0.0 ? 1.0 : 0.0;
        acc += (p - target) * (p - target);
    }
    return acc / static_cast<double>(data.size());
}

ClassErrors per_class_errors(const LinearModel& model, const Dataset& data) {
    check_inputs(model, data, "per_class_errors");
    std::size_t pos_total = 0;
    std::size_t pos_wrong = 0;
    std::size_t neg_total = 0;
    std::size_t neg_wrong = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const bool is_positive = data.label(i) > 0.0;
        const bool wrong = model.predict_class(data.feature_row_data(i)) * data.label(i) <= 0.0;
        if (is_positive) {
            ++pos_total;
            if (wrong) ++pos_wrong;
        } else {
            ++neg_total;
            if (wrong) ++neg_wrong;
        }
    }
    ClassErrors errors{0.0, 0.0};
    if (pos_total > 0) {
        errors.positive = static_cast<double>(pos_wrong) / static_cast<double>(pos_total);
    }
    if (neg_total > 0) {
        errors.negative = static_cast<double>(neg_wrong) / static_cast<double>(neg_total);
    }
    return errors;
}

}  // namespace drel::models
