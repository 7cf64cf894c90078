#include "models/softmax.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::models {
namespace {

std::size_t checked_label(double raw, std::size_t num_classes) {
    const double rounded = std::nearbyint(raw);
    if (rounded < 0.0 || rounded >= static_cast<double>(num_classes) ||
        std::fabs(raw - rounded) > 1e-9) {
        throw std::invalid_argument("softmax: labels must be integers in [0, num_classes)");
    }
    return static_cast<std::size_t>(rounded);
}

}  // namespace

SoftmaxModel::SoftmaxModel(std::size_t num_classes, linalg::Vector stacked)
    : num_classes_(num_classes), stacked_(std::move(stacked)) {
    if (num_classes_ < 2) throw std::invalid_argument("SoftmaxModel: need >= 2 classes");
    if (stacked_.empty() || stacked_.size() % num_classes_ != 0) {
        throw std::invalid_argument("SoftmaxModel: stacked size must be C * dim");
    }
}

linalg::Vector SoftmaxModel::logits(const linalg::Vector& x) const {
    const std::size_t d = feature_dim();
    if (x.size() != d) throw std::invalid_argument("SoftmaxModel::logits: dimension mismatch");
    linalg::Vector out(num_classes_, 0.0);
    for (std::size_t c = 0; c < num_classes_; ++c) {
        const double* row = stacked_.data() + c * d;
        double acc = 0.0;
        for (std::size_t i = 0; i < d; ++i) acc += row[i] * x[i];
        out[c] = acc;
    }
    return out;
}

linalg::Vector SoftmaxModel::probabilities(const linalg::Vector& x) const {
    linalg::Vector p = logits(x);
    linalg::softmax_inplace(p);
    return p;
}

std::size_t SoftmaxModel::predict(const linalg::Vector& x) const {
    return linalg::argmax(logits(x));
}

double SoftmaxModel::example_loss(const linalg::Vector& x, std::size_t label) const {
    if (label >= num_classes_) throw std::out_of_range("SoftmaxModel::example_loss: label");
    const linalg::Vector z = logits(x);
    return linalg::log_sum_exp(z) - z[label];
}

double SoftmaxModel::pairwise_feature_norm(std::size_t perturbable) const {
    const std::size_t d = feature_dim();
    if (perturbable > d) {
        throw std::invalid_argument("SoftmaxModel::pairwise_feature_norm: bad perturbable");
    }
    double best = 0.0;
    for (std::size_t a = 0; a < num_classes_; ++a) {
        for (std::size_t b = a + 1; b < num_classes_; ++b) {
            double acc = 0.0;
            const double* ra = stacked_.data() + a * d;
            const double* rb = stacked_.data() + b * d;
            for (std::size_t i = 0; i < perturbable; ++i) {
                const double diff = ra[i] - rb[i];
                acc += diff * diff;
            }
            best = std::max(best, acc);
        }
    }
    return std::sqrt(best);
}

SoftmaxErmObjective::SoftmaxErmObjective(const Dataset& data, std::size_t num_classes,
                                         double l2)
    : data_(&data), num_classes_(num_classes), l2_(l2) {
    if (data.empty()) throw std::invalid_argument("SoftmaxErmObjective: empty dataset");
    if (num_classes < 2) throw std::invalid_argument("SoftmaxErmObjective: need >= 2 classes");
    if (l2 < 0.0) throw std::invalid_argument("SoftmaxErmObjective: l2 must be >= 0");
    // Validate labels eagerly so errors point at the dataset, not training.
    for (std::size_t i = 0; i < data.size(); ++i) (void)checked_label(data.label(i), num_classes);
}

std::size_t SoftmaxErmObjective::dim() const { return num_classes_ * data_->dim(); }

double SoftmaxErmObjective::eval(const linalg::Vector& stacked, linalg::Vector* grad) const {
    if (stacked.size() != dim()) {
        throw std::invalid_argument("SoftmaxErmObjective: dimension mismatch");
    }
    const std::size_t n = data_->size();
    const std::size_t d = data_->dim();
    if (grad) *grad = linalg::zeros(dim());

    double value = 0.0;
    const double inv_n = 1.0 / static_cast<double>(n);
    linalg::Vector z(num_classes_);
    for (std::size_t i = 0; i < n; ++i) {
        const linalg::Vector xi = data_->feature_row(i);
        const std::size_t yi = checked_label(data_->label(i), num_classes_);
        for (std::size_t c = 0; c < num_classes_; ++c) {
            const double* row = stacked.data() + c * d;
            double acc = 0.0;
            for (std::size_t k = 0; k < d; ++k) acc += row[k] * xi[k];
            z[c] = acc;
        }
        const double lse = linalg::log_sum_exp(z);
        value += inv_n * (lse - z[yi]);
        if (grad) {
            for (std::size_t c = 0; c < num_classes_; ++c) {
                const double p = std::exp(z[c] - lse);
                const double coeff = inv_n * (p - (c == yi ? 1.0 : 0.0));
                if (coeff == 0.0) continue;
                double* grow = grad->data() + c * d;
                for (std::size_t k = 0; k < d; ++k) grow[k] += coeff * xi[k];
            }
        }
    }
    if (l2_ > 0.0) {
        value += 0.5 * l2_ * linalg::dot(stacked, stacked);
        if (grad) linalg::axpy(l2_, stacked, *grad);
    }
    return value;
}

SoftmaxWassersteinObjective::SoftmaxWassersteinObjective(const Dataset& data,
                                                         std::size_t num_classes, double rho,
                                                         double l2)
    : SoftmaxErmObjective(data, num_classes, l2),
      data_(&data),
      num_classes_(num_classes),
      rho_(rho) {
    if (!(rho >= 0.0)) {
        throw std::invalid_argument("SoftmaxWassersteinObjective: rho must be >= 0");
    }
}

double SoftmaxWassersteinObjective::eval(const linalg::Vector& stacked,
                                         linalg::Vector* grad) const {
    double value = SoftmaxErmObjective::eval(stacked, grad);
    if (rho_ == 0.0) return value;

    // rho * max_{a<b} || (W_a - W_b)_feat ||_2 with a subgradient on the
    // attaining pair.
    const std::size_t d = data_->dim();
    // Library convention: the trailing bias column cannot be transported.
    const std::size_t perturbable = d == 0 ? 0 : d - 1;
    double best = -1.0;
    std::size_t best_a = 0;
    std::size_t best_b = 1;
    for (std::size_t a = 0; a < num_classes_; ++a) {
        for (std::size_t b = a + 1; b < num_classes_; ++b) {
            double acc = 0.0;
            const double* ra = stacked.data() + a * d;
            const double* rb = stacked.data() + b * d;
            for (std::size_t k = 0; k < perturbable; ++k) {
                const double diff = ra[k] - rb[k];
                acc += diff * diff;
            }
            if (acc > best) {
                best = acc;
                best_a = a;
                best_b = b;
            }
        }
    }
    const double norm = std::sqrt(std::max(0.0, best));
    value += rho_ * norm;
    if (grad && norm > 1e-15) {
        const double* ra = stacked.data() + best_a * d;
        const double* rb = stacked.data() + best_b * d;
        double* ga = grad->data() + best_a * d;
        double* gb = grad->data() + best_b * d;
        for (std::size_t k = 0; k < perturbable; ++k) {
            const double coeff = rho_ * (ra[k] - rb[k]) / norm;
            ga[k] += coeff;
            gb[k] -= coeff;
        }
    }
    return value;
}

double softmax_accuracy(const SoftmaxModel& model, const Dataset& data) {
    if (data.empty()) throw std::invalid_argument("softmax_accuracy: empty dataset");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (model.predict(data.feature_row(i)) ==
            checked_label(data.label(i), model.num_classes())) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

double softmax_log_loss(const SoftmaxModel& model, const Dataset& data) {
    if (data.empty()) throw std::invalid_argument("softmax_log_loss: empty dataset");
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        acc += model.example_loss(data.feature_row(i),
                                  checked_label(data.label(i), model.num_classes()));
    }
    return acc / static_cast<double>(data.size());
}

}  // namespace drel::models
