#include "models/erm_objective.hpp"

#include <stdexcept>

namespace drel::models {

ErmObjective::ErmObjective(const Dataset& data, const Loss& loss, double l2)
    : data_(&data), loss_(&loss), l2_(l2) {
    if (data.empty()) throw std::invalid_argument("ErmObjective: empty dataset");
    if (l2 < 0.0) throw std::invalid_argument("ErmObjective: l2 must be >= 0");
}

double ErmObjective::eval(const linalg::Vector& w, linalg::Vector* grad) const {
    if (w.size() != dim()) throw std::invalid_argument("ErmObjective: dimension mismatch");
    if (grad) grad->assign(dim(), 0.0);

    const std::size_t n = data_->size();
    const std::size_t d = dim();
    const double qi = 1.0 / static_cast<double>(n);
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double* xi = data_->feature_row_data(i);
        const double yi = data_->label(i);
        const double score = linalg::dot_n(w.data(), xi, d);
        if (loss_->is_margin_loss()) {
            const double z = yi * score;
            value += qi * loss_->phi(z);
            if (grad) {
                const double coeff = qi * loss_->dphi(z) * yi;
                linalg::axpy_n(coeff, xi, grad->data(), d);
            }
        } else {
            const double r = yi - score;
            value += qi * loss_->phi(r);
            if (grad) {
                const double coeff = -qi * loss_->dphi(r);
                linalg::axpy_n(coeff, xi, grad->data(), d);
            }
        }
    }
    if (l2_ > 0.0) {
        value += 0.5 * l2_ * linalg::dot(w, w);
        if (grad) linalg::axpy(l2_, w, *grad);
    }
    return value;
}

linalg::Vector per_example_losses(const Dataset& data, const Loss& loss,
                                  const linalg::Vector& w) {
    if (w.size() != data.dim()) {
        throw std::invalid_argument("per_example_losses: dimension mismatch");
    }
    linalg::Vector out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double score = linalg::dot_n(w.data(), data.feature_row_data(i), w.size());
        out[i] = loss.is_margin_loss() ? loss.phi(data.label(i) * score)
                                       : loss.phi(data.label(i) - score);
    }
    return out;
}

void add_example_gradient(const Dataset& data, const Loss& loss, const linalg::Vector& w,
                          std::size_t i, double weight, linalg::Vector& grad) {
    if (i >= data.size()) throw std::out_of_range("add_example_gradient: index out of range");
    if (grad.size() != w.size() || w.size() != data.dim()) {
        throw std::invalid_argument("add_example_gradient: dimension mismatch");
    }
    const double* xi = data.feature_row_data(i);
    const double yi = data.label(i);
    const std::size_t d = w.size();
    const double score = linalg::dot_n(w.data(), xi, d);
    if (loss.is_margin_loss()) {
        linalg::axpy_n(weight * loss.dphi(yi * score) * yi, xi, grad.data(), d);
    } else {
        linalg::axpy_n(-weight * loss.dphi(yi - score), xi, grad.data(), d);
    }
}

}  // namespace drel::models
