#include "dp/mixture_prior.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"

namespace drel::dp {
namespace {

// The three prior evaluations the EM hot loop leans on; counts are
// deterministic (one per call, calls derive from deterministic solves).
obs::Counter& log_pdf_evals() {
    static obs::Counter& c = obs::Registry::global().counter("dp.log_pdf_evals");
    return c;
}
obs::Counter& responsibility_evals() {
    static obs::Counter& c = obs::Registry::global().counter("dp.responsibility_evals");
    return c;
}
obs::Counter& em_surrogate_evals() {
    static obs::Counter& c = obs::Registry::global().counter("dp.em_surrogate_evals");
    return c;
}

}  // namespace

MixturePrior::MixturePrior(linalg::Vector weights, std::vector<stats::MultivariateNormal> atoms)
    : weights_(std::move(weights)), atoms_(std::move(atoms)) {
    if (atoms_.empty()) throw std::invalid_argument("MixturePrior: no atoms");
    if (weights_.size() != atoms_.size()) {
        throw std::invalid_argument("MixturePrior: weights/atoms count mismatch");
    }
    double total = 0.0;
    for (const double w : weights_) {
        if (!(w > 0.0)) throw std::invalid_argument("MixturePrior: weights must be positive");
        total += w;
    }
    log_weights_.resize(weights_.size());
    for (std::size_t k = 0; k < weights_.size(); ++k) {
        weights_[k] /= total;
        log_weights_[k] = std::log(weights_[k]);
    }
    const std::size_t d = atoms_.front().dim();
    for (const auto& a : atoms_) {
        if (a.dim() != d) throw std::invalid_argument("MixturePrior: atom dimension mismatch");
    }
}

MixturePrior MixturePrior::single(stats::MultivariateNormal atom) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(std::move(atom));
    return MixturePrior(linalg::Vector{1.0}, std::move(atoms));
}

double MixturePrior::log_pdf(const linalg::Vector& theta) const {
    return log_pdf_ws(theta, util::Workspace::local());
}

double MixturePrior::log_pdf_ws(const linalg::Vector& theta, util::Workspace& ws) const {
    log_pdf_evals().add(1);
    auto log_terms = ws.vec(num_components());
    for (std::size_t k = 0; k < num_components(); ++k) {
        (*log_terms)[k] = log_weights_[k] + atoms_[k].log_pdf_ws(theta, ws);
    }
    return linalg::log_sum_exp(*log_terms);
}

linalg::Vector MixturePrior::responsibilities(const linalg::Vector& theta) const {
    linalg::Vector out;
    responsibilities_into(theta, out, util::Workspace::local());
    return out;
}

void MixturePrior::responsibilities_into(const linalg::Vector& theta, linalg::Vector& out,
                                         util::Workspace& ws) const {
    responsibility_evals().add(1);
    out.resize(num_components());
    for (std::size_t k = 0; k < num_components(); ++k) {
        out[k] = log_weights_[k] + atoms_[k].log_pdf_ws(theta, ws);
    }
    linalg::softmax_inplace(out);
}

linalg::Vector MixturePrior::log_pdf_gradient(const linalg::Vector& theta) const {
    const linalg::Vector r = responsibilities(theta);
    return em_surrogate_gradient(theta, r);
}

double MixturePrior::em_surrogate(const linalg::Vector& theta, const linalg::Vector& r) const {
    return em_surrogate_ws(theta, r, util::Workspace::local());
}

double MixturePrior::em_surrogate_ws(const linalg::Vector& theta, const linalg::Vector& r,
                                     util::Workspace& ws) const {
    em_surrogate_evals().add(1);
    if (r.size() != num_components()) {
        throw std::invalid_argument("MixturePrior::em_surrogate: responsibility size mismatch");
    }
    double acc = 0.0;
    for (std::size_t k = 0; k < num_components(); ++k) {
        if (r[k] == 0.0) continue;
        acc += r[k] * (log_weights_[k] + atoms_[k].log_pdf_ws(theta, ws));
    }
    return acc;
}

linalg::Vector MixturePrior::em_surrogate_gradient(const linalg::Vector& theta,
                                                   const linalg::Vector& r) const {
    linalg::Vector grad;
    em_surrogate_gradient_into(theta, r, grad, util::Workspace::local());
    return grad;
}

void MixturePrior::em_surrogate_gradient_into(const linalg::Vector& theta,
                                              const linalg::Vector& r, linalg::Vector& grad,
                                              util::Workspace& ws) const {
    if (r.size() != num_components()) {
        throw std::invalid_argument(
            "MixturePrior::em_surrogate_gradient: responsibility size mismatch");
    }
    grad.assign(dim(), 0.0);
    for (std::size_t k = 0; k < num_components(); ++k) {
        if (r[k] == 0.0) continue;
        // d/dtheta log N = -Sigma^{-1}(theta - mu)
        atoms_[k].add_scaled_precision_residual(theta, -r[k], grad, ws);
    }
}

double MixturePrior::em_surrogate_and_gradient_into(const linalg::Vector& theta,
                                                    const linalg::Vector& r,
                                                    linalg::Vector& grad,
                                                    util::Workspace& ws) const {
    em_surrogate_evals().add(1);
    if (r.size() != num_components()) {
        throw std::invalid_argument(
            "MixturePrior::em_surrogate_and_gradient: responsibility size mismatch");
    }
    double acc = 0.0;
    grad.assign(dim(), 0.0);
    for (std::size_t k = 0; k < num_components(); ++k) {
        if (r[k] == 0.0) continue;
        const double log_density =
            atoms_[k].log_pdf_and_add_scaled_precision_residual(theta, -r[k], grad, ws);
        acc += r[k] * (log_weights_[k] + log_density);
    }
    return acc;
}

linalg::Vector MixturePrior::mean() const {
    linalg::Vector m = linalg::zeros(dim());
    for (std::size_t k = 0; k < num_components(); ++k) {
        linalg::axpy(weights_[k], atoms_[k].mean(), m);
    }
    return m;
}

linalg::Vector MixturePrior::sample(stats::Rng& rng) const {
    const std::size_t k = rng.categorical(weights_);
    return atoms_[k].sample(rng);
}

std::size_t MixturePrior::map_component(const linalg::Vector& theta) const {
    return linalg::argmax(responsibilities(theta));
}

stats::MultivariateNormal MixturePrior::moment_matched_gaussian() const {
    const linalg::Vector m = mean();
    linalg::Matrix cov(dim(), dim());
    for (std::size_t k = 0; k < num_components(); ++k) {
        cov += weights_[k] * atoms_[k].covariance();
        cov.add_outer(weights_[k], linalg::sub(atoms_[k].mean(), m));
    }
    return stats::MultivariateNormal(m, std::move(cov));
}

}  // namespace drel::dp
