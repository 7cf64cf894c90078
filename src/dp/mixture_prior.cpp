#include "dp/mixture_prior.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
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

/// grad += coeff * solved, reading the lane-strided solve of one atom: the
/// elementwise mul-then-add of axpy_n, so the bits of
/// axpy(coeff, MultivariateNormal::precision_times_residual(x), grad).
void add_scaled_lane(double coeff, const double* solved, linalg::Vector& grad) {
    for (std::size_t c = 0; c < grad.size(); ++c) {
        grad[c] += coeff * solved[c * linalg::simd::kAtomLanes];
    }
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
    const std::size_t lanes = linalg::simd::kAtomLanes;
    const std::size_t groups = (atoms_.size() + lanes - 1) / lanes;
    packed_atoms_.assign(groups * linalg::simd::atom_group_size(d), 0.0);
    const linalg::Matrix identity = linalg::Matrix::identity(d);
    const linalg::Vector origin = linalg::zeros(d);
    for (std::size_t k = 0; k < groups * lanes; ++k) {
        const bool real = k < atoms_.size();
        const linalg::Matrix& lower = real ? atoms_[k].chol().lower() : identity;
        const linalg::Vector& mean = real ? atoms_[k].mean() : origin;
        linalg::simd::pack_atom_lane(lower.data().data(), mean.data(), d, k % lanes,
                                     packed_atoms_.data() +
                                         k / lanes * linalg::simd::atom_group_size(d));
    }
}

template <class Visit>
void MixturePrior::solve_atoms(const linalg::Vector& theta, bool back_substitute,
                               util::Workspace& ws, Visit&& visit) const {
    const std::size_t d = dim();
    if (theta.size() != d) {
        throw std::invalid_argument("MixturePrior: theta dimension mismatch");
    }
    const std::size_t lanes = linalg::simd::kAtomLanes;
    const linalg::simd::Kernels& kernels = linalg::simd::active();
    auto z = ws.vec(d * lanes);
    double quad[linalg::simd::kAtomLanes];
    const double* group = packed_atoms_.data();
    for (std::size_t first = 0; first < num_components(); first += lanes) {
        kernels.atom_group_solve(group, theta.data(), d, back_substitute, z.data(), quad);
        group += linalg::simd::atom_group_size(d);
        const std::size_t count = std::min(lanes, num_components() - first);
        for (std::size_t j = 0; j < count; ++j) visit(first + j, quad[j], z.data() + j);
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
    solve_atoms(theta, false, ws, [&](std::size_t k, double quad, const double*) {
        (*log_terms)[k] = log_weights_[k] + atoms_[k].log_pdf_from_mahalanobis_sq(quad);
    });
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
    solve_atoms(theta, false, ws, [&](std::size_t k, double quad, const double*) {
        out[k] = log_weights_[k] + atoms_[k].log_pdf_from_mahalanobis_sq(quad);
    });
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
    solve_atoms(theta, false, ws, [&](std::size_t k, double quad, const double*) {
        if (r[k] == 0.0) return;
        acc += r[k] * (log_weights_[k] + atoms_[k].log_pdf_from_mahalanobis_sq(quad));
    });
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
    // d/dtheta log N = -Sigma^{-1}(theta - mu)
    solve_atoms(theta, true, ws, [&](std::size_t k, double, const double* solved) {
        if (r[k] == 0.0) return;
        add_scaled_lane(-r[k], solved, grad);
    });
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
    solve_atoms(theta, true, ws, [&](std::size_t k, double quad, const double* solved) {
        if (r[k] == 0.0) return;
        add_scaled_lane(-r[k], solved, grad);
        acc += r[k] * (log_weights_[k] + atoms_[k].log_pdf_from_mahalanobis_sq(quad));
    });
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

std::vector<std::size_t> MixturePrior::components_by_weight() const {
    std::vector<std::size_t> order(num_components());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Stable: std::sort leaves equal keys in an implementation-defined order.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return weights_[a] > weights_[b]; });
    return order;
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
