#include "dp/dpmm_variational.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/distributions.hpp"
#include "stats/multivariate_normal.hpp"
#include "util/workspace.hpp"

namespace drel::dp {
namespace {

constexpr double kLogTwoPi = 1.8378770664093454836;
/// run() stops once the ELBO improves by at most this fraction.
constexpr double kElboTolerance = 1e-8;

/// E[log v] and E[log(1-v)] under Beta(g1, g2).
void beta_expectations(double g1, double g2, double& e_log_v, double& e_log_1mv) {
    const double psi_sum = stats::digamma(g1 + g2);
    e_log_v = stats::digamma(g1) - psi_sum;
    e_log_1mv = stats::digamma(g2) - psi_sum;
}

}  // namespace

DpmmVariational::DpmmVariational(std::vector<linalg::Vector> observations,
                                 VariationalConfig config)
    : observations_(std::move(observations)),
      config_(std::move(config)),
      dim_(0),
      base_precision_(0, 0),
      within_precision_(0, 0) {
    if (observations_.empty()) throw std::invalid_argument("DpmmVariational: no observations");
    if (config_.truncation < 2) {
        throw std::invalid_argument("DpmmVariational: truncation must be >= 2");
    }
    if (!(config_.alpha > 0.0)) throw std::invalid_argument("DpmmVariational: alpha must be > 0");
    dim_ = observations_.front().size();
    for (const auto& obs : observations_) {
        if (obs.size() != dim_) {
            throw std::invalid_argument("DpmmVariational: inconsistent observation dimensions");
        }
    }
    if (config_.base_mean.size() != dim_) {
        throw std::invalid_argument("DpmmVariational: base_mean dimension mismatch");
    }

    const linalg::Cholesky base_chol =
        linalg::Cholesky::factor_with_jitter(config_.base_covariance);
    const linalg::Cholesky within_chol =
        linalg::Cholesky::factor_with_jitter(config_.within_covariance);
    base_precision_ = base_chol.inverse();
    within_precision_ = within_chol.inverse();
    within_log_det_ = within_chol.log_det();
    base_log_det_ = base_chol.log_det();
    base_precision_m0_ = base_precision_.matvec(config_.base_mean);

    const std::size_t k = config_.truncation;
    phi_.assign(observations_.size(), linalg::constant(k, 1.0 / static_cast<double>(k)));
    gamma1_ = linalg::constant(k - 1, 1.0);
    gamma2_ = linalg::constant(k - 1, config_.alpha);
    means_.assign(k, config_.base_mean);
    covs_.assign(k, config_.base_covariance);
}

int DpmmVariational::run(stats::Rng& rng) {
    // Break symmetry: perturb initial responsibilities.
    for (auto& phi : phi_) {
        for (double& p : phi) p *= std::exp(0.05 * rng.normal());
        const double total = linalg::sum(phi);
        linalg::scale(phi, 1.0 / total);
    }
    update_sticks();
    update_means();

    double previous = elbo();
    for (int it = 1; it <= config_.max_iterations; ++it) {
        const double current = iterate();
        if (std::fabs(current - previous) <=
            kElboTolerance * (std::fabs(previous) + 1.0)) {
            return it;
        }
        previous = current;
    }
    return config_.max_iterations;
}

double DpmmVariational::iterate() {
    update_responsibilities();
    update_sticks();
    update_means();
    return elbo();
}

void DpmmVariational::update_responsibilities() {
    const std::size_t k_total = config_.truncation;
    util::Workspace& ws = util::Workspace::local();
    // E[log pi_k(v)] from the stick posteriors.
    auto e_log_pi = ws.zeros(k_total);
    double cum_log_1mv = 0.0;
    for (std::size_t k = 0; k < k_total; ++k) {
        if (k + 1 < k_total) {
            double e_log_v = 0.0;
            double e_log_1mv = 0.0;
            beta_expectations(gamma1_[k], gamma2_[k], e_log_v, e_log_1mv);
            (*e_log_pi)[k] = e_log_v + cum_log_1mv;
            cum_log_1mv += e_log_1mv;
        } else {
            (*e_log_pi)[k] = cum_log_1mv;  // v_K = 1
        }
    }
    // Per-component trace penalty: 0.5 tr(Sw^{-1} V_k), computed without
    // materializing the product matrix.
    auto trace_penalty = ws.vec(k_total);
    for (std::size_t k = 0; k < k_total; ++k) {
        (*trace_penalty)[k] = 0.5 * linalg::Matrix::trace_product(within_precision_, covs_[k]);
    }
    auto diff = ws.vec(dim_);
    auto mv = ws.vec(dim_);
    for (std::size_t j = 0; j < observations_.size(); ++j) {
        // Fill the stored responsibility row directly — it already has the
        // right size, so the steady state allocates nothing.
        linalg::Vector& log_phi = phi_[j];
        log_phi.resize(k_total);
        for (std::size_t k = 0; k < k_total; ++k) {
            linalg::sub_into(observations_[j], means_[k], *diff);
            within_precision_.matvec_into(*diff, *mv);
            const double quad = linalg::dot_n(diff->data(), mv->data(), dim_);
            const double e_log_lik =
                -0.5 * (static_cast<double>(dim_) * kLogTwoPi + within_log_det_ + quad) -
                (*trace_penalty)[k];
            log_phi[k] = (*e_log_pi)[k] + e_log_lik;
        }
        linalg::softmax_inplace(log_phi);
    }
}

void DpmmVariational::update_sticks() {
    const std::size_t k_total = config_.truncation;
    for (std::size_t k = 0; k + 1 < k_total; ++k) {
        double occupancy = 0.0;
        double tail = 0.0;
        for (const auto& phi : phi_) {
            occupancy += phi[k];
            for (std::size_t l = k + 1; l < k_total; ++l) tail += phi[l];
        }
        gamma1_[k] = 1.0 + occupancy;
        gamma2_[k] = config_.alpha + tail;
    }
}

void DpmmVariational::update_means() {
    const std::size_t k_total = config_.truncation;
    util::Workspace& ws = util::Workspace::local();
    auto weighted_sum = ws.vec(dim_);
    auto mv = ws.vec(dim_);
    for (std::size_t k = 0; k < k_total; ++k) {
        double occupancy = 0.0;
        weighted_sum->assign(dim_, 0.0);
        for (std::size_t j = 0; j < observations_.size(); ++j) {
            occupancy += phi_[j][k];
            linalg::axpy(phi_[j][k], observations_[j], *weighted_sum);
        }
        linalg::Matrix lambda = base_precision_;
        linalg::Matrix scaled = within_precision_;
        scaled *= occupancy;
        lambda += scaled;
        const linalg::Cholesky chol(lambda);
        // means_[k] already has size d: assign + in-place solve keeps the
        // same substitutions as chol.solve(rhs) with no fresh vectors.
        means_[k] = base_precision_m0_;
        within_precision_.matvec_into(*weighted_sum, *mv);
        linalg::axpy_n(1.0, mv->data(), means_[k].data(), dim_);
        chol.solve_in_place(means_[k]);
        covs_[k] = chol.inverse();
    }
}

double DpmmVariational::elbo() const {
    const std::size_t k_total = config_.truncation;
    double value = 0.0;

    // Stick terms: E[log p(v_k | alpha)] - E[log q(v_k)].
    for (std::size_t k = 0; k + 1 < k_total; ++k) {
        double e_log_v = 0.0;
        double e_log_1mv = 0.0;
        beta_expectations(gamma1_[k], gamma2_[k], e_log_v, e_log_1mv);
        value += std::log(config_.alpha) + (config_.alpha - 1.0) * e_log_1mv;
        const double log_b = std::lgamma(gamma1_[k]) + std::lgamma(gamma2_[k]) -
                             std::lgamma(gamma1_[k] + gamma2_[k]);
        value -= (gamma1_[k] - 1.0) * e_log_v + (gamma2_[k] - 1.0) * e_log_1mv - log_b;
    }

    util::Workspace& ws = util::Workspace::local();
    auto diff = ws.vec(dim_);
    auto mv = ws.vec(dim_);

    // Mean terms: E[log p(mu_k)] + H[q(mu_k)]. log|S0| was factored once in
    // the constructor; tr(S0^{-1} V_k) skips the product matrix.
    for (std::size_t k = 0; k < k_total; ++k) {
        linalg::sub_into(means_[k], config_.base_mean, *diff);
        base_precision_.matvec_into(*diff, *mv);
        const double quad = linalg::dot_n(diff->data(), mv->data(), dim_);
        const double trace = linalg::Matrix::trace_product(base_precision_, covs_[k]);
        value += -0.5 * (static_cast<double>(dim_) * kLogTwoPi + base_log_det_ + quad + trace);
        const linalg::Cholesky vk_chol = linalg::Cholesky::factor_with_jitter(covs_[k]);
        value += 0.5 * (static_cast<double>(dim_) * (kLogTwoPi + 1.0) + vk_chol.log_det());
    }

    // Assignment and likelihood terms. tr(Sw^{-1} V_k) is constant in j, so
    // hoist it out of the inner loop (the summand is unchanged per (j, k)).
    auto e_log_pi = ws.zeros(k_total);
    double cum_log_1mv = 0.0;
    for (std::size_t k = 0; k < k_total; ++k) {
        if (k + 1 < k_total) {
            double e_log_v = 0.0;
            double e_log_1mv = 0.0;
            beta_expectations(gamma1_[k], gamma2_[k], e_log_v, e_log_1mv);
            (*e_log_pi)[k] = e_log_v + cum_log_1mv;
            cum_log_1mv += e_log_1mv;
        } else {
            (*e_log_pi)[k] = cum_log_1mv;
        }
    }
    auto within_trace = ws.vec(k_total);
    for (std::size_t k = 0; k < k_total; ++k) {
        (*within_trace)[k] = linalg::Matrix::trace_product(within_precision_, covs_[k]);
    }
    for (std::size_t j = 0; j < observations_.size(); ++j) {
        for (std::size_t k = 0; k < k_total; ++k) {
            const double p = phi_[j][k];
            if (p <= 0.0) continue;
            linalg::sub_into(observations_[j], means_[k], *diff);
            within_precision_.matvec_into(*diff, *mv);
            const double quad = linalg::dot_n(diff->data(), mv->data(), dim_);
            const double e_log_lik =
                -0.5 * (static_cast<double>(dim_) * kLogTwoPi + within_log_det_ + quad +
                        (*within_trace)[k]);
            value += p * ((*e_log_pi)[k] + e_log_lik - std::log(p));
        }
    }
    return value;
}

linalg::Vector DpmmVariational::expected_weights() const {
    const std::size_t k_total = config_.truncation;
    linalg::Vector weights(k_total);
    double remaining = 1.0;
    for (std::size_t k = 0; k < k_total; ++k) {
        if (k + 1 < k_total) {
            const double e_v = gamma1_[k] / (gamma1_[k] + gamma2_[k]);
            weights[k] = e_v * remaining;
            remaining *= (1.0 - e_v);
        } else {
            weights[k] = remaining;
        }
    }
    return weights;
}

MixturePrior DpmmVariational::extract_prior(double min_weight) const {
    const linalg::Vector weights = expected_weights();
    linalg::Vector kept_weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < config_.truncation; ++k) {
        if (weights[k] < min_weight) continue;
        linalg::Matrix spread = covs_[k];
        spread += config_.within_covariance;
        kept_weights.push_back(weights[k]);
        atoms.emplace_back(means_[k], std::move(spread));
    }
    if (atoms.empty()) {
        // All mass below threshold (degenerate config) — fall back to base.
        linalg::Matrix broad = config_.base_covariance;
        broad += config_.within_covariance;
        kept_weights.push_back(1.0);
        atoms.emplace_back(config_.base_mean, std::move(broad));
    }
    return MixturePrior(std::move(kept_weights), std::move(atoms));
}

}  // namespace drel::dp
