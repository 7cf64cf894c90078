#include "dp/dpmm_gibbs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dp/crp.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "stats/distributions.hpp"
#include "stats/multivariate_normal.hpp"

namespace drel::dp {
namespace {

bool all_finite(const linalg::Vector& x) {
    return std::all_of(x.begin(), x.end(), [](double v) { return std::isfinite(v); });
}

bool is_square_of(const linalg::Matrix& m, std::size_t d) {
    return m.rows() == d && m.cols() == d;
}

}  // namespace

DpmmGibbs::DpmmGibbs(std::vector<linalg::Vector> observations, DpmmConfig config)
    : observations_(std::move(observations)),
      config_(std::move(config)),
      dim_(0),
      base_precision_(0, 0),
      within_precision_(0, 0) {
    if (observations_.empty()) throw std::invalid_argument("DpmmGibbs: no observations");
    if (!(config_.alpha > 0.0)) throw std::invalid_argument("DpmmGibbs: alpha must be > 0");
    dim_ = observations_.front().size();
    for (const auto& obs : observations_) {
        if (obs.size() != dim_) {
            throw std::invalid_argument("DpmmGibbs: inconsistent observation dimensions");
        }
        if (!all_finite(obs)) throw std::invalid_argument("DpmmGibbs: non-finite observation");
    }
    if (config_.base_mean.size() != dim_) {
        throw std::invalid_argument("DpmmGibbs: base_mean dimension mismatch");
    }
    // Checked before anything reads them: the whitening build walks rows by
    // raw pointer.
    if (!is_square_of(config_.base_covariance, dim_)) {
        throw std::invalid_argument("DpmmGibbs: base_covariance must be d x d");
    }
    if (!is_square_of(config_.within_covariance, dim_)) {
        throw std::invalid_argument("DpmmGibbs: within_covariance must be d x d");
    }

    const linalg::Cholesky base_chol =
        linalg::Cholesky::factor_with_jitter(config_.base_covariance);
    const linalg::Cholesky within_chol =
        linalg::Cholesky::factor_with_jitter(config_.within_covariance);
    base_precision_ = base_chol.inverse();
    within_precision_ = within_chol.inverse();
    base_precision_m0_ = base_precision_.matvec(config_.base_mean);
    predictive_ = DiagonalPredictive(base_precision_, within_chol, config_.base_mean);

    // Start from the all-in-one-cluster state; Gibbs splits as needed.
    assignments_.assign(observations_.size(), 0);
    counts_.assign(1, observations_.size());
    linalg::Vector total = linalg::zeros(dim_);
    for (const auto& obs : observations_) linalg::axpy(1.0, obs, total);
    sums_.assign(1, total);
    whitened_sums_.assign(dim_, 0.0);
    whitened_means_.resize(dim_);
    mean_valid_.assign(1, 0);
    for (std::size_t j = 0; j < observations_.size(); ++j) {
        admit_observation(j);
        linalg::axpy_n(1.0, whitened_observation(j), whitened_sum(0), dim_);
    }
}

void DpmmGibbs::admit_observation(std::size_t j) {
    whitened_.resize((j + 1) * dim_);
    predictive_.whiten(observations_[j].data(), whitened_.data() + j * dim_);
    base_log_pdf_.push_back(predictive_log_pdf(observations_[j], 0, linalg::Vector{}));
    while (sweep_terms_.size() <= j + 1) {
        const std::size_t count = sweep_terms_.size();
        sweep_terms_.push_back(
            {predictive_.count_terms(count), std::log(static_cast<double>(count))});
    }
}

const DpmmGibbs::CountCache& DpmmGibbs::count_cache(std::size_t count) const {
    if (count >= count_cache_.size()) count_cache_.resize(count + 1);
    CountCache& entry = count_cache_[count];
    if (entry.chol_pred) return entry;
    // Build the entry with the exact operation sequence the uncached path
    // used, so the cached factors (and therefore every predictive density)
    // are bit-identical to recomputing from scratch.
    linalg::Matrix cov(dim_, dim_);
    if (count == 0) {
        cov = config_.base_covariance;
    } else {
        linalg::Matrix lambda = base_precision_;
        linalg::Matrix scaled_within = within_precision_;
        scaled_within *= static_cast<double>(count);
        lambda += scaled_within;
        entry.chol_lambda.emplace(lambda);
        cov = entry.chol_lambda->inverse();
    }
    cov += config_.within_covariance;
    entry.chol_pred.emplace(linalg::Cholesky::factor_with_jitter(std::move(cov)));
    entry.log_det_pred = entry.chol_pred->log_det();
    return entry;
}

void DpmmGibbs::posterior_of_mean(std::size_t count, const linalg::Vector& sum,
                                  linalg::Vector& mean_out, linalg::Matrix& cov_out) const {
    // Lambda = S0^{-1} + n Sw^{-1};  m = Lambda^{-1} (S0^{-1} m0 + Sw^{-1} s)
    if (count == 0) {
        // Matches the historical inline construction: chol(S0^{-1}) solves.
        linalg::Matrix lambda = base_precision_;
        const linalg::Cholesky chol(lambda);
        linalg::Vector rhs = base_precision_m0_;
        linalg::axpy(1.0, within_precision_.matvec(sum), rhs);
        mean_out = chol.solve(rhs);
        cov_out = chol.inverse();
        return;
    }
    const CountCache& cache = count_cache(count);
    const linalg::Cholesky& chol = *cache.chol_lambda;
    linalg::Vector rhs = base_precision_m0_;
    linalg::axpy(1.0, within_precision_.matvec(sum), rhs);
    mean_out = chol.solve(rhs);
    cov_out = chol.inverse();
}

double DpmmGibbs::predictive_log_pdf_at(const linalg::Vector& x, const linalg::Vector& mean,
                                        const CountCache& cache) const {
    static constexpr double kLogTwoPi = 1.8378770664093454836;
    auto diff = util::Workspace::local().vec(dim_);
    linalg::sub_into(x, mean, *diff);
    cache.chol_pred->solve_lower_in_place(*diff);
    const double quad = linalg::dot_n(diff->data(), diff->data(), dim_);
    return -0.5 * (static_cast<double>(dim_) * kLogTwoPi + cache.log_det_pred + quad);
}

double DpmmGibbs::predictive_log_pdf(const linalg::Vector& x, std::size_t count,
                                     const linalg::Vector& sum) const {
    if (count == 0) return predictive_log_pdf_at(x, config_.base_mean, count_cache(0));
    // mean = Lambda^{-1} (S0^{-1} m0 + Sw^{-1} s), with the same
    // substitution order as chol.solve(rhs).
    util::Workspace& ws = util::Workspace::local();
    auto mean = ws.vec(dim_);
    auto mv = ws.vec(dim_);
    *mean = base_precision_m0_;
    within_precision_.matvec_into(sum, *mv);
    linalg::axpy_n(1.0, mv->data(), mean->data(), dim_);
    const CountCache& cache = count_cache(count);
    cache.chol_lambda->solve_in_place(*mean);
    return predictive_log_pdf_at(x, *mean, cache);
}

const double* DpmmGibbs::whitened_mean(std::size_t k) {
    double* mean = whitened_means_.data() + k * dim_;
    if (!mean_valid_[k]) {
        predictive_.mean_into(sweep_terms_[counts_[k]].pred, whitened_sum(k), mean);
        mean_valid_[k] = 1;
    }
    return mean;
}

void DpmmGibbs::remove_observation(std::size_t j) {
    const std::size_t k = assignments_[j];
    counts_[k] -= 1;
    linalg::axpy(-1.0, observations_[j], sums_[k]);
    linalg::axpy_n(-1.0, whitened_observation(j), whitened_sum(k), dim_);
    mean_valid_[k] = 0;
    if (counts_[k] == 0) {
        // Compact: move the last cluster (and its cached mean) into slot k.
        const std::size_t last = counts_.size() - 1;
        if (k != last) {
            counts_[k] = counts_[last];
            sums_[k] = std::move(sums_[last]);
            std::copy_n(whitened_sum(last), dim_, whitened_sum(k));
            std::copy_n(whitened_means_.data() + last * dim_, dim_,
                        whitened_means_.data() + k * dim_);
            mean_valid_[k] = mean_valid_[last];
            for (std::size_t& z : assignments_) {
                if (z == last) z = k;
            }
        }
        counts_.pop_back();
        sums_.pop_back();
        whitened_sums_.resize(last * dim_);
        whitened_means_.resize(last * dim_);
        mean_valid_.pop_back();
    }
}

void DpmmGibbs::insert_observation(std::size_t j, std::size_t cluster) {
    if (cluster == counts_.size()) {
        counts_.push_back(0);
        sums_.push_back(linalg::zeros(dim_));
        whitened_sums_.resize(whitened_sums_.size() + dim_, 0.0);
        whitened_means_.resize(whitened_means_.size() + dim_);
        mean_valid_.push_back(0);
    }
    assignments_[j] = cluster;
    counts_[cluster] += 1;
    linalg::axpy(1.0, observations_[j], sums_[cluster]);
    linalg::axpy_n(1.0, whitened_observation(j), whitened_sum(cluster), dim_);
    mean_valid_[cluster] = 0;
}

void DpmmGibbs::assign_observation(std::size_t j, stats::Rng& rng) {
    // Log-weights: existing clusters by size x predictive, new by alpha.
    auto log_weights = util::Workspace::local().vec(counts_.size() + 1);
    const double* y = whitened_observation(j);
    for (std::size_t k = 0; k < counts_.size(); ++k) {
        const SweepTerms& terms = sweep_terms_[counts_[k]];
        (*log_weights)[k] = terms.log_count + predictive_.log_pdf(y, whitened_mean(k), terms.pred);
    }
    log_weights->back() = std::log(config_.alpha) + base_log_pdf_[j];
    linalg::softmax_inplace(*log_weights);
    assignment_sampler_.rebuild(log_weights->data(), log_weights->size());
    insert_observation(j, assignment_sampler_.draw(rng));
}

void DpmmGibbs::sweep(stats::Rng& rng) {
    DREL_PROFILE_SCOPE("dpmm.sweep");
    static obs::Counter& sweeps = obs::Registry::global().counter("dp.gibbs_sweeps");
    sweeps.add(1);
    for (std::size_t j = 0; j < observations_.size(); ++j) {
        remove_observation(j);
        assign_observation(j, rng);
    }
    if (config_.resample_alpha) resample_alpha(rng);
}

void DpmmGibbs::add_observation(linalg::Vector theta, stats::Rng& rng, int refresh_sweeps) {
    if (theta.size() != dim_) {
        throw std::invalid_argument("DpmmGibbs::add_observation: dimension mismatch");
    }
    if (!all_finite(theta)) {
        throw std::invalid_argument("DpmmGibbs::add_observation: non-finite observation");
    }
    if (refresh_sweeps < 0) {
        throw std::invalid_argument("DpmmGibbs::add_observation: refresh_sweeps must be >= 0");
    }
    observations_.push_back(std::move(theta));
    const std::size_t j = observations_.size() - 1;
    assignments_.push_back(0);  // placeholder; chosen below
    admit_observation(j);
    assign_observation(j, rng);
    for (int s = 0; s < refresh_sweeps; ++s) sweep(rng);
}

void DpmmGibbs::run(stats::Rng& rng) {
    DREL_PROFILE_SCOPE("dpmm.run");
    std::vector<std::size_t> best_assignments = assignments_;
    double best_log_joint = log_joint();
    double best_alpha = config_.alpha;
    for (int s = 0; s < config_.num_sweeps; ++s) {
        sweep(rng);
        const double lj = log_joint();
        if (lj > best_log_joint) {
            best_log_joint = lj;
            best_assignments = assignments_;
            best_alpha = config_.alpha;
        }
    }
    // Restore the MAP state (rebuild counts/sums from the assignments).
    config_.alpha = best_alpha;
    const std::size_t k = dp::count_clusters(best_assignments);
    assignments_ = std::move(best_assignments);
    counts_.assign(k, 0);
    sums_.assign(k, linalg::zeros(dim_));
    whitened_sums_.assign(k * dim_, 0.0);
    whitened_means_.resize(k * dim_);
    mean_valid_.assign(k, 0);
    for (std::size_t j = 0; j < observations_.size(); ++j) {
        const std::size_t z = assignments_[j];
        counts_[z] += 1;
        linalg::axpy(1.0, observations_[j], sums_[z]);
        linalg::axpy_n(1.0, whitened_observation(j), whitened_sum(z), dim_);
    }
}

void DpmmGibbs::resample_alpha(stats::Rng& rng) {
    // Escobar & West (1995) auxiliary-variable update for the concentration
    // under an alpha ~ Gamma(a, rate b) prior.
    const double a = config_.alpha_prior_shape;
    const double b = config_.alpha_prior_rate;
    const double n = static_cast<double>(observations_.size());
    const double k = static_cast<double>(counts_.size());
    const double eta = rng.beta(config_.alpha + 1.0, n);
    const double odds = (a + k - 1.0) / (n * (b - std::log(eta)));
    const double pi_eta = odds / (1.0 + odds);
    const double shape = (rng.uniform() < pi_eta) ? a + k : a + k - 1.0;
    config_.alpha = rng.gamma(shape, 1.0 / (b - std::log(eta)));
}

double DpmmGibbs::log_joint() const {
    // CRP log-prior.
    const double n = static_cast<double>(observations_.size());
    double lp = static_cast<double>(counts_.size()) * std::log(config_.alpha);
    for (const std::size_t c : counts_) lp += std::lgamma(static_cast<double>(c));
    for (double i = 0.0; i < n; i += 1.0) lp -= std::log(config_.alpha + i);

    // Exact per-cluster marginal likelihood via the predictive chain rule.
    util::Workspace& ws = util::Workspace::local();
    auto partial_sum = ws.vec(dim_);
    for (std::size_t k = 0; k < counts_.size(); ++k) {
        std::size_t seen = 0;
        partial_sum->assign(dim_, 0.0);
        for (std::size_t j = 0; j < observations_.size(); ++j) {
            if (assignments_[j] != k) continue;
            lp += predictive_log_pdf(observations_[j], seen, *partial_sum);
            linalg::axpy(1.0, observations_[j], *partial_sum);
            ++seen;
        }
    }
    return lp;
}

MixturePrior DpmmGibbs::extract_prior(bool include_base_atom) const {
    const double n = static_cast<double>(observations_.size());
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < counts_.size(); ++k) {
        linalg::Vector mean;
        linalg::Matrix v(dim_, dim_);
        posterior_of_mean(counts_[k], sums_[k], mean, v);
        // Predictive spread for a NEW device's parameter: posterior
        // uncertainty about the cluster mean plus the within-cluster spread.
        v += config_.within_covariance;
        weights.push_back(static_cast<double>(counts_[k]) / (n + config_.alpha));
        atoms.emplace_back(std::move(mean), std::move(v));
    }
    if (include_base_atom) {
        linalg::Matrix broad = config_.base_covariance;
        broad += config_.within_covariance;
        weights.push_back(config_.alpha / (n + config_.alpha));
        atoms.emplace_back(config_.base_mean, std::move(broad));
    }
    return MixturePrior(std::move(weights), std::move(atoms));
}

}  // namespace drel::dp
