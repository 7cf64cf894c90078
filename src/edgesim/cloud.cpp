#include "edgesim/cloud.hpp"

#include <cmath>
#include <stdexcept>

#include "models/erm_objective.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "optim/lbfgs.hpp"
#include "stats/descriptive.hpp"

namespace drel::edgesim {
namespace {

/// Ridge weight c (l2 = c/n) of each contributor fit.
constexpr double kContributorL2 = 1.0;
/// Within-cluster spread Sw = kWithinScale * I. Covers both the device
/// population's within-mode variance and contributor estimation noise.
constexpr double kWithinScale = 0.25;
/// Base covariance S0 = kBaseScale * Cov(theta_hats) + jitter; scales how
/// permissive the "new device type" escape atom is.
constexpr double kBaseScale = 2.0;

}  // namespace

void CloudNode::add_contributor_data(models::Dataset data) {
    if (data.empty()) throw std::invalid_argument("CloudNode: empty contributor dataset");
    if (!contributor_data_.empty() && data.dim() != contributor_data_.front().dim()) {
        throw std::invalid_argument("CloudNode: contributor dimension mismatch");
    }
    contributor_data_.push_back(std::move(data));
    contributor_thetas_.clear();  // invalidate fits
}

void CloudNode::fit_contributor_models() {
    static obs::Counter& fits = obs::Registry::global().counter("cloud.contributor_fits");
    fits.add(contributor_data_.size());
    contributor_thetas_.clear();
    contributor_thetas_.reserve(contributor_data_.size());
    const auto loss = models::make_loss(config_.loss);
    optim::LbfgsOptions options;
    options.stopping.max_iterations = 300;
    for (const models::Dataset& data : contributor_data_) {
        const double l2 = kContributorL2 / static_cast<double>(data.size());
        const models::ErmObjective objective(data, *loss, l2);
        contributor_thetas_.push_back(
            optim::minimize_lbfgs(objective, linalg::zeros(data.dim()), options).x);
    }
}

bool CloudNode::upload_is_usable(const linalg::Vector& theta, std::size_t dim) noexcept {
    bool usable = theta.size() == dim;
    if (usable) {
        for (const double v : theta) {
            if (!std::isfinite(v)) {
                usable = false;
                break;
            }
        }
    }
    if (!usable) {
        static obs::Counter& rejected =
            obs::Registry::global().counter("cloud.uploads_rejected");
        rejected.add(1);
    }
    return usable;
}

dp::MixturePrior CloudNode::fit_prior(stats::Rng& rng) {
    DREL_PROFILE_SCOPE("cloud.fit_prior");
    static obs::Counter& fits = obs::Registry::global().counter("cloud.prior_fits");
    fits.add(1);
    if (contributor_data_.size() < 2) {
        throw std::invalid_argument("CloudNode::fit_prior: need at least 2 contributors");
    }
    if (contributor_thetas_.size() != contributor_data_.size()) fit_contributor_models();

    const std::size_t d = contributor_thetas_.front().size();

    // Empirical base measure: centered on the pooled theta mean with an
    // inflated covariance so novel device types stay plausible.
    const linalg::Vector m0 = stats::mean_rows(contributor_thetas_);
    linalg::Matrix s0 = stats::covariance_rows(contributor_thetas_);
    s0 *= kBaseScale;
    s0.add_diagonal(1e-6 + 0.01 * kWithinScale);

    linalg::Matrix sw = linalg::Matrix::identity(d);
    sw *= kWithinScale;

    if (config_.inference == PriorInference::kNigGibbs) {
        dp::NigConfig nig;
        nig.alpha = config_.dp_alpha;
        nig.base_mean = m0;
        nig.num_sweeps = config_.gibbs_sweeps;
        // Scale the InvGamma prior so its mean variance matches the pooled
        // per-dimension spread of the contributor thetas (a weak prior: the
        // data decides each cluster's width).
        double pooled_var = 0.0;
        for (std::size_t j = 0; j < d; ++j) pooled_var += s0(j, j);
        pooled_var /= static_cast<double>(d) * kBaseScale;
        nig.a0 = 2.5;
        nig.b0 = std::max(1e-6, pooled_var * (nig.a0 - 1.0) * 0.5);
        dp::DpmmNigGibbs sampler(contributor_thetas_, std::move(nig));
        sampler.run(rng);
        return sampler.extract_prior();
    }

    if (config_.inference == PriorInference::kGibbs) {
        dp::DpmmConfig dpmm;
        dpmm.alpha = config_.dp_alpha;
        dpmm.base_mean = m0;
        dpmm.base_covariance = s0;
        dpmm.within_covariance = sw;
        dpmm.num_sweeps = config_.gibbs_sweeps;
        dp::DpmmGibbs sampler(contributor_thetas_, std::move(dpmm));
        sampler.run(rng);
        return sampler.extract_prior();
    }

    dp::VariationalConfig vc;
    vc.alpha = config_.dp_alpha;
    vc.base_mean = m0;
    vc.base_covariance = s0;
    vc.within_covariance = sw;
    vc.truncation = config_.variational_truncation;
    dp::DpmmVariational cavi(contributor_thetas_, std::move(vc));
    cavi.run(rng);
    return cavi.extract_prior();
}

}  // namespace drel::edgesim
