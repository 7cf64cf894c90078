// CloudNode — the knowledge-distillation side of the system.
//
// Contributor devices upload their (plentiful) local datasets; the cloud
// fits one model per contributor, runs DP mixture inference over the fitted
// parameter vectors, and exports the truncated prior for transfer. This is
// the paper's "cloud knowledge" pipeline end to end.
#pragma once

#include <vector>

#include "dp/dpmm_gibbs.hpp"
#include "dp/dpmm_nig.hpp"
#include "dp/dpmm_variational.hpp"
#include "dp/mixture_prior.hpp"
#include "models/dataset.hpp"
#include "models/loss.hpp"
#include "stats/rng.hpp"

namespace drel::edgesim {

/// kGibbs: collapsed Gibbs with fixed within-cluster covariance Sw.
/// kVariational: truncated stick-breaking CAVI, same likelihood model.
/// kNigGibbs: collapsed Gibbs with per-cluster learned diagonal covariances
///            (Normal-Inverse-Gamma) — use when device types have very
///            different variability; the fixed Sw is not used.
enum class PriorInference { kGibbs, kVariational, kNigGibbs };

struct CloudConfig {
    models::LossKind loss = models::LossKind::kLogistic;
    double dp_alpha = 1.0;
    PriorInference inference = PriorInference::kGibbs;
    int gibbs_sweeps = 150;
    std::size_t variational_truncation = 12;
};

class CloudNode {
 public:
    explicit CloudNode(CloudConfig config) : config_(std::move(config)) {}

    const CloudConfig& config() const noexcept { return config_; }

    /// Registers one contributor's dataset (bias column last).
    void add_contributor_data(models::Dataset data);

    std::size_t num_contributors() const noexcept { return contributor_data_.size(); }

    /// Runs DP mixture inference over the contributor thetas and returns
    /// the transferable prior. Requires >= 2 contributors.
    dp::MixturePrior fit_prior(stats::Rng& rng);

    /// Guard for the online-update path: true iff an uploaded parameter
    /// vector has the expected dimension and every entry is finite. A
    /// false return counts `cloud.uploads_rejected` — the cloud's DP
    /// posterior silently skips garbled uploads instead of absorbing NaNs
    /// or aborting the round (see edgesim/faults.hpp).
    static bool upload_is_usable(const linalg::Vector& theta, std::size_t dim) noexcept;

 private:
    /// Fits the per-contributor models (ridge ERM); fit_prior() calls it
    /// when a contributor arrived since the last fit.
    void fit_contributor_models();

    CloudConfig config_;
    std::vector<models::Dataset> contributor_data_;
    std::vector<linalg::Vector> contributor_thetas_;
};

}  // namespace drel::edgesim
