// Dirichlet-process mixture model over parameter vectors — collapsed Gibbs.
//
// The cloud observes one fitted parameter vector theta_hat per contributing
// device and must distill the device population into a transferable prior.
// Model:
//
//   z_j ~ CRP(alpha)
//   mu_k ~ N(m0, S0)                       (base measure G0)
//   theta_hat_j | z_j = k ~ N(mu_k, Sw)    (within-cluster spread; includes
//                                           both population spread and the
//                                           devices' estimation noise)
//
// With mu integrated out analytically (conjugate Normal-Normal), the Gibbs
// sweep needs only per-cluster counts and sums; every predictive density is
// a Gaussian with covariance V_k + Sw, where V_k is the posterior covariance
// of mu_k. Optionally resamples alpha with the Escobar & West (1995)
// auxiliary-variable move.
//
// Two ways to evaluate that predictive, each where it belongs:
// * The sweep scores every (observation, cluster) pair, so it works in the
//   basis that diagonalises the model (dp/diagonal_predictive.hpp). Each
//   observation is whitened once on arrival, each cluster keeps a whitened
//   sum, and a density is an O(d) weighted sum of squares against the
//   cluster's cached whitened mean. Its values equal the original-
//   coordinate densities up to rounding; the sweep consumes them only
//   through the alias draw, where a last-bit change moves a draw only if
//   the uniform lands within that bit of a bucket edge.
// * Everything that is an output, or decides one, stays in the original
//   coordinates on Cholesky factors: extract_prior (the shipped prior's
//   bits are pinned), log_joint (run() keeps the MAP state by
//   `lj > best`, which breaks near-ties by rounding), and each
//   observation's base density, computed once on arrival, where the
//   diagonal form would save nothing.
//
// extract_prior() emits the truncated MixturePrior actually shipped to the
// edge: one atom per occupied cluster at its posterior predictive, plus
// (optionally) one broad atom at the base measure carrying the leftover
// alpha/(N+alpha) CRP mass — the "new device type" escape hatch that keeps
// the transferred prior from being overconfident.
#pragma once

#include <optional>
#include <vector>

#include "dp/diagonal_predictive.hpp"
#include "dp/mixture_prior.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "stats/alias_table.hpp"
#include "stats/rng.hpp"
#include "util/workspace.hpp"

namespace drel::dp {

struct DpmmConfig {
    double alpha = 1.0;                 ///< DP concentration
    linalg::Vector base_mean;           ///< m0
    linalg::Matrix base_covariance;     ///< S0
    linalg::Matrix within_covariance;   ///< Sw
    int num_sweeps = 200;
    bool resample_alpha = false;
    double alpha_prior_shape = 2.0;     ///< Gamma(a, rate=b) prior when resampling
    double alpha_prior_rate = 0.5;
};

class DpmmGibbs {
 public:
    /// `observations` must be non-empty, finite, and of one dimension d
    /// matching the config's base measure; both covariances must be d x d.
    /// Throws std::invalid_argument otherwise.
    DpmmGibbs(std::vector<linalg::Vector> observations, DpmmConfig config);

    /// Runs config.num_sweeps full Gibbs sweeps, tracking the maximum
    /// a-posteriori state seen (by log_joint) and restoring it at the end —
    /// a single trailing sweep can leave a transient singleton cluster, and
    /// the prior the cloud ships should come from the best partition, not
    /// the last one.
    void run(stats::Rng& rng);

    /// One sweep: resamples every assignment (and alpha if configured).
    void sweep(stats::Rng& rng);

    /// Online update: inserts a new observation by its CRP-predictive
    /// probabilities, then runs `refresh_sweeps` sweeps to let the partition
    /// re-settle. This is how the cloud absorbs a newly contributing device
    /// without refitting from scratch; tests check the incremental posterior
    /// tracks the batch refit. A mis-sized or non-finite `theta` throws
    /// std::invalid_argument and leaves the sampler unchanged.
    void add_observation(linalg::Vector theta, stats::Rng& rng, int refresh_sweeps = 5);

    std::size_t num_observations() const noexcept { return observations_.size(); }
    std::size_t num_clusters() const noexcept { return counts_.size(); }
    const std::vector<std::size_t>& assignments() const noexcept { return assignments_; }
    double alpha() const noexcept { return config_.alpha; }

    /// log p(z, data) up to an additive constant: CRP log-prior plus the
    /// exact marginal likelihood of each cluster's members (mu integrated
    /// out). Diagnostic for mixing tests.
    double log_joint() const;

    /// Builds the transferable prior (see file comment).
    MixturePrior extract_prior(bool include_base_atom = true) const;

 private:
    /// Predictive log-density of x for a cluster with `count` members
    /// summing to `sum`; count==0 gives the base predictive N(m0, S0+Sw).
    /// Original coordinates, uncached mean: log_joint's path and the base
    /// density's (see file comment).
    double predictive_log_pdf(const linalg::Vector& x, std::size_t count,
                              const linalg::Vector& sum) const;

    /// Posterior (mean, covariance) of mu for a cluster.
    void posterior_of_mean(std::size_t count, const linalg::Vector& sum,
                           linalg::Vector& mean_out, linalg::Matrix& cov_out) const;

    void remove_observation(std::size_t j);
    void insert_observation(std::size_t j, std::size_t cluster);
    void resample_alpha(stats::Rng& rng);

    // The conjugate structure makes every covariance-side quantity of the
    // predictive a function of the cluster COUNT alone:
    //   Lambda(n) = S0^{-1} + n Sw^{-1}   and   Pred(n) = Lambda(n)^{-1} + Sw
    // (Pred(0) = S0 + Sw). Only the mean depends on the cluster sum. Both
    // predictive paths therefore cache per count, and neither cache is ever
    // invalidated: entries depend only on the immutable config matrices.
    //
    // CountCache is the Cholesky path's: each count's factors of Lambda(n)
    // and Pred(n), shared by log_joint, the base densities and the
    // posteriors behind the shipped prior. Filled lazily, up to the largest
    // count one of them asks for.
    struct CountCache {
        std::optional<linalg::Cholesky> chol_lambda;  ///< chol(Lambda(n)); unset for n=0
        std::optional<linalg::Cholesky> chol_pred;    ///< chol(Pred(n))
        double log_det_pred = 0.0;                    ///< log |Pred(n)|
    };
    const CountCache& count_cache(std::size_t count) const;

    // SweepTerms is the sweep's: Pred(n) in the whitened basis (its inverse
    // variances, log normaliser and mean shrinkage) plus log n, the CRP
    // weight of joining a cluster of n. Scoring a cluster reads one entry
    // and its cached whitened mean: no solve, no division, no workspace
    // lease.
    struct SweepTerms {
        DiagonalPredictive::CountTerms pred;
        double log_count = 0.0;
    };

    /// Gaussian log-density of x under Pred(n), centred at `mean`.
    double predictive_log_pdf_at(const linalg::Vector& x, const linalg::Vector& mean,
                                 const CountCache& cache) const;

    /// Per-observation work done once, on arrival: whitens observation j,
    /// computes its base density, and extends sweep_terms_ to count j + 1.
    void admit_observation(std::size_t j);

    const double* whitened_observation(std::size_t j) const noexcept {
        return whitened_.data() + j * dim_;
    }
    double* whitened_sum(std::size_t k) noexcept { return whitened_sums_.data() + k * dim_; }

    /// Cluster k's whitened predictive mean, rebuilt only if k changed since.
    const double* whitened_mean(std::size_t k);

    /// Log-weights of placing observation j into each occupied cluster and,
    /// last, a new one; then draws and inserts its cluster.
    void assign_observation(std::size_t j, stats::Rng& rng);

    std::vector<linalg::Vector> observations_;
    DpmmConfig config_;
    std::size_t dim_;

    // Precomputed precision matrices of the conjugate model.
    linalg::Matrix base_precision_;     ///< S0^{-1} (jittered factor's inverse)
    linalg::Vector base_precision_m0_;  ///< S0^{-1} m0
    linalg::Matrix within_precision_;   ///< Sw^{-1}

    /// The sweep's basis, built from base_precision_ and the factor of Sw.
    DiagonalPredictive predictive_;
    /// Row j is observation j whitened (N x d, row-major).
    std::vector<double> whitened_;

    std::vector<std::size_t> assignments_;
    std::vector<std::size_t> counts_;          ///< per-cluster member count
    std::vector<linalg::Vector> sums_;         ///< per-cluster member sum
    /// Row k is cluster k's whitened member sum (K x d). Kept in step with
    /// sums_: the same add/remove sequence, moved by the same compaction
    /// swap, rebuilt by the same MAP restore.
    std::vector<double> whitened_sums_;

    // Row k is cluster k's whitened predictive mean, valid while
    // mean_valid_[k] is set. Every change to counts_[k] or its sums clears
    // the flag (the compaction swap moves the row and flag with the
    // cluster; the MAP restore in run() clears them all), and
    // whitened_mean() rebuilds it in O(d). A sweep visit changes at most two
    // clusters, so the other K-2 means are reused instead of rebuilt.
    std::vector<double> whitened_means_;
    std::vector<char> mean_valid_;

    /// Base (count 0) predictive of each observation: depends only on the
    /// observation and the config, so it is computed once, on arrival.
    std::vector<double> base_log_pdf_;

    /// Lazily filled, indexed by count. Mutable: filling it is a pure
    /// memoization of deterministic factorizations. Not thread-safe, like
    /// the sampler itself (Gibbs sweeps are inherently sequential).
    mutable std::vector<CountCache> count_cache_;

    /// Indexed by count, one entry for every count 0..N a cluster can
    /// reach (entry 0 is never scored); grown as observations arrive.
    std::vector<SweepTerms> sweep_terms_;

    /// Reused across cluster-assignment draws so the O(K) alias build
    /// allocates only while the cluster count grows. One draw consumes one
    /// uniform, exactly like the Rng::categorical scan it replaced, so the
    /// RNG stream stays aligned with every non-assignment draw.
    stats::AliasTable assignment_sampler_;
};

}  // namespace drel::dp
