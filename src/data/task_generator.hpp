// Synthetic device-task generator.
//
// This is the paper-substitution for the (unavailable) IoT datasets; see
// DESIGN.md "Substitutions". The generative story mirrors the paper's model:
//
//   * A *population* of edge devices exists. Each device's true model
//     parameter theta* is drawn from a multi-modal distribution over
//     parameter space (a finite Gaussian mixture with M modes — e.g. "device
//     types" or "deployment environments"). Multi-modality is exactly what
//     makes a Dirichlet-process prior the right cloud representation and a
//     single-Gaussian prior the wrong one (ablated in bench_table3).
//   * The cloud observes many devices (enough data each to fit theta well)
//     and distills the population into a DP prior.
//   * The edge device under test draws theta* from the same population but
//     only observes a handful of samples, possibly under covariate/label
//     shift relative to what the cloud saw.
//
// Feature vectors are Gaussian; labels follow a logistic link around the
// device's theta*, with optional label-flip noise. Generated datasets carry
// the bias column (constant 1) as their LAST feature, so their dimension is
// feature_dim()+1 and matches theta directly.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "models/dataset.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"

namespace drel::data {

/// One mode of the device-parameter population.
struct ParameterMode {
    double weight = 1.0;
    linalg::Vector mean;           ///< over theta, dim = feature_dim + 1
    linalg::Matrix covariance;     ///< same dim
};

/// The device's ground truth drawn from the population.
struct TaskSpec {
    linalg::Vector theta_star;     ///< true parameter, dim = feature_dim + 1
    std::size_t mode_index = 0;    ///< which population mode it came from
};

/// Controls the sampling of one device's local data.
struct DataOptions {
    double label_noise = 0.02;       ///< post-hoc label flip probability
    double margin_scale = 1.0;       ///< logits multiplier (higher = crisper labels)
    linalg::Vector feature_shift;    ///< added to raw features (covariate shift); empty = none
    double outlier_fraction = 0.0;   ///< fraction replaced by far-out points with random labels
};

class TaskPopulation {
 public:
    /// `modes` must be non-empty with positive weights and consistent dims.
    explicit TaskPopulation(std::vector<ParameterMode> modes);

    /// Convenience constructor: `num_modes` modes placed at random unit
    /// directions scaled by `mode_radius`, isotropic within-mode covariance
    /// `within_mode_var`, equal weights. The canonical population used by
    /// most benches.
    static TaskPopulation make_synthetic(std::size_t feature_dim, std::size_t num_modes,
                                         double mode_radius, double within_mode_var,
                                         stats::Rng& rng);

    std::size_t feature_dim() const noexcept { return theta_dim_ - 1; }
    std::size_t theta_dim() const noexcept { return theta_dim_; }
    std::size_t num_modes() const noexcept { return modes_.size(); }
    const std::vector<ParameterMode>& modes() const noexcept { return modes_; }

    TaskSpec sample_task(stats::Rng& rng) const;

    /// Samples one dataset of `n` examples for a device with the given task.
    /// Throws std::invalid_argument, before any draw, on a task or
    /// feature_shift of the wrong dimension, a non-positive margin_scale, or
    /// a label_noise or outlier_fraction outside [0, 1]. Outliers sit at
    /// distance 8 from the origin.
    models::Dataset generate(const TaskSpec& task, std::size_t n, stats::Rng& rng,
                             const DataOptions& options = {}) const;

 private:
    std::vector<ParameterMode> modes_;
    std::vector<stats::MultivariateNormal> mode_dists_;
    std::size_t theta_dim_;
};

/// Regression data for the squared-loss pipeline: standard-normal features
/// (bias column last), responses y = <theta_star, x~> + N(0, noise_sd^2).
/// theta_star's dimension is feature_dim + 1 (bias weight last).
models::Dataset generate_regression_data(const linalg::Vector& theta_star, std::size_t n,
                                         double noise_sd, stats::Rng& rng);

}  // namespace drel::data
