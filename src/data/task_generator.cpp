#include "data/task_generator.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::data {
namespace {

/// Distance of injected outliers from the origin.
constexpr double kOutlierRadius = 8.0;

}  // namespace

TaskPopulation::TaskPopulation(std::vector<ParameterMode> modes)
    : modes_(std::move(modes)), theta_dim_(0) {
    if (modes_.empty()) throw std::invalid_argument("TaskPopulation: no modes");
    theta_dim_ = modes_.front().mean.size();
    if (theta_dim_ < 2) {
        throw std::invalid_argument("TaskPopulation: theta must have >= 2 dims (incl. bias)");
    }
    for (const ParameterMode& m : modes_) {
        if (!(m.weight > 0.0)) {
            throw std::invalid_argument("TaskPopulation: mode weights must be positive");
        }
        if (m.mean.size() != theta_dim_) {
            throw std::invalid_argument("TaskPopulation: inconsistent mode dimensions");
        }
        mode_dists_.emplace_back(m.mean, m.covariance);
    }
}

TaskPopulation TaskPopulation::make_synthetic(std::size_t feature_dim, std::size_t num_modes,
                                              double mode_radius, double within_mode_var,
                                              stats::Rng& rng) {
    if (feature_dim == 0) throw std::invalid_argument("make_synthetic: feature_dim must be > 0");
    if (num_modes == 0) throw std::invalid_argument("make_synthetic: num_modes must be > 0");
    const std::size_t theta_dim = feature_dim + 1;
    std::vector<ParameterMode> modes;
    modes.reserve(num_modes);
    for (std::size_t k = 0; k < num_modes; ++k) {
        ParameterMode m;
        m.weight = 1.0;
        // Random direction scaled to mode_radius; small random bias term.
        linalg::Vector dir = rng.standard_normal_vector(feature_dim);
        const double n = linalg::norm2(dir);
        if (n > 0.0) linalg::scale(dir, mode_radius / n);
        m.mean = dir;
        m.mean.push_back(0.3 * rng.normal());  // bias component
        m.covariance = linalg::Matrix::identity(theta_dim);
        m.covariance *= within_mode_var;
        modes.push_back(std::move(m));
    }
    return TaskPopulation(std::move(modes));
}

TaskSpec TaskPopulation::sample_task(stats::Rng& rng) const {
    linalg::Vector weights(modes_.size());
    for (std::size_t k = 0; k < modes_.size(); ++k) weights[k] = modes_[k].weight;
    TaskSpec task;
    task.mode_index = rng.categorical(weights);
    task.theta_star = mode_dists_[task.mode_index].sample(rng);
    return task;
}

models::Dataset TaskPopulation::generate(const TaskSpec& task, std::size_t n, stats::Rng& rng,
                                         const DataOptions& options) const {
    if (task.theta_star.size() != theta_dim_) {
        throw std::invalid_argument("TaskPopulation::generate: task dimension mismatch");
    }
    if (!options.feature_shift.empty() && options.feature_shift.size() != feature_dim()) {
        throw std::invalid_argument("TaskPopulation::generate: feature_shift dimension mismatch");
    }
    if (!(options.margin_scale > 0.0)) {
        throw std::invalid_argument("TaskPopulation::generate: margin_scale must be positive");
    }
    // Both fractions are probabilities: outside [0, 1] label_noise would
    // silently mean always or never, and outlier_fraction would reach an
    // undefined float-to-size_t conversion below. NaN fails both tests.
    if (!(options.label_noise >= 0.0 && options.label_noise <= 1.0)) {
        throw std::invalid_argument("TaskPopulation::generate: label_noise must be in [0, 1]");
    }
    if (!(options.outlier_fraction >= 0.0 && options.outlier_fraction <= 1.0)) {
        throw std::invalid_argument(
            "TaskPopulation::generate: outlier_fraction must be in [0, 1]");
    }
    const std::size_t d = feature_dim();
    linalg::Matrix features(n, d + 1);
    linalg::Vector labels(n);
    const std::size_t n_outliers =
        static_cast<std::size_t>(std::floor(options.outlier_fraction * static_cast<double>(n)));

    for (std::size_t i = 0; i < n; ++i) {
        double* x = features.row_data(i);
        rng.normals(x, d);
        if (!options.feature_shift.empty()) {
            linalg::axpy_n(1.0, options.feature_shift.data(), x, d);
        }

        // Bias-augment and label via the logistic link around theta*.
        x[d] = 1.0;
        const double logit =
            options.margin_scale * linalg::dot_n(task.theta_star.data(), x, d + 1);
        const double p_pos = 1.0 / (1.0 + std::exp(-logit));
        double y = (rng.uniform() < p_pos) ? 1.0 : -1.0;
        if (options.label_noise > 0.0 && rng.uniform() < options.label_noise) y = -y;

        if (i < n_outliers) {
            // Far-out point with a coin-flip label: stresses robustness.
            linalg::Vector dir = rng.standard_normal_vector(d);
            const double dn = linalg::norm2(dir);
            if (dn > 0.0) linalg::scale(dir, kOutlierRadius / dn);
            for (std::size_t c = 0; c < d; ++c) x[c] = dir[c];
            y = (rng.uniform() < 0.5) ? 1.0 : -1.0;
        }
        labels[i] = y;
    }
    return models::Dataset(std::move(features), std::move(labels));
}

models::Dataset generate_regression_data(const linalg::Vector& theta_star, std::size_t n,
                                         double noise_sd, stats::Rng& rng) {
    if (theta_star.size() < 2) {
        throw std::invalid_argument("generate_regression_data: theta needs >= 2 dims");
    }
    if (!(noise_sd >= 0.0)) {
        throw std::invalid_argument("generate_regression_data: noise_sd must be >= 0");
    }
    const std::size_t d = theta_star.size() - 1;
    linalg::Matrix features(n, d + 1);
    linalg::Vector labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        double* x = features.row_data(i);
        for (std::size_t c = 0; c < d; ++c) x[c] = rng.normal();
        x[d] = 1.0;
        labels[i] = linalg::dot_n(theta_star.data(), x, d + 1) + rng.normal(0.0, noise_sd);
    }
    return models::Dataset(std::move(features), std::move(labels));
}

}  // namespace drel::data
