// Shared helpers for the test suite: bit-level comparisons and the
// fixed-seed dataset/fixture builders that used to be copy-pasted across
// test files. Every builder performs the exact same RNG call sequence as
// the locals it replaced, so adopting it never shifts a test's data.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "data/task_generator.hpp"
#include "dp/mixture_prior.hpp"
#include "edgesim/simulation.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"

namespace drel::test_support {

/// Bitwise double equality — what the determinism tests actually assert
/// (== would conflate -0.0/0.0 and is a lint trap for exact checks).
inline bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// bits_equal over whole vectors (sizes must match too).
inline bool vectors_bits_equal(const linalg::Vector& a, const linalg::Vector& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!bits_equal(a[i], b[i])) return false;
    }
    return true;
}

/// Raw f64 bit pattern as 16 hex digits. Pins of float results record
/// these, so a match means bit-identical, not equal-when-printed.
inline std::string hex_bits(double value) {
    std::uint64_t pattern = 0;
    std::memcpy(&pattern, &value, sizeof(pattern));
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(pattern));
    return buffer;
}

/// FNV-1a over the f64 bit patterns of `values`, as 16 hex digits: one pin
/// for a whole array of float results, matching only when every element is
/// bit-identical.
inline std::string bits_digest(const std::vector<double>& values) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const double value : values) {
        std::uint64_t pattern = 0;
        std::memcpy(&pattern, &value, sizeof(pattern));
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (pattern >> (8 * byte)) & 0xffU;
            hash *= 0x100000001b3ULL;
        }
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
    return buffer;
}

/// rows x cols matrix from row-major `values` (values.size() == rows * cols).
inline linalg::Matrix matrix_of(std::size_t rows, std::size_t cols,
                                const std::vector<double>& values) {
    EXPECT_EQ(values.size(), rows * cols);
    linalg::Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = values[r * cols + c];
    }
    return m;
}

/// The rank-one matrix x yᵀ.
inline linalg::Matrix outer(const linalg::Vector& x, const linalg::Vector& y) {
    linalg::Matrix m(x.size(), y.size());
    for (std::size_t r = 0; r < x.size(); ++r) {
        for (std::size_t c = 0; c < y.size(); ++c) m(r, c) = x[r] * y[c];
    }
    return m;
}

/// A degraded reason's lowercase name, as the fault.degraded.<name>
/// counters and the golden files spell it.
inline const char* degraded_reason_name(edgesim::DegradedReason reason) {
    static constexpr const char* kNames[] = {"none",           "crashed",
                                             "straggler",      "fallback_local_erm",
                                             "stale_prior",    "upload_dropped",
                                             "non_finite",     "backpressure",
                                             "rejoin_stale_prior"};
    return kNames[static_cast<std::size_t>(reason)];
}

/// Pearson chi-square with small-expected-bin merging: bins whose expected
/// count falls below 5 pool into one synthetic bin, per standard practice.
/// Returns the statistic and reports the post-merge degrees of freedom.
inline double chi_square_statistic(const std::vector<std::uint64_t>& observed,
                                   const std::vector<double>& probabilities,
                                   std::uint64_t total_draws, std::size_t* df_out) {
    EXPECT_EQ(observed.size(), probabilities.size());
    double statistic = 0.0;
    std::size_t bins = 0;
    double pooled_expected = 0.0;
    double pooled_observed = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double expected = probabilities[i] * static_cast<double>(total_draws);
        if (expected >= 5.0) {
            const double diff = static_cast<double>(observed[i]) - expected;
            statistic += diff * diff / expected;
            ++bins;
        } else {
            pooled_expected += expected;
            pooled_observed += static_cast<double>(observed[i]);
        }
    }
    if (pooled_expected > 0.0) {
        const double diff = pooled_observed - pooled_expected;
        statistic += diff * diff / pooled_expected;
        ++bins;
    }
    *df_out = bins > 1 ? bins - 1 : 1;
    return statistic;
}

/// Critical value df + 5*sqrt(2*df): roughly five standard deviations above
/// the chi-square mean. The statistical suites draw from fixed seeds, so a
/// statistic is a deterministic number; this bound is far past any healthy
/// draw yet far below what a real distribution bug produces.
inline double chi_square_critical(std::size_t df) {
    return static_cast<double>(df) + 5.0 * std::sqrt(2.0 * static_cast<double>(df));
}

/// Small binary-task dataset from a 2-mode synthetic population (feature
/// dim 4, radius 2.0, within-mode var 0.05). The shape shared by the DRO
/// tests.
inline models::Dataset binary_task_dataset(stats::Rng& rng, std::size_t n) {
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    const data::TaskSpec task = pop.sample_task(rng);
    return pop.generate(task, n, rng);
}

/// The true population mixture as a prior: one atom per mode. Isolates
/// learner tests from DPMM inference quality.
inline dp::MixturePrior oracle_prior_of(const data::TaskPopulation& population) {
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (const auto& mode : population.modes()) {
        weights.push_back(mode.weight);
        atoms.emplace_back(mode.mean, mode.covariance);
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

/// Edge-task fixture on a 3-mode population (dim 5, radius 2.5,
/// margin_scale 2.0) with the oracle prior. Used by the core and baseline
/// suites; n_test differs between them, so it is a parameter.
struct PopulationFixture {
    data::TaskPopulation population;
    data::TaskSpec task;
    models::Dataset train;
    models::Dataset test;
    dp::MixturePrior prior;
};

inline PopulationFixture make_population_fixture(std::uint64_t seed, std::size_t n_train,
                                                 std::size_t n_test) {
    stats::Rng rng(seed);
    data::TaskPopulation population =
        data::TaskPopulation::make_synthetic(5, 3, 2.5, 0.05, rng);
    data::TaskSpec task = population.sample_task(rng);
    data::DataOptions options;
    options.margin_scale = 2.0;
    models::Dataset train = population.generate(task, n_train, rng, options);
    models::Dataset test = population.generate(task, n_test, rng, options);
    dp::MixturePrior prior = oracle_prior_of(population);
    return PopulationFixture{std::move(population), std::move(task), std::move(train),
                             std::move(test), std::move(prior)};
}

/// Small fleet scenario shared by the determinism and golden-metrics
/// suites: 8 contributors, 6 edge devices, 3 modes — a full pipeline run
/// in well under a second.
inline edgesim::SimulationConfig small_fleet_config() {
    edgesim::SimulationConfig config;
    config.feature_dim = 5;
    config.num_modes = 3;
    config.num_contributors = 8;
    config.contributor_samples = 120;
    config.num_edge_devices = 6;
    config.edge_samples = 10;
    config.test_samples = 300;
    config.cloud.gibbs_sweeps = 20;
    config.learner.em.max_outer_iterations = 8;
    config.run_ensemble = true;
    return config;
}

}  // namespace drel::test_support
