// End-to-end fleet simulation: contributors -> cloud -> prior -> edge fleet.
//
// This driver is the system-level integration point (and the engine of
// bench_fig7_fleet): it synthesizes a device population, lets the cloud
// distill it, broadcasts the prior to a fleet of data-poor edge devices, and
// scores each device against both the paper's method and the local-only
// baseline. Byte accounting for the broadcast is exact (taken from the
// encoder).
#pragma once

#include <vector>

#include "core/edge_learner.hpp"
#include "data/task_generator.hpp"
#include "edgesim/cloud.hpp"
#include "edgesim/faults.hpp"
#include "edgesim/transfer.hpp"
#include "stats/rng.hpp"

namespace drel::edgesim {

struct SimulationConfig {
    // Population.
    std::size_t feature_dim = 8;
    std::size_t num_modes = 4;
    double mode_radius = 2.5;
    double within_mode_var = 0.05;
    double margin_scale = 1.5;
    double label_noise = 0.02;

    // Cloud side.
    std::size_t num_contributors = 40;
    std::size_t contributor_samples = 400;
    CloudConfig cloud;

    // Edge side.
    std::size_t num_edge_devices = 20;
    std::size_t edge_samples = 24;
    std::size_t test_samples = 2000;
    core::EdgeLearnerConfig learner;

    /// Also train the component-posterior ensemble (core/ensemble.hpp) on
    /// every device and record its accuracy — the hedge against wrong-mode
    /// lock-in; costs K extra convex solves per device.
    bool run_ensemble = false;

    /// Worker threads for the per-device training loop. Devices are
    /// independent (forked RNG streams, indexed result slots), so any value
    /// produces bit-identical results; >1 just uses more cores.
    std::size_t num_threads = 1;

    /// Deterministic fault injection (all-zero by default: a perfect
    /// world). Fault decisions come from a dedicated forked stream, so
    /// enabling faults never perturbs the healthy path's data or training
    /// draws; a faulted device degrades (DeviceOutcome::degraded) instead
    /// of failing the run. See edgesim/faults.hpp.
    FaultConfig faults;
};

struct DeviceOutcome {
    std::string device_id;
    std::size_t mode_index = 0;
    double em_dro_accuracy = 0.0;
    double ensemble_accuracy = 0.0;   ///< 0 unless config.run_ensemble
    double local_erm_accuracy = 0.0;
    double bayes_accuracy = 0.0;
    /// Accuracy of the all-zero (never trained) model on this device's test
    /// set — the floor a crashed device scores at, and the baseline every
    /// graceful fallback must beat.
    double untrained_accuracy = 0.0;
    double train_seconds = 0.0;
    /// kNone for the healthy path; otherwise why and how this device's
    /// round degraded (crash, no usable prior, non-finite solve, ...).
    DegradedReason degraded = DegradedReason::kNone;
};

struct FleetReport {
    std::size_t prior_components = 0;
    std::size_t prior_bytes = 0;
    std::size_t total_broadcast_bytes = 0;   ///< prior_bytes * fleet size
    double cloud_seconds = 0.0;
    std::vector<DeviceOutcome> devices;

    double mean_em_dro_accuracy() const;
    double mean_local_erm_accuracy() const;
    /// Fraction of devices where EM-DRO strictly beats local ERM.
    double win_rate() const;
    /// Devices whose round ended on a degraded path (reason != kNone).
    std::size_t degraded_devices() const;
};

/// Runs the whole pipeline deterministically from `rng`.
FleetReport run_fleet_simulation(const SimulationConfig& config, stats::Rng& rng);

}  // namespace drel::edgesim
