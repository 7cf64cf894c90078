#include "edgesim/simulation.hpp"

#include <stdexcept>

#include "baselines/trainers.hpp"
#include "core/ensemble.hpp"
#include "edgesim/device.hpp"
#include "models/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/executor.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace drel::edgesim {

double FleetReport::mean_em_dro_accuracy() const {
    if (devices.empty()) return 0.0;
    double acc = 0.0;
    for (const auto& d : devices) acc += d.em_dro_accuracy;
    return acc / static_cast<double>(devices.size());
}

double FleetReport::mean_local_erm_accuracy() const {
    if (devices.empty()) return 0.0;
    double acc = 0.0;
    for (const auto& d : devices) acc += d.local_erm_accuracy;
    return acc / static_cast<double>(devices.size());
}

double FleetReport::win_rate() const {
    if (devices.empty()) return 0.0;
    std::size_t wins = 0;
    for (const auto& d : devices) {
        if (d.em_dro_accuracy > d.local_erm_accuracy) ++wins;
    }
    return static_cast<double>(wins) / static_cast<double>(devices.size());
}

std::size_t FleetReport::degraded_devices() const {
    std::size_t degraded = 0;
    for (const auto& d : devices) {
        if (d.degraded != DegradedReason::kNone) ++degraded;
    }
    return degraded;
}

FleetReport run_fleet_simulation(const SimulationConfig& config, stats::Rng& rng) {
    if (config.num_contributors < 2) {
        throw std::invalid_argument("run_fleet_simulation: need >= 2 contributors");
    }
    if (config.num_edge_devices == 0) {
        throw std::invalid_argument("run_fleet_simulation: need >= 1 edge device");
    }
    DREL_PROFILE_SCOPE("fleet.run");
    static obs::Counter& runs = obs::Registry::global().counter("fleet.runs");
    runs.add(1);

    stats::Rng population_rng = rng.fork(1);
    const data::TaskPopulation population = data::TaskPopulation::make_synthetic(
        config.feature_dim, config.num_modes, config.mode_radius, config.within_mode_var,
        population_rng);

    data::DataOptions data_options;
    data_options.margin_scale = config.margin_scale;
    data_options.label_noise = config.label_noise;

    FleetReport report;
    util::Stopwatch cloud_watch;

    // --- Cloud side: contributors upload, cloud distills. ---
    CloudNode cloud(config.cloud);
    stats::Rng contributor_rng = rng.fork(2);
    for (std::size_t j = 0; j < config.num_contributors; ++j) {
        stats::Rng device_rng = contributor_rng.fork(j);
        const data::TaskSpec task = population.sample_task(device_rng);
        cloud.add_contributor_data(
            population.generate(task, config.contributor_samples, device_rng, data_options));
    }
    stats::Rng prior_rng = rng.fork(3);
    const dp::MixturePrior prior = cloud.fit_prior(prior_rng);
    const std::vector<std::uint8_t> encoded = encode_prior(prior, config.encoding);
    report.cloud_seconds = cloud_watch.elapsed_seconds();
    report.prior_components = prior.num_components();
    report.prior_bytes = encoded.size();
    obs::Registry::global().gauge("fleet.prior_components").set(
        static_cast<double>(prior.num_components()));
    obs::Registry::global().gauge("fleet.prior_bytes").set(
        static_cast<double>(encoded.size()));
    DREL_LOG_INFO("edgesim") << "cloud prior: " << prior.num_components() << " components, "
                             << encoded.size() << " bytes";

    // --- Edge side: broadcast + local training on every fleet member. ---
    // Devices are fully independent: per-device forked RNG streams and
    // indexed result slots keep the run bit-identical at any thread count.
    // Fault decisions come from the plan's own forked stream (pure per
    // device), so a chaos run is just as schedule-independent.
    const FaultPlan fault_plan(config.faults, rng);
    const auto local_erm = baselines::make_local_erm(config.learner.loss);
    stats::Rng fleet_rng = rng.fork(4);
    report.devices.resize(config.num_edge_devices);
    report.total_broadcast_bytes = encoded.size() * config.num_edge_devices;
    static obs::Counter& broadcast_bytes =
        obs::Registry::global().counter("fleet.broadcast_bytes");
    broadcast_bytes.add(report.total_broadcast_bytes);
    const auto run_device = [&](std::size_t j) {
        DREL_PROFILE_SCOPE("fleet.device");
        const DeviceFaultDecision faults = fault_plan.device_faults(/*round=*/0, j);
        if (fault_plan.active()) record_injected_faults(faults);
        stats::Rng device_rng = fleet_rng.fork(j);
        const data::TaskSpec task = population.sample_task(device_rng);
        models::Dataset train =
            population.generate(task, config.edge_samples, device_rng, data_options);
        const models::Dataset test =
            population.generate(task, config.test_samples, device_rng, data_options);

        EdgeDevice device("edge-" + std::to_string(j), std::move(train), config.learner);
        DeviceOutcome& outcome = report.devices[j];
        outcome.device_id = device.id();
        outcome.mode_index = task.mode_index;
        outcome.untrained_accuracy = models::accuracy(
            models::LinearModel(linalg::zeros(device.local_data().dim())), test);
        outcome.local_erm_accuracy =
            models::accuracy(local_erm->fit(device.local_data()), test);
        outcome.bayes_accuracy =
            models::accuracy(models::LinearModel(task.theta_star), test);

        // Broadcast: a link outage means no payload at all; a corrupted
        // payload is rejected by the strict decoder inside the tolerant
        // install. Either way the device is left without a prior.
        bool prior_installed = false;
        if (!faults.link_outage) {
            prior_installed =
                faults.prior_corrupt
                    ? device.try_receive_prior(fault_plan.corrupt_payload(encoded, faults))
                    : device.try_receive_prior(encoded);
        }

        if (faults.crash) {
            // Died mid-training: the fleet scores what actually shipped —
            // nothing — so the device lands at the untrained floor.
            outcome.degraded = DegradedReason::kCrashed;
            outcome.em_dro_accuracy = outcome.untrained_accuracy;
        } else if (!prior_installed) {
            // Graceful fallback: without a valid prior the device runs the
            // paper's own local-only ERM baseline instead of aborting.
            DREL_PROFILE_SCOPE("fleet.fallback");
            outcome.degraded = DegradedReason::kFallbackLocalErm;
            outcome.em_dro_accuracy = outcome.local_erm_accuracy;
        } else {
            static obs::Counter& devices_trained =
                obs::Registry::global().counter("fleet.devices_trained");
            devices_trained.add(1);
            util::Stopwatch train_watch;
            const core::FitResult fit = device.train();
            outcome.train_seconds = train_watch.elapsed_seconds();
            if (fit.degraded) {
                // Non-finite solver state: keep the run alive, report the
                // device on the ERM fallback.
                outcome.degraded = DegradedReason::kNonFinite;
                outcome.em_dro_accuracy = outcome.local_erm_accuracy;
            } else {
                outcome.em_dro_accuracy = device.evaluate_accuracy(test);
                if (faults.straggler) outcome.degraded = DegradedReason::kStraggler;
            }
            if (config.run_ensemble) {
                core::EnsembleConfig ensemble_config;
                ensemble_config.loss = config.learner.loss;
                ensemble_config.radius_coefficient = config.learner.radius_coefficient;
                ensemble_config.transfer_weight = config.learner.transfer_weight;
                const core::EnsembleEdgeLearner ensemble(decode_prior(encoded),
                                                         ensemble_config);
                outcome.ensemble_accuracy = ensemble.fit(device.local_data()).accuracy(test);
            }
        }
        record_degradation(outcome.degraded);
    };

    util::parallel_for(config.num_edge_devices, config.num_threads, run_device);
    return report;
}

}  // namespace drel::edgesim
