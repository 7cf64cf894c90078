// E20 (extension) — graceful degradation under deterministic chaos.
//
// A single knob sweeps every fault probability together (crash, straggler,
// corrupted/stale prior, link outage, upload loss/garbling) from a perfect
// world to total chaos, on a fixed seed per rate. The fault schedule is a
// pure function of (seed, round, device), so each row is exactly
// reproducible and the faulted-device set grows monotonically in the rate.
// Expect: fleet accuracy decays toward the untrained floor as crashes bite,
// the degraded-device count rises to 100%, and the lifecycle keeps paying
// on-air retry bytes for uploads that never land — with zero aborted runs
// anywhere in the sweep.
#include "edgesim/faults.hpp"
#include "edgesim/lifecycle.hpp"
#include "edgesim/simulation.hpp"

#include "bench_common.hpp"

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_fig15_chaos");
    bench::print_header(
        "E20 (Fig. 15, extension)",
        "Fault-rate sweep: every fault probability set to the rate, fixed seed "
        "per row. fleet acc = mean EM-DRO accuracy; floor = mean untrained "
        "accuracy; degraded = devices off the healthy path; lc bytes = "
        "lifecycle upload bytes on the air (every retry attempt counted).");

    const std::vector<double> rates = {0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0};

    util::Table table({"rate", "fleet acc", "floor", "degraded", "lc acc",
                       "lc dropped", "lc retries", "lc bytes"});
    for (const double rate : rates) {
        edgesim::SimulationConfig fleet_config;
        fleet_config.num_contributors = 20;
        fleet_config.contributor_samples = 200;
        fleet_config.num_edge_devices = 24;
        fleet_config.edge_samples = 16;
        fleet_config.test_samples = 800;
        fleet_config.cloud.gibbs_sweeps = 40;
        fleet_config.learner.em.max_outer_iterations = 10;
        fleet_config.num_threads = util::Executor::global().max_threads();
        fleet_config.faults = edgesim::FaultConfig::uniform(rate);
        stats::Rng fleet_rng(1500);
        const edgesim::FleetReport fleet =
            edgesim::run_fleet_simulation(fleet_config, fleet_rng);

        double untrained = 0.0;
        for (const auto& device : fleet.devices) untrained += device.untrained_accuracy;
        untrained /= static_cast<double>(fleet.devices.size());

        edgesim::LifecycleConfig lc_config;
        lc_config.rounds = 5;
        lc_config.devices_per_round = 8;
        lc_config.initial_contributors = 16;
        lc_config.contributor_samples = 200;
        lc_config.gibbs_sweeps = 40;
        lc_config.learner.em.max_outer_iterations = 10;
        lc_config.faults = edgesim::FaultConfig::uniform(rate);
        stats::Rng lc_rng(1600);
        const edgesim::EngineReport lifecycle =
            edgesim::run_lifecycle(lc_config, lc_rng);

        stats::RunningStats lc_acc;
        std::size_t dropped = 0;
        for (const auto& round : lifecycle.rounds) {
            if (round.devices_scored > 0) lc_acc.push(round.mean_accuracy);
            dropped += round.uploads_dropped + round.uploads_garbled;
        }

        table.add_row({util::Table::fmt(rate, 2),
                       util::Table::fmt(fleet.mean_em_dro_accuracy(), 3),
                       util::Table::fmt(untrained, 3),
                       std::to_string(fleet.degraded_devices()) + "/" +
                           std::to_string(fleet.devices.size()),
                       lc_acc.count() > 0 ? util::Table::fmt(lc_acc.mean(), 3) : "-",
                       std::to_string(dropped),
                       std::to_string(lifecycle.total_upload_retries),
                       std::to_string(lifecycle.total_upload_bytes)});
    }
    table.print(std::cout);

    std::cout << "\nEvery row completed without a throw: faults degrade devices "
                 "(reported per-device DegradedReason), never the run.\n";
    return 0;
}
