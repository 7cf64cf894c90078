// E8 / Fig. 7 — fleet simulation: per-device accuracy distribution and the
// communication bill.
//
// 60 heterogeneous edge devices, one cloud broadcast. We print the
// per-device accuracy CDF (quantiles) for em-dro vs local-erm plus fleet
// aggregates. Expect the em-dro CDF to dominate (shifted right), the
// largest gains in the lower tail (devices whose few samples mislead ERM),
// and a per-device payload of a few KB vs the hundreds of KB that shipping
// raw contributor data would take.
//
// The run uses every thread of the shared executor (DREL_NUM_THREADS sizes
// it; default: hardware concurrency). All metrics go to stdout and are
// bit-identical at any thread count, while timing (wall clock, per-device
// train time) goes to stderr so
//   DREL_NUM_THREADS=1 ./bench_fig7_fleet > serial.txt
//   DREL_NUM_THREADS=8 ./bench_fig7_fleet > par8.txt && diff serial.txt par8.txt
// verifies determinism and the stderr lines show the speedup.
#include "edgesim/simulation.hpp"

#include "bench_common.hpp"
#include "util/executor.hpp"
#include "util/stopwatch.hpp"

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_fig7_fleet");
    bench::print_header("E8 (Fig. 7)",
                        "Fleet of 60 devices (n=16 local samples each), prior from 30 "
                        "contributors. Per-device accuracy quantiles + communication.");

    edgesim::SimulationConfig config;
    config.feature_dim = 8;
    config.num_modes = 4;
    config.num_contributors = 30;
    config.contributor_samples = 300;
    config.num_edge_devices = 60;
    config.edge_samples = 16;
    config.test_samples = 2000;
    config.cloud.gibbs_sweeps = 60;
    config.learner.transfer_weight = 2.0;
    config.num_threads = util::Executor::global().max_threads();
    config.run_ensemble = true;

    stats::Rng rng(42);
    util::Stopwatch total_watch;
    const edgesim::FleetReport report = edgesim::run_fleet_simulation(config, rng);
    const double total_seconds = total_watch.elapsed_seconds();

    linalg::Vector em_dro;
    linalg::Vector ensemble;
    linalg::Vector local;
    linalg::Vector train_ms;
    for (const auto& d : report.devices) {
        em_dro.push_back(d.em_dro_accuracy);
        ensemble.push_back(d.ensemble_accuracy);
        local.push_back(d.local_erm_accuracy);
        train_ms.push_back(d.train_seconds * 1e3);
    }

    util::Table quantiles(
        {"quantile", "em-dro acc", "ensemble acc", "local-erm acc", "em-dro gap"});
    for (const double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95}) {
        const double a = stats::quantile(em_dro, q);
        const double e = stats::quantile(ensemble, q);
        const double b = stats::quantile(local, q);
        quantiles.add_row({util::Table::fmt(q, 2), util::Table::fmt(a, 4),
                           util::Table::fmt(e, 4), util::Table::fmt(b, 4),
                           util::Table::fmt(a - b, 4)});
    }
    quantiles.print(std::cout);

    const std::size_t raw_upload_bytes = config.num_contributors *
                                         config.contributor_samples *
                                         (config.feature_dim + 2) * sizeof(double);
    std::cout << "\nfleet aggregates\n"
              << "  mean em-dro accuracy    : "
              << util::Table::fmt(report.mean_em_dro_accuracy(), 4) << "\n"
              << "  mean ensemble accuracy  : "
              << util::Table::fmt(stats::mean(ensemble), 4) << "\n"
              << "  mean local-erm accuracy : "
              << util::Table::fmt(report.mean_local_erm_accuracy(), 4) << "\n"
              << "  devices improved        : "
              << util::Table::fmt(100.0 * report.win_rate(), 1) << "%\n"
              << "  prior components        : " << report.prior_components << "\n"
              << "  per-device payload      : " << report.prior_bytes << " bytes\n"
              << "  total broadcast         : " << report.total_broadcast_bytes << " bytes\n"
              << "  (raw contributor data would be " << raw_upload_bytes
              << " bytes per device)\n";

    // Timing is nondeterministic by nature — keep it off stdout so metric
    // output diffs clean across thread counts.
    std::cerr << "timing (threads=" << config.num_threads << ")\n"
              << "  median device train time: " << util::Table::fmt(stats::median(train_ms), 1)
              << " ms\n"
              << "  cloud inference time    : " << util::Table::fmt(report.cloud_seconds, 2)
              << " s\n"
              << "  fleet wall clock        : " << util::Table::fmt(total_seconds, 2)
              << " s\n";
    return 0;
}
