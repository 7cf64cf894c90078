// E19 (extension) — the closed loop: feedback + online prior updates when a
// novel device type appears mid-deployment.
//
// A 3-type population runs for 9 rounds; from round 3 on, half of each
// round's new devices are a FOURTH, previously unseen type. Two worlds:
//   feedback ON  — devices upload fitted parameters, the cloud's DP
//                  posterior absorbs them online (DpmmGibbs::add_observation)
//                  and re-broadcasts when the prior drifts (symmetric-KL
//                  trigger);
//   feedback OFF — the round-0 prior is frozen forever.
// Expect: identical until round 3; afterwards the frozen world's novel-type
// accuracy stays depressed while the feedback world recovers within 1-2
// rounds as the posterior opens a cluster for the new type. The bytes
// column shows what the recovery costs on the wire.
#include "edgesim/lifecycle.hpp"

#include "bench_common.hpp"

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_fig14_lifecycle");
    bench::print_header("E19 (Fig. 14, extension)",
                        "Lifecycle with a novel device type from round 3 (half of new "
                        "devices), mean+-std over 4 seeds. nov-acc = accuracy of "
                        "novel-type devices that round.");

    const int num_seeds = 4;
    const std::size_t rounds = 9;

    struct World {
        std::vector<stats::RunningStats> mean_acc{rounds};
        std::vector<stats::RunningStats> novel_acc{rounds};
        std::vector<stats::RunningStats> components{rounds};
        stats::RunningStats total_bytes;
        int rebroadcasts = 0;
    };
    World fed;
    World frozen;

    for (int s = 0; s < num_seeds; ++s) {
        edgesim::LifecycleConfig config;
        config.rounds = rounds;
        config.devices_per_round = 10;
        config.novel_mode_round = 3;
        config.learner.transfer_weight = 2.0;
        config.learner.em.max_outer_iterations = 12;

        for (const bool feedback : {true, false}) {
            config.feedback = feedback;
            stats::Rng rng(4200 + s);
            const edgesim::EngineReport report = edgesim::run_lifecycle(config, rng);
            World& world = feedback ? fed : frozen;
            for (std::size_t r = 0; r < rounds; ++r) {
                world.mean_acc[r].push(report.rounds[r].mean_accuracy);
                if (report.rounds[r].novel_mode_accuracy >= 0.0) {
                    world.novel_acc[r].push(report.rounds[r].novel_mode_accuracy);
                }
                world.components[r].push(
                    static_cast<double>(report.rounds[r].prior_components));
                if (r > 0 && report.rounds[r].rebroadcast) ++world.rebroadcasts;
            }
            world.total_bytes.push(static_cast<double>(report.total_broadcast_bytes +
                                                       report.total_upload_bytes));
        }
    }

    util::Table table({"round", "fed acc", "fed nov-acc", "fed K", "frozen acc",
                       "frozen nov-acc", "frozen K"});
    for (std::size_t r = 0; r < rounds; ++r) {
        auto nov = [&](World& w) {
            return w.novel_acc[r].count() == 0 ? std::string("-")
                                               : bench::mean_std(w.novel_acc[r]);
        };
        table.add_row({std::to_string(r), bench::mean_std(fed.mean_acc[r]), nov(fed),
                       bench::mean_std(fed.components[r], 1),
                       bench::mean_std(frozen.mean_acc[r]), nov(frozen),
                       bench::mean_std(frozen.components[r], 1)});
    }
    table.print(std::cout);

    std::cout << "\nfeedback world : " << fed.rebroadcasts << " re-broadcasts across "
              << num_seeds << " seeds, " << bench::mean_std(fed.total_bytes, 0)
              << " total bytes (broadcast + uploads)\n"
              << "frozen world   : " << frozen.rebroadcasts << " re-broadcasts, "
              << bench::mean_std(frozen.total_bytes, 0) << " total bytes\n";
    return 0;
}
