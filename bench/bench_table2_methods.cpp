// E5 / Table II — method comparison across the scenario suite.
//
// Rows: the 7-method standard suite (+ oracle). Columns: the edge
// conditions of data/scenarios.hpp. Expect em-dro to be best or tied-best
// in every column, with the biggest margins under contamination (outliers,
// label-noise) and shift; cloud-only to be flat (data-free);
// local-erm to be the weakest under contamination.
#include "data/scenarios.hpp"

#include "bench_common.hpp"

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_table2_methods");
    bench::print_header("E5 (Table II)",
                        "Test accuracy per scenario (n_train=24), mean+-std over 5 seeds. "
                        "Prior learned by DPMM-Gibbs from 30 contributors per seed.");

    const std::vector<data::ScenarioKind> kinds = {
        data::ScenarioKind::kIid,        data::ScenarioKind::kCovariateShift,
        data::ScenarioKind::kLabelShift, data::ScenarioKind::kOutliers,
        data::ScenarioKind::kLabelNoise, data::ScenarioKind::kRotation};
    const std::size_t num_seeds = 5;

    // One trial per seed, run concurrently on the shared executor. Every
    // trial is self-contained (seeds derive from the trial index), and the
    // RunningStats accumulation below scans trials in seed order, so the
    // printed table is bit-identical at any thread count.
    struct SeedOutcome {
        std::vector<std::string> method_names;
        std::vector<std::vector<double>> accuracy;  // [method][scenario]
        std::vector<double> bayes;                  // [scenario]
    };
    const std::vector<SeedOutcome> outcomes =
        bench::parallel_trials(num_seeds, [&](std::size_t s) {
            SeedOutcome out;
            const bench::PipelineFixture fixture = bench::make_pipeline_fixture(900 + s);
            data::ScenarioConfig scenario_config;
            scenario_config.n_train = 24;
            scenario_config.n_test = 3000;
            scenario_config.margin_scale = 2.0;

            const auto suite =
                baselines::make_standard_suite(fixture.prior, models::LossKind::kLogistic);
            for (const auto& t : suite) out.method_names.push_back(t->name());
            out.accuracy.assign(suite.size(), std::vector<double>(kinds.size(), 0.0));
            out.bayes.assign(kinds.size(), 0.0);

            stats::Rng task_rng(1000 + s);
            const data::TaskSpec task = fixture.population.sample_task(task_rng);
            for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
                stats::Rng rng(2000 + 100 * s + static_cast<std::uint64_t>(ki));
                const data::Scenario scenario = data::make_scenario_for_task(
                    kinds[ki], scenario_config, fixture.population, task, rng);
                out.bayes[ki] = scenario.bayes_accuracy;
                for (std::size_t m = 0; m < suite.size(); ++m) {
                    out.accuracy[m][ki] = models::accuracy(
                        suite[m]->fit(scenario.edge_train), scenario.edge_test);
                }
            }
            return out;
        });

    const std::vector<std::string>& method_names = outcomes.front().method_names;
    std::vector<std::vector<stats::RunningStats>> accuracy(
        method_names.size(), std::vector<stats::RunningStats>(kinds.size()));
    std::vector<stats::RunningStats> bayes(kinds.size());
    for (const SeedOutcome& out : outcomes) {
        for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
            bayes[ki].push(out.bayes[ki]);
            for (std::size_t m = 0; m < method_names.size(); ++m) {
                accuracy[m][ki].push(out.accuracy[m][ki]);
            }
        }
    }

    std::vector<std::string> header = {"method"};
    for (const data::ScenarioKind kind : kinds) header.push_back(data::scenario_name(kind));
    util::Table table(header);
    for (std::size_t m = 0; m < method_names.size(); ++m) {
        std::vector<std::string> row = {method_names[m]};
        for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
            row.push_back(bench::mean_std(accuracy[m][ki]));
        }
        table.add_row(row);
    }
    std::vector<std::string> oracle_row = {"oracle(theta*)"};
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
        oracle_row.push_back(bench::mean_std(bayes[ki]));
    }
    table.add_row(oracle_row);
    table.print(std::cout);
    return 0;
}
