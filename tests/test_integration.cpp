// Cross-module integration tests: the full cloud -> transfer -> edge
// pipeline assembled from its real parts (no fixture shortcuts), exercising
// the same paths the benches and examples use.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/trainers.hpp"
#include "core/edge_learner.hpp"
#include "data/scenarios.hpp"
#include "data/shifts.hpp"
#include "data/task_generator.hpp"
#include "edgesim/cloud.hpp"
#include "edgesim/device.hpp"
#include "edgesim/transfer.hpp"
#include "models/metrics.hpp"
#include "stats/rng.hpp"

namespace drel {
namespace {

/// The full pipeline, one edge device, returning (em-dro acc, local acc).
struct PipelineOutcome {
    double em_dro = 0.0;
    double local = 0.0;
    double map_gaussian = 0.0;
    std::size_t prior_components = 0;
    std::size_t transfer_bytes = 0;
};

PipelineOutcome run_pipeline(std::uint64_t seed, std::size_t edge_samples,
                             edgesim::PriorInference inference) {
    stats::Rng rng(seed);
    const data::TaskPopulation pop =
        data::TaskPopulation::make_synthetic(6, 3, 2.5, 0.04, rng);
    data::DataOptions options;
    options.margin_scale = 2.0;

    // Cloud side.
    edgesim::CloudConfig cloud_config;
    cloud_config.gibbs_sweeps = 60;
    cloud_config.inference = inference;
    edgesim::CloudNode cloud(cloud_config);
    for (int j = 0; j < 18; ++j) {
        const data::TaskSpec task = pop.sample_task(rng);
        cloud.add_contributor_data(pop.generate(task, 300, rng, options));
    }
    const dp::MixturePrior prior = cloud.fit_prior(rng);
    const auto encoded = edgesim::encode_prior(prior);

    // Edge side.
    const data::TaskSpec edge_task = pop.sample_task(rng);
    const models::Dataset train = pop.generate(edge_task, edge_samples, rng, options);
    const models::Dataset test = pop.generate(edge_task, 2500, rng, options);

    core::EdgeLearnerConfig learner_config;
    learner_config.em.max_outer_iterations = 20;
    edgesim::EdgeDevice device("it-device", train, learner_config);
    device.receive_prior(encoded);
    device.train();

    PipelineOutcome outcome;
    outcome.em_dro = device.evaluate_accuracy(test);
    outcome.local = models::accuracy(
        baselines::make_local_erm(models::LossKind::kLogistic)->fit(train), test);
    outcome.map_gaussian = models::accuracy(
        baselines::make_map_gaussian(prior, models::LossKind::kLogistic)->fit(train), test);
    outcome.prior_components = prior.num_components();
    outcome.transfer_bytes = encoded.size();
    return outcome;
}

TEST(Integration, GibbsPipelineBeatsLocalAtSmallN) {
    double em = 0.0;
    double local = 0.0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const PipelineOutcome o = run_pipeline(seed, 12, edgesim::PriorInference::kGibbs);
        em += o.em_dro;
        local += o.local;
    }
    EXPECT_GT(em / 4.0, local / 4.0 + 0.02);
}

TEST(Integration, VariationalPipelineAlsoBeatsLocal) {
    double em = 0.0;
    double local = 0.0;
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
        const PipelineOutcome o =
            run_pipeline(seed, 12, edgesim::PriorInference::kVariational);
        em += o.em_dro;
        local += o.local;
    }
    EXPECT_GT(em / 3.0, local / 3.0);
}

TEST(Integration, TransferPayloadIsCompact) {
    const PipelineOutcome o = run_pipeline(1, 16, edgesim::PriorInference::kGibbs);
    // A prior over a 7-dim theta with a handful of atoms must be well under
    // 10 KB — the whole point of prior transfer vs raw-data upload.
    EXPECT_LT(o.transfer_bytes, 10000u);
    EXPECT_GE(o.prior_components, 2u);
}

TEST(Integration, AdvantageShrinksWithMoreLocalData) {
    // The transfer gain must taper: gap(n=8) > gap(n=256) on average.
    double gap_small = 0.0;
    double gap_large = 0.0;
    for (std::uint64_t seed = 20; seed < 23; ++seed) {
        const PipelineOutcome small_n =
            run_pipeline(seed, 8, edgesim::PriorInference::kGibbs);
        const PipelineOutcome large_n =
            run_pipeline(seed, 256, edgesim::PriorInference::kGibbs);
        gap_small += small_n.em_dro - small_n.local;
        gap_large += large_n.em_dro - large_n.local;
    }
    EXPECT_GT(gap_small / 3.0, gap_large / 3.0 - 0.01);
}

TEST(Integration, RobustnessUnderCovariateShiftAtTestTime) {
    // Train on clean data, evaluate on mean-shifted data: EM-DRO must
    // degrade more gracefully than local ERM (averaged over seeds).
    double em_total = 0.0;
    double local_total = 0.0;
    for (std::uint64_t seed = 30; seed < 34; ++seed) {
        stats::Rng rng(seed);
        const data::TaskPopulation pop =
            data::TaskPopulation::make_synthetic(6, 3, 2.5, 0.04, rng);
        data::DataOptions options;
        options.margin_scale = 2.0;

        edgesim::CloudConfig cloud_config;
        cloud_config.gibbs_sweeps = 50;
        edgesim::CloudNode cloud(cloud_config);
        for (int j = 0; j < 15; ++j) {
            const data::TaskSpec task = pop.sample_task(rng);
            cloud.add_contributor_data(pop.generate(task, 250, rng, options));
        }
        const dp::MixturePrior prior = cloud.fit_prior(rng);

        const data::TaskSpec edge_task = pop.sample_task(rng);
        const models::Dataset train = pop.generate(edge_task, 16, rng, options);
        models::Dataset test = pop.generate(edge_task, 2000, rng, options);
        linalg::Vector delta = rng.standard_normal_vector(6);
        linalg::scale(delta, 0.6 / linalg::norm2(delta));
        test = data::apply_mean_shift(test, delta);

        core::EdgeLearnerConfig config;
        config.em.max_outer_iterations = 15;
        const core::EdgeLearner learner(prior, config);
        em_total += models::accuracy(learner.fit(train).model, test);
        local_total += models::accuracy(
            baselines::make_local_erm(models::LossKind::kLogistic)->fit(train), test);
    }
    EXPECT_GT(em_total / 4.0, local_total / 4.0);
}

TEST(Integration, ScenarioSuiteEndToEnd) {
    // Every scenario must run through the full standard suite without error
    // and keep em-dro within sane accuracy bounds.
    data::ScenarioConfig config;
    config.n_train = 16;
    config.n_test = 800;
    stats::Rng rng(40);
    for (const data::ScenarioKind kind :
         {data::ScenarioKind::kIid, data::ScenarioKind::kCovariateShift,
          data::ScenarioKind::kOutliers}) {
        const data::TaskPopulation population =
            data::TaskPopulation::make_synthetic(8, 4, 2.5, 0.05, rng);
        const data::TaskSpec task = population.sample_task(rng);
        const data::Scenario scenario =
            data::make_scenario_for_task(kind, config, population, task, rng);
        linalg::Vector weights;
        std::vector<stats::MultivariateNormal> atoms;
        for (const auto& mode : scenario.population.modes()) {
            weights.push_back(mode.weight);
            atoms.emplace_back(mode.mean, mode.covariance);
        }
        const dp::MixturePrior prior(std::move(weights), std::move(atoms));
        core::EdgeLearnerConfig learner_config;
        learner_config.em.max_outer_iterations = 12;
        const core::EdgeLearner learner(prior, learner_config);
        const double acc = models::accuracy(learner.fit(scenario.edge_train).model,
                                            scenario.edge_test);
        EXPECT_GT(acc, 0.5) << scenario.name;
        EXPECT_LE(acc, scenario.bayes_accuracy + 0.08) << scenario.name;
    }
}

}  // namespace
}  // namespace drel
