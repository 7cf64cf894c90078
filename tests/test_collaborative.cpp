// Tests for the consensus-ADMM collaborative fleet extension.
#include <gtest/gtest.h>

#include "core/em_dro.hpp"
#include "data/task_generator.hpp"
#include "edgesim/collaborative.hpp"
#include "models/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

struct Fleet {
    data::TaskPopulation population;
    data::TaskSpec task;
    std::vector<models::Dataset> local;   ///< all devices share the task
    models::Dataset test;
    dp::MixturePrior prior;
};

Fleet make_fleet(std::uint64_t seed, std::size_t devices, std::size_t samples_each) {
    stats::Rng rng(seed);
    data::TaskPopulation population =
        data::TaskPopulation::make_synthetic(5, 3, 2.5, 0.05, rng);
    data::TaskSpec task = population.sample_task(rng);
    data::DataOptions options;
    options.margin_scale = 2.0;
    std::vector<models::Dataset> local;
    for (std::size_t j = 0; j < devices; ++j) {
        local.push_back(population.generate(task, samples_each, rng, options));
    }
    models::Dataset test = population.generate(task, 2500, rng, options);
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (const auto& mode : population.modes()) {
        weights.push_back(mode.weight);
        atoms.emplace_back(mode.mean, mode.covariance);
    }
    return Fleet{std::move(population), std::move(task), std::move(local), std::move(test),
                 dp::MixturePrior(std::move(weights), std::move(atoms))};
}

std::vector<const models::Dataset*> pointers(const std::vector<models::Dataset>& v,
                                             std::size_t count) {
    std::vector<const models::Dataset*> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(&v[i]);
    return out;
}

TEST(Collaborative, SingleDeviceMatchesEmDroSolver) {
    // With one device the consensus constraint is vacuous, so the
    // collaborative fit must reach the EM-DRO solver's own optimum. Both
    // multi-start from the same points (prior mean plus the heaviest atoms);
    // a single start from the prior mean alone lands in a worse local optimum
    // on most seeds, so it is not the reference. Seeds 0-39 agree to ~1e-11.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const Fleet f = make_fleet(seed, 1, 24);
        CollaborativeConfig config;
        config.admm.max_iterations = 150;
        const CollaborativeResult collab =
            collaborative_fit(pointers(f.local, 1), f.prior, config);

        const auto loss = models::make_logistic_loss();
        const dro::AmbiguitySet set = dro::AmbiguitySet::wasserstein(
            dro::radius_for_sample_size(config.radius_coefficient, f.local[0].size()));
        const core::EmDroSolver solo(f.local[0], *loss, f.prior, set, config.transfer_weight);
        EXPECT_NEAR(collab.objective, solo.solve().objective, 2e-3) << "seed " << seed;
    }
}

TEST(Collaborative, ObjectiveTraceMonotone) {
    const Fleet f = make_fleet(2, 4, 12);
    const CollaborativeResult r = collaborative_fit(pointers(f.local, 4), f.prior);
    for (std::size_t i = 1; i < r.objective_trace.size(); ++i) {
        EXPECT_LE(r.objective_trace[i], r.objective_trace[i - 1] + 1e-7);
    }
    EXPECT_GE(r.total_admm_iterations, r.outer_iterations);
}

TEST(Collaborative, MoreDevicesImproveAccuracy) {
    // Same-task devices: pooling evidence through consensus must help on
    // average over seeds.
    double solo_total = 0.0;
    double group_total = 0.0;
    const int trials = 4;
    for (int t = 0; t < trials; ++t) {
        const Fleet f = make_fleet(10 + t, 6, 10);
        const CollaborativeResult solo = collaborative_fit(pointers(f.local, 1), f.prior);
        const CollaborativeResult group = collaborative_fit(pointers(f.local, 6), f.prior);
        solo_total += models::accuracy(solo.model, f.test);
        group_total += models::accuracy(group.model, f.test);
    }
    EXPECT_GT(group_total / trials, solo_total / trials - 1e-9);
}

TEST(Collaborative, ResponsibilitiesIdentifyTaskMode) {
    const Fleet f = make_fleet(3, 5, 20);
    const CollaborativeResult r = collaborative_fit(pointers(f.local, 5), f.prior);
    EXPECT_EQ(linalg::argmax(r.responsibilities), f.task.mode_index);
}

TEST(Collaborative, Validation) {
    const Fleet f = make_fleet(4, 2, 10);
    EXPECT_THROW(collaborative_fit({}, f.prior), std::invalid_argument);
    EXPECT_THROW(collaborative_fit({nullptr}, f.prior), std::invalid_argument);
    const models::Dataset wrong(test_support::matrix_of(2, 2, {1.0, 1.0, -1.0, 1.0}),
                                {1.0, -1.0});
    EXPECT_THROW(collaborative_fit({&wrong}, f.prior), std::invalid_argument);
    CollaborativeConfig bad;
    bad.transfer_weight = -1.0;
    EXPECT_THROW(collaborative_fit(pointers(f.local, 1), f.prior, bad),
                 std::invalid_argument);
}

TEST(Collaborative, WorksWithKlAmbiguity) {
    const Fleet f = make_fleet(5, 3, 15);
    CollaborativeConfig config;
    config.ambiguity = dro::AmbiguityKind::kKl;
    config.max_outer_iterations = 10;
    const CollaborativeResult r = collaborative_fit(pointers(f.local, 3), f.prior, config);
    EXPECT_GT(models::accuracy(r.model, f.test), 0.6);
}

}  // namespace
}  // namespace drel::edgesim
