// Cross-layer determinism tests for the shared executor: the fleet
// simulation, EM multi-start, and collaborative multi-start must produce
// bit-identical results at any thread count (per-index Rng::fork streams,
// indexed result slots, fixed-order winner scans). These are the tests the
// sanitizer flow (scripts/check_sanitizers.sh, DREL_SANITIZE=thread|address)
// runs to shake out data races in the hot paths.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/em_dro.hpp"
#include "data/task_generator.hpp"
#include "dp/mixture_prior.hpp"
#include "edgesim/collaborative.hpp"
#include "edgesim/simulation.hpp"
#include "models/metrics.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"
#include "util/executor.hpp"
#include "util/workspace.hpp"

namespace drel {
namespace {

using test_support::bits_equal;

// ------------------------------------------------------------------- fleet

using test_support::small_fleet_config;

TEST(FleetDeterminism, BitIdenticalAcrossThreadCounts) {
    edgesim::SimulationConfig config = small_fleet_config();
    config.num_threads = 1;
    stats::Rng serial_rng(4242);
    const edgesim::FleetReport serial = edgesim::run_fleet_simulation(config, serial_rng);

    for (const std::size_t threads : {2u, 4u, 8u}) {
        config.num_threads = threads;
        stats::Rng rng(4242);
        const edgesim::FleetReport parallel = edgesim::run_fleet_simulation(config, rng);
        ASSERT_EQ(serial.devices.size(), parallel.devices.size()) << "threads=" << threads;
        EXPECT_EQ(serial.prior_bytes, parallel.prior_bytes);
        EXPECT_EQ(serial.prior_components, parallel.prior_components);
        for (std::size_t i = 0; i < serial.devices.size(); ++i) {
            const auto& s = serial.devices[i];
            const auto& p = parallel.devices[i];
            EXPECT_EQ(s.device_id, p.device_id);
            EXPECT_EQ(s.mode_index, p.mode_index);
            EXPECT_TRUE(bits_equal(s.em_dro_accuracy, p.em_dro_accuracy))
                << "threads=" << threads << " device=" << i;
            EXPECT_TRUE(bits_equal(s.ensemble_accuracy, p.ensemble_accuracy))
                << "threads=" << threads << " device=" << i;
            EXPECT_TRUE(bits_equal(s.local_erm_accuracy, p.local_erm_accuracy))
                << "threads=" << threads << " device=" << i;
            EXPECT_TRUE(bits_equal(s.bayes_accuracy, p.bayes_accuracy))
                << "threads=" << threads << " device=" << i;
        }
    }
}

// ------------------------------------------------- EM multi-start & collab

struct Fixture {
    data::TaskPopulation population;
    data::TaskSpec task;
    std::vector<models::Dataset> local;
    dp::MixturePrior prior;
};

Fixture make_fixture(std::uint64_t seed, std::size_t devices, std::size_t samples_each) {
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
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (const auto& mode : population.modes()) {
        weights.push_back(mode.weight);
        atoms.emplace_back(mode.mean, mode.covariance);
    }
    return Fixture{std::move(population), std::move(task), std::move(local),
                   dp::MixturePrior(std::move(weights), std::move(atoms))};
}

TEST(EmDroDeterminism, ParallelMultiStartBitIdenticalToSerial) {
    const Fixture f = make_fixture(7, 1, 20);
    const auto loss = models::make_logistic_loss();

    core::EmDroOptions serial_options;
    serial_options.num_threads = 1;
    const core::EmDroSolver serial_solver(f.local[0], *loss, f.prior,
                                          dro::AmbiguitySet::wasserstein(0.1), 2.0,
                                          serial_options);
    const core::EmDroResult serial = serial_solver.solve();

    for (const std::size_t threads : {2u, 4u, 8u}) {
        core::EmDroOptions options;
        options.num_threads = threads;
        const core::EmDroSolver solver(f.local[0], *loss, f.prior,
                                       dro::AmbiguitySet::wasserstein(0.1), 2.0, options);
        const core::EmDroResult parallel = solver.solve();
        EXPECT_TRUE(bits_equal(serial.objective, parallel.objective))
            << "threads=" << threads;
        EXPECT_EQ(serial.total_outer_iterations, parallel.total_outer_iterations);
        ASSERT_EQ(serial.theta.size(), parallel.theta.size());
        for (std::size_t d = 0; d < serial.theta.size(); ++d) {
            EXPECT_TRUE(bits_equal(serial.theta[d], parallel.theta[d]))
                << "threads=" << threads << " dim=" << d;
        }
    }
}

TEST(CollaborativeDeterminism, ParallelMultiStartBitIdenticalToSerial) {
    const Fixture f = make_fixture(11, 3, 16);
    std::vector<const models::Dataset*> devices;
    for (const auto& d : f.local) devices.push_back(&d);

    edgesim::CollaborativeConfig config;
    config.max_outer_iterations = 6;
    config.num_threads = 1;
    const edgesim::CollaborativeResult serial =
        edgesim::collaborative_fit(devices, f.prior, config);

    for (const std::size_t threads : {2u, 4u, 8u}) {
        config.num_threads = threads;
        const edgesim::CollaborativeResult parallel =
            edgesim::collaborative_fit(devices, f.prior, config);
        EXPECT_TRUE(bits_equal(serial.objective, parallel.objective))
            << "threads=" << threads;
        EXPECT_EQ(serial.outer_iterations, parallel.outer_iterations);
        const auto& sw = serial.model.weights();
        const auto& pw = parallel.model.weights();
        ASSERT_EQ(sw.size(), pw.size());
        for (std::size_t d = 0; d < sw.size(); ++d) {
            EXPECT_TRUE(bits_equal(sw[d], pw[d])) << "threads=" << threads << " dim=" << d;
        }
    }
}

// The fleet's per-device EM can itself request multi-start parallelism;
// nesting must serialize transparently and stay deterministic.
TEST(FleetDeterminism, NestedEmParallelismStaysBitIdentical) {
    edgesim::SimulationConfig config = small_fleet_config();
    config.run_ensemble = false;
    config.num_threads = 1;
    config.learner.em.num_threads = 1;
    stats::Rng serial_rng(99);
    const edgesim::FleetReport serial = edgesim::run_fleet_simulation(config, serial_rng);

    config.num_threads = 4;
    config.learner.em.num_threads = 4;  // nested: serialized by the executor
    stats::Rng rng(99);
    const edgesim::FleetReport nested = edgesim::run_fleet_simulation(config, rng);
    ASSERT_EQ(serial.devices.size(), nested.devices.size());
    for (std::size_t i = 0; i < serial.devices.size(); ++i) {
        EXPECT_TRUE(bits_equal(serial.devices[i].em_dro_accuracy,
                               nested.devices[i].em_dro_accuracy))
            << "device=" << i;
    }
}

// ----------------------------------------------- workspace-threaded kernels

// The allocation-free kernels lean on one thread_local Workspace arena per
// worker (util/workspace.hpp). Two things must hold for the bit-identity
// story to survive parallelism: (a) results must not depend on WHICH arena a
// worker happens to own — i.e. the kernels are pure in everything but their
// scratch space — and (b) a reused arena must behave exactly like a fresh
// one (stale contents never leak into results, `vec` leases are fully
// overwritten before being read).

TEST(WorkspaceKernels, ThreadLocalArenasBitIdenticalAcrossThreadCounts) {
    const auto fixture = test_support::make_population_fixture(31, 30, 10);
    stats::Rng rng(71);
    std::vector<linalg::Vector> thetas;
    for (int i = 0; i < 64; ++i) {
        thetas.push_back(rng.standard_normal_vector(fixture.prior.dim()));
    }

    // Serial baseline through the public (thread_local-workspace) entry
    // points — the exact code path the EM inner loop takes.
    std::vector<double> base_log_pdf(thetas.size());
    std::vector<linalg::Vector> base_resp(thetas.size());
    for (std::size_t i = 0; i < thetas.size(); ++i) {
        base_log_pdf[i] = fixture.prior.log_pdf(thetas[i]);
        base_resp[i] = fixture.prior.responsibilities(thetas[i]);
    }

    for (const std::size_t threads : {2u, 4u, 8u}) {
        std::vector<double> log_pdf(thetas.size());
        std::vector<linalg::Vector> resp(thetas.size());
        util::parallel_for(thetas.size(), threads, [&](std::size_t i) {
            log_pdf[i] = fixture.prior.log_pdf(thetas[i]);
            fixture.prior.responsibilities_into(thetas[i], resp[i],
                                                util::Workspace::local());
        });
        for (std::size_t i = 0; i < thetas.size(); ++i) {
            EXPECT_TRUE(bits_equal(base_log_pdf[i], log_pdf[i]))
                << "threads=" << threads << " i=" << i;
            ASSERT_EQ(base_resp[i].size(), resp[i].size());
            for (std::size_t k = 0; k < resp[i].size(); ++k) {
                EXPECT_TRUE(bits_equal(base_resp[i][k], resp[i][k]))
                    << "threads=" << threads << " i=" << i << " k=" << k;
            }
        }
    }
}

TEST(WorkspaceKernels, ReusedArenaBitIdenticalToFreshAllocation) {
    const auto fixture = test_support::make_population_fixture(13, 30, 10);
    stats::Rng rng(5);
    util::Workspace reused;
    for (int iter = 0; iter < 50; ++iter) {
        const linalg::Vector theta = rng.standard_normal_vector(fixture.prior.dim());
        const linalg::Vector r = fixture.prior.responsibilities(theta);

        util::Workspace fresh;  // brand-new arena every call
        const double q_fresh = fixture.prior.em_surrogate_ws(theta, r, fresh);
        const double q_reused = fixture.prior.em_surrogate_ws(theta, r, reused);
        EXPECT_TRUE(bits_equal(q_fresh, q_reused)) << "iter=" << iter;

        linalg::Vector g_fresh;
        linalg::Vector g_reused;
        {
            util::Workspace fresh2;
            fixture.prior.em_surrogate_gradient_into(theta, r, g_fresh, fresh2);
        }
        fixture.prior.em_surrogate_gradient_into(theta, r, g_reused, reused);
        ASSERT_EQ(g_fresh.size(), g_reused.size());
        for (std::size_t d = 0; d < g_fresh.size(); ++d) {
            EXPECT_TRUE(bits_equal(g_fresh[d], g_reused[d]))
                << "iter=" << iter << " dim=" << d;
        }
        // Every lease must have been returned: a non-zero depth here means a
        // kernel is holding scratch across calls (ownership-rule violation).
        EXPECT_EQ(reused.depth(), 0u);
    }
}

// The full solve is the integration-level statement of the same property:
// EmDroSolver threads one workspace per runner through the E- and M-steps,
// so its result must not depend on the thread count (already covered above)
// NOR on how many solves the arenas have already served.
TEST(WorkspaceKernels, BackToBackSolvesBitIdentical) {
    const auto fixture = test_support::make_population_fixture(29, 24, 10);
    const auto loss = models::make_logistic_loss();
    core::EmDroOptions options;
    options.num_threads = 2;
    const core::EmDroSolver solver(fixture.train, *loss, fixture.prior,
                                   dro::AmbiguitySet::wasserstein(0.1), 2.0, options);
    const core::EmDroResult first = solver.solve();
    const core::EmDroResult second = solver.solve();  // arenas now warm
    EXPECT_TRUE(bits_equal(first.objective, second.objective));
    ASSERT_EQ(first.theta.size(), second.theta.size());
    for (std::size_t d = 0; d < first.theta.size(); ++d) {
        EXPECT_TRUE(bits_equal(first.theta[d], second.theta[d])) << "dim=" << d;
    }
}

// ----------------------------------------------------------------- metrics

// The observability contract (DESIGN.md "Observability"): the registry's
// deterministic snapshot — every counter, gauge, and histogram — must be
// BYTE-identical at any thread count, outer (fleet) and nested (EM
// multi-start) parallelism alike. Wall-clock timings are segregated out of
// this snapshot, which is exactly what makes the assertion possible.
TEST(MetricsDeterminism, FleetCountersBitIdenticalAcrossThreadCounts) {
    if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    edgesim::SimulationConfig config = small_fleet_config();
    std::string baseline;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        config.num_threads = threads;
        config.learner.em.num_threads = threads;  // nested parallelism too
        obs::Registry::global().reset();
        stats::Rng rng(4242);
        (void)edgesim::run_fleet_simulation(config, rng);
        const std::string snapshot = obs::Registry::global().deterministic_snapshot().dump();
        ASSERT_NE(snapshot.find("fleet.devices_trained"), std::string::npos);
        if (baseline.empty()) {
            baseline = snapshot;
        } else {
            EXPECT_EQ(baseline, snapshot) << "threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace drel
