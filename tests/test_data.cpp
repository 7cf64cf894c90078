#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "data/csv_io.hpp"
#include "data/scenarios.hpp"
#include "data/shifts.hpp"
#include "data/task_generator.hpp"
#include "models/linear_model.hpp"
#include "models/metrics.hpp"
#include "stats/descriptive.hpp"
#include "test_support.hpp"

namespace drel::data {
namespace {

// ---------------------------------------------------------- task generator

TEST(TaskPopulation, SyntheticConstructionShape) {
    stats::Rng rng(1);
    const TaskPopulation pop = TaskPopulation::make_synthetic(6, 3, 2.0, 0.1, rng);
    EXPECT_EQ(pop.feature_dim(), 6u);
    EXPECT_EQ(pop.theta_dim(), 7u);
    EXPECT_EQ(pop.num_modes(), 3u);
}

TEST(TaskPopulation, RejectsInvalidConfig) {
    stats::Rng rng(2);
    EXPECT_THROW(TaskPopulation::make_synthetic(0, 3, 2.0, 0.1, rng), std::invalid_argument);
    EXPECT_THROW(TaskPopulation::make_synthetic(5, 0, 2.0, 0.1, rng), std::invalid_argument);
    EXPECT_THROW(TaskPopulation({}), std::invalid_argument);
}

TEST(TaskPopulation, TaskComesFromDeclaredMode) {
    stats::Rng rng(3);
    const TaskPopulation pop = TaskPopulation::make_synthetic(4, 4, 5.0, 0.01, rng);
    for (int i = 0; i < 20; ++i) {
        const TaskSpec task = pop.sample_task(rng);
        ASSERT_LT(task.mode_index, 4u);
        // With tiny within-mode variance the sampled theta must be closest
        // to its own mode's mean.
        double best = 1e18;
        std::size_t best_mode = 99;
        for (std::size_t k = 0; k < 4; ++k) {
            const double dist =
                linalg::distance2(task.theta_star, pop.modes()[k].mean);
            if (dist < best) {
                best = dist;
                best_mode = k;
            }
        }
        EXPECT_EQ(best_mode, task.mode_index);
    }
}

TEST(TaskPopulation, GeneratedDataHasBiasColumnLast) {
    stats::Rng rng(4);
    const TaskPopulation pop = TaskPopulation::make_synthetic(5, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    const models::Dataset d = pop.generate(task, 50, rng);
    EXPECT_EQ(d.dim(), 6u);
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_DOUBLE_EQ(d.feature_row(i)[5], 1.0);
    }
}

TEST(TaskPopulation, TrueModelAchievesHighAccuracyOnCrispData) {
    stats::Rng rng(5);
    const TaskPopulation pop = TaskPopulation::make_synthetic(6, 3, 3.0, 0.02, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.margin_scale = 6.0;  // crisp labels
    options.label_noise = 0.0;
    const models::Dataset d = pop.generate(task, 3000, rng, options);
    const models::LinearModel oracle(task.theta_star);
    EXPECT_GT(models::accuracy(oracle, d), 0.9);
}

TEST(TaskPopulation, LabelNoiseDegradesOracleAccuracy) {
    stats::Rng rng(6);
    const TaskPopulation pop = TaskPopulation::make_synthetic(6, 3, 3.0, 0.02, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions clean;
    clean.margin_scale = 6.0;
    clean.label_noise = 0.0;
    DataOptions noisy = clean;
    noisy.label_noise = 0.3;
    const models::LinearModel oracle(task.theta_star);
    const double acc_clean = models::accuracy(oracle, pop.generate(task, 4000, rng, clean));
    const double acc_noisy = models::accuracy(oracle, pop.generate(task, 4000, rng, noisy));
    EXPECT_GT(acc_clean - acc_noisy, 0.1);
}

TEST(TaskPopulation, FeatureShiftMovesMean) {
    stats::Rng rng(7);
    const TaskPopulation pop = TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.feature_shift = {5.0, 0.0, 0.0};
    const models::Dataset d = pop.generate(task, 2000, rng, options);
    stats::RunningStats first_coord;
    for (std::size_t i = 0; i < d.size(); ++i) first_coord.push(d.feature_row(i)[0]);
    EXPECT_NEAR(first_coord.mean(), 5.0, 0.2);
}

TEST(TaskPopulation, OutlierInjectionPlacesFarPoints) {
    stats::Rng rng(8);
    const TaskPopulation pop = TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.outlier_fraction = 0.2;
    const models::Dataset d = pop.generate(task, 100, rng, options);
    std::size_t far = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        linalg::Vector x = d.feature_row(i);
        x.pop_back();  // drop bias
        if (linalg::norm2(x) > 7.5) {
            ++far;  // outliers sit at distance 8
            EXPECT_NEAR(linalg::norm2(x), 8.0, 1e-12);
        }
    }
    EXPECT_EQ(far, 20u);
}

TEST(TaskPopulation, GenerateValidatesArguments) {
    stats::Rng rng(9);
    const TaskPopulation pop = TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    TaskSpec bad;
    bad.theta_star = {1.0};
    EXPECT_THROW(pop.generate(bad, 10, rng), std::invalid_argument);
    const TaskSpec task = pop.sample_task(rng);
    DataOptions options;
    options.feature_shift = {1.0};  // wrong dim
    EXPECT_THROW(pop.generate(task, 10, rng, options), std::invalid_argument);

    // Probabilities outside [0, 1] or NaN are rejected before any draw: the
    // stream is where it was.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const stats::Rng before = rng;
    for (const double bad_fraction : {-0.1, 1.5, nan}) {
        DataOptions outliers;
        outliers.outlier_fraction = bad_fraction;
        EXPECT_THROW(pop.generate(task, 10, rng, outliers), std::invalid_argument);
        DataOptions noise;
        noise.label_noise = bad_fraction;
        EXPECT_THROW(pop.generate(task, 10, rng, noise), std::invalid_argument);
    }
    stats::Rng untouched = before;
    EXPECT_EQ(rng.uniform(), untouched.uniform());

    // The closed ends are valid.
    DataOptions edges;
    edges.label_noise = 1.0;
    edges.outlier_fraction = 1.0;
    EXPECT_EQ(pop.generate(task, 10, rng, edges).size(), 10u);
}

// The bits of generate() under the default options and under each option
// that enters its arithmetic, and of generate_regression_data(). Recorded
// from the generator that built every sample in its own vector and copied
// it into the dataset, so writing samples straight into the rows has to
// reproduce each draw, shift, label and outlier.
TEST(TaskPopulation, GeneratePinned) {
    using test_support::bits_digest;
    const auto digest = [](const models::Dataset& d) {
        return bits_digest(d.features().data()) + " " + bits_digest(d.labels());
    };
    const auto generated = [&](const DataOptions& options) {
        stats::Rng rng(61);
        const TaskPopulation pop = TaskPopulation::make_synthetic(8, 3, 2.0, 0.1, rng);
        const TaskSpec task = pop.sample_task(rng);
        return digest(pop.generate(task, 48, rng, options));
    };
    DataOptions shifted;
    shifted.feature_shift = {0.5, -1.0, 0.25, 0.0, 2.0, -0.75, 1.5, -0.125};
    DataOptions noisy;
    noisy.label_noise = 0.3;
    DataOptions outliers;
    outliers.outlier_fraction = 0.25;

    EXPECT_EQ(generated({}), "1a6139bd2eb91e0b 73b8a315dab5d1a5");
    EXPECT_EQ(generated(shifted), "f8be73b3e144c11b 73b8a315dab5d1a5");
    EXPECT_EQ(generated(noisy), "1a6139bd2eb91e0b 70861396351e96a5");
    EXPECT_EQ(generated(outliers), "721c0096c548263c a3d8b2bd9b9045a5");

    stats::Rng rng(62);
    const linalg::Vector theta = rng.standard_normal_vector(9);
    EXPECT_EQ(digest(generate_regression_data(theta, 48, 0.5, rng)),
              "0ec1efed43b20619 86fb8fd963792f7d");
}

// ------------------------------------------------------------------ shifts

/// Fraction of labels equal to +1.
double positive_fraction(const models::Dataset& d) {
    std::size_t positives = 0;
    for (const double y : d.labels()) positives += y > 0.0 ? 1 : 0;
    return static_cast<double>(positives) / static_cast<double>(d.size());
}

models::Dataset shift_fixture(stats::Rng& rng, std::size_t n = 500) {
    const TaskPopulation pop = TaskPopulation::make_synthetic(4, 2, 2.0, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    return pop.generate(task, n, rng);
}

TEST(Shifts, MeanShiftLeavesBiasUntouched) {
    stats::Rng rng(10);
    const models::Dataset d = shift_fixture(rng);
    const models::Dataset shifted = apply_mean_shift(d, {1.0, -2.0, 0.0, 3.0});
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(shifted.feature_row(i)[4], 1.0);
        EXPECT_NEAR(shifted.feature_row(i)[0] - d.feature_row(i)[0], 1.0, 1e-12);
        EXPECT_NEAR(shifted.feature_row(i)[1] - d.feature_row(i)[1], -2.0, 1e-12);
    }
}

TEST(Shifts, RotationPreservesNorms) {
    stats::Rng rng(11);
    const models::Dataset d = shift_fixture(rng);
    const models::Dataset rotated = apply_rotation(d, 0.7);
    for (std::size_t i = 0; i < 10; ++i) {
        const auto a = d.feature_row(i);
        const auto b = rotated.feature_row(i);
        EXPECT_NEAR(a[0] * a[0] + a[1] * a[1], b[0] * b[0] + b[1] * b[1], 1e-9);
        EXPECT_DOUBLE_EQ(a[2], b[2]);  // untouched coordinate
    }
}

TEST(Shifts, FullCircleRotationIsIdentity) {
    stats::Rng rng(12);
    const models::Dataset d = shift_fixture(rng, 50);
    const models::Dataset rotated = apply_rotation(d, 2.0 * M_PI);
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_NEAR(linalg::distance2(d.feature_row(i), rotated.feature_row(i)), 0.0, 1e-9);
    }
}

TEST(Shifts, LabelShiftHitsTargetFraction) {
    stats::Rng rng(14);
    const models::Dataset d = shift_fixture(rng, 1000);
    const models::Dataset shifted = apply_label_shift(d, 0.8, rng);
    EXPECT_NEAR(positive_fraction(shifted), 0.8, 0.01);
    EXPECT_EQ(shifted.size(), d.size());
}

TEST(Shifts, LabelShiftRejectsImpossibleTargets) {
    // All-positive dataset cannot be resampled to contain negatives.
    const models::Dataset d(test_support::matrix_of(3, 2, {1.0, 1.0, 2.0, 1.0, 3.0, 1.0}),
                            {1.0, 1.0, 1.0});
    stats::Rng rng(15);
    EXPECT_THROW(apply_label_shift(d, 0.5, rng), std::invalid_argument);
}

TEST(Shifts, FeatureScaleAndNoise) {
    stats::Rng rng(16);
    const models::Dataset d = shift_fixture(rng, 100);
    const models::Dataset noisy = apply_feature_noise(d, 0.0, rng);
    EXPECT_NEAR(linalg::distance2(noisy.feature_row(0), d.feature_row(0)), 0.0, 1e-12);
}

// --------------------------------------------------------------- scenarios

/// The scenario benches' population shape: 8 features, 4 modes.
Scenario make_test_scenario(ScenarioKind kind, const ScenarioConfig& config,
                            stats::Rng& rng) {
    const TaskPopulation pop = TaskPopulation::make_synthetic(8, 4, 2.5, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    return make_scenario_for_task(kind, config, pop, task, rng);
}

TEST(Scenarios, AllKindsConstruct) {
    ScenarioConfig config;
    config.n_test = 500;
    for (const ScenarioKind kind :
         {ScenarioKind::kIid, ScenarioKind::kCovariateShift, ScenarioKind::kLabelShift,
          ScenarioKind::kOutliers, ScenarioKind::kLabelNoise, ScenarioKind::kRotation}) {
        stats::Rng rng(17);
        const Scenario s = make_test_scenario(kind, config, rng);
        EXPECT_EQ(s.name, scenario_name(kind));
        EXPECT_EQ(s.edge_train.size(), config.n_train);
        EXPECT_EQ(s.edge_test.size(), config.n_test);
        EXPECT_GT(s.bayes_accuracy, 0.5) << s.name;
    }
}

TEST(Scenarios, LabelShiftScenarioSkewsTestBalance) {
    ScenarioConfig config;
    config.n_test = 2000;
    stats::Rng rng(18);
    const Scenario s = make_test_scenario(ScenarioKind::kLabelShift, config, rng);
    EXPECT_NEAR(positive_fraction(s.edge_test), 0.8, 0.02);
}

TEST(Scenarios, SameTaskSharesGroundTruth) {
    ScenarioConfig config;
    config.n_test = 300;
    stats::Rng rng(19);
    const TaskPopulation pop = TaskPopulation::make_synthetic(8, 4, 2.5, 0.05, rng);
    const TaskSpec task = pop.sample_task(rng);
    const Scenario a = make_scenario_for_task(ScenarioKind::kIid, config, pop, task, rng);
    const Scenario b =
        make_scenario_for_task(ScenarioKind::kCovariateShift, config, pop, task, rng);
    EXPECT_NEAR(linalg::distance2(a.task.theta_star, b.task.theta_star), 0.0, 0.0);
}

// ------------------------------------------------------------------ CSV IO

TEST(CsvIo, RoundTripPreservesData) {
    stats::Rng rng(20);
    const models::Dataset d = shift_fixture(rng, 37);
    std::stringstream buffer;
    save_csv(d, buffer);
    const models::Dataset loaded = load_csv(buffer);
    ASSERT_EQ(loaded.size(), d.size());
    ASSERT_EQ(loaded.dim(), d.dim());
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_NEAR(linalg::distance2(loaded.feature_row(i), d.feature_row(i)), 0.0, 1e-12);
        EXPECT_DOUBLE_EQ(loaded.label(i), d.label(i));
    }
}

TEST(CsvIo, RejectsRaggedRows) {
    std::stringstream buffer("f0,f1,label\n1,2,1\n1,2,3,4\n");
    EXPECT_THROW(load_csv(buffer), std::invalid_argument);
}

TEST(CsvIo, RejectsNonNumeric) {
    std::stringstream buffer("f0,label\nabc,1\n");
    EXPECT_THROW(load_csv(buffer), std::invalid_argument);
}

TEST(CsvIo, RejectsEmpty) {
    std::stringstream empty("header\n");
    EXPECT_THROW(load_csv(empty), std::invalid_argument);
}

TEST(CsvIo, SkipsBlankLines) {
    std::stringstream buffer("f0,label\n1,1\n\n2,-1\n");
    const models::Dataset d = load_csv(buffer);
    EXPECT_EQ(d.size(), 2u);
}

}  // namespace
}  // namespace drel::data
