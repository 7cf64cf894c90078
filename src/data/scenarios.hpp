// Named evaluation scenarios.
//
// Table II of the reconstructed evaluation compares methods across a suite
// of edge conditions; each scenario bundles a population, one device's task,
// a small local training set and a large held-out test set with the
// scenario's shift baked into it.
#pragma once

#include <string>

#include "data/task_generator.hpp"
#include "models/dataset.hpp"
#include "stats/rng.hpp"

namespace drel::data {

enum class ScenarioKind {
    kIid,             ///< train and test from the same device distribution
    kCovariateShift,  ///< test features mean-shifted relative to training
    kLabelShift,      ///< test class balance skewed to 80% positive
    kOutliers,        ///< training set contaminated with far-out random-label points
    kLabelNoise,      ///< training labels flipped at 15%
    kRotation,        ///< test features rotated by 30 degrees in the first plane
};

const char* scenario_name(ScenarioKind kind) noexcept;

struct ScenarioConfig {
    std::size_t n_train = 32;
    std::size_t n_test = 4000;
    double margin_scale = 1.5;
};

struct Scenario {
    std::string name;
    TaskPopulation population;
    TaskSpec task;
    models::Dataset edge_train;
    models::Dataset edge_test;
    double bayes_accuracy = 1.0;   ///< accuracy of theta* on the test set
};

/// Builds a scenario for an existing population and task — the same cloud
/// prior is evaluated across several conditions. All randomness flows
/// through `rng`.
Scenario make_scenario_for_task(ScenarioKind kind, const ScenarioConfig& config,
                                const TaskPopulation& population, const TaskSpec& task,
                                stats::Rng& rng);

}  // namespace drel::data
