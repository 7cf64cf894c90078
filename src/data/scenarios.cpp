#include "data/scenarios.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "data/shifts.hpp"
#include "models/linear_model.hpp"
#include "models/metrics.hpp"

namespace drel::data {
namespace {

/// Label noise of every scenario's training and test data.
constexpr double kBaseLabelNoise = 0.02;
/// Magnitude of the scenario-specific shift (meaning varies per kind).
constexpr double kShiftMagnitude = 1.0;

}  // namespace

const char* scenario_name(ScenarioKind kind) noexcept {
    switch (kind) {
        case ScenarioKind::kIid: return "iid";
        case ScenarioKind::kCovariateShift: return "covariate-shift";
        case ScenarioKind::kLabelShift: return "label-shift";
        case ScenarioKind::kOutliers: return "outliers";
        case ScenarioKind::kLabelNoise: return "label-noise";
        case ScenarioKind::kRotation: return "rotation";
    }
    return "unknown";
}

Scenario make_scenario_for_task(ScenarioKind kind, const ScenarioConfig& config,
                                const TaskPopulation& population, const TaskSpec& task,
                                stats::Rng& rng) {
    DataOptions train_options;
    train_options.label_noise = kBaseLabelNoise;
    train_options.margin_scale = config.margin_scale;
    DataOptions test_options = train_options;

    switch (kind) {
        case ScenarioKind::kIid:
            break;
        case ScenarioKind::kCovariateShift: {
            // Shift test features along a random direction of the configured
            // magnitude; training stays at the nominal distribution.
            linalg::Vector delta = rng.standard_normal_vector(population.feature_dim());
            const double n = linalg::norm2(delta);
            if (n > 0.0) linalg::scale(delta, kShiftMagnitude / n);
            test_options.feature_shift = delta;
            break;
        }
        case ScenarioKind::kLabelShift:
            break;  // applied post hoc below (resampling)
        case ScenarioKind::kOutliers:
            train_options.outlier_fraction = 0.15 * kShiftMagnitude;
            break;
        case ScenarioKind::kLabelNoise:
            train_options.label_noise = std::min(0.5, 0.15 * kShiftMagnitude);
            break;
        case ScenarioKind::kRotation:
            break;  // applied post hoc below
    }

    Scenario s{scenario_name(kind), population, task,
               population.generate(task, config.n_train, rng, train_options),
               population.generate(task, config.n_test, rng, test_options), 1.0};

    if (kind == ScenarioKind::kLabelShift) {
        s.edge_test = apply_label_shift(s.edge_test, 0.8, rng);
    } else if (kind == ScenarioKind::kRotation) {
        s.edge_test =
            apply_rotation(s.edge_test, kShiftMagnitude * std::numbers::pi / 6.0);
    }

    const models::LinearModel oracle(task.theta_star);
    s.bayes_accuracy = models::accuracy(oracle, s.edge_test);
    return s;
}

}  // namespace drel::data
