// Distribution-shift transforms applied to already-generated datasets.
//
// The DRO ambiguity set exists to absorb exactly these perturbations; the
// benches apply them to held-out data to measure how much each method's
// accuracy degrades. All transforms leave the bias column (assumed LAST)
// untouched.
#pragma once

#include "models/dataset.hpp"
#include "stats/rng.hpp"

namespace drel::data {

/// Adds `delta` to the non-bias features of every example.
models::Dataset apply_mean_shift(const models::Dataset& d, const linalg::Vector& delta);

/// Rotates the first two non-bias feature coordinates by `angle` radians —
/// a structured covariate shift that no mean-shift can express.
models::Dataset apply_rotation(const models::Dataset& d, double angle);

/// Resamples to a target positive-class fraction (label shift), sampling
/// with replacement within each class. Throws if a needed class is absent.
models::Dataset apply_label_shift(const models::Dataset& d, double positive_fraction,
                                  stats::Rng& rng);

/// Adds iid Gaussian noise with the given stddev to non-bias features.
models::Dataset apply_feature_noise(const models::Dataset& d, double stddev, stats::Rng& rng);

}  // namespace drel::data
