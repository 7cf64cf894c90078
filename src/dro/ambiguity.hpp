// Ambiguity (uncertainty) sets around the edge device's empirical
// distribution — the paper's second distributional constraint.
//
// B_rho(P_hat) is a ball of radius rho in one of three divergences:
//   * Wasserstein-1 with L2 transport cost on features (labels immutable):
//     captures covariate perturbations; radius has feature-space units.
//   * KL divergence: captures reweighting-style shifts, heavier tails.
//   * chi-square: variance-regularization behaviour, bounded reweighting.
#pragma once

#include <cstddef>

namespace drel::dro {

enum class AmbiguityKind { kNone, kWasserstein, kKl, kChiSquare };

const char* ambiguity_name(AmbiguityKind kind) noexcept;

struct AmbiguitySet {
    AmbiguityKind kind = AmbiguityKind::kNone;
    double radius = 0.0;

    static AmbiguitySet none() { return {AmbiguityKind::kNone, 0.0}; }
    static AmbiguitySet wasserstein(double rho);
    static AmbiguitySet kl(double rho);
};

/// The standard radius schedule rho(n) = c / sqrt(n): ambiguity shrinks as
/// the edge device accumulates data, matching the statistical rate at which
/// the empirical distribution concentrates.
double radius_for_sample_size(double c, std::size_t n);

}  // namespace drel::dro
