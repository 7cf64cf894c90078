#include "dro/ambiguity.hpp"

#include <cmath>
#include <stdexcept>

namespace drel::dro {
namespace {

void check_radius(double rho) {
    if (!(rho >= 0.0)) throw std::invalid_argument("AmbiguitySet: radius must be >= 0");
}

}  // namespace

const char* ambiguity_name(AmbiguityKind kind) noexcept {
    switch (kind) {
        case AmbiguityKind::kNone: return "none";
        case AmbiguityKind::kWasserstein: return "wasserstein";
        case AmbiguityKind::kKl: return "kl";
        case AmbiguityKind::kChiSquare: return "chi-square";
    }
    return "unknown";
}

AmbiguitySet AmbiguitySet::wasserstein(double rho) {
    check_radius(rho);
    return {AmbiguityKind::kWasserstein, rho};
}

AmbiguitySet AmbiguitySet::kl(double rho) {
    check_radius(rho);
    return {AmbiguityKind::kKl, rho};
}

double radius_for_sample_size(double c, std::size_t n) {
    if (!(c >= 0.0)) throw std::invalid_argument("radius_for_sample_size: c must be >= 0");
    if (n == 0) throw std::invalid_argument("radius_for_sample_size: n must be > 0");
    return c / std::sqrt(static_cast<double>(n));
}

}  // namespace drel::dro
