#include "stats/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace drel::stats {
namespace {

/// High 64 bits of the 128-bit product a * b, plus its low 64 bits through
/// `low`. Built from 32-bit halves so it stays within ISO C++.
std::uint64_t mul_high(std::uint64_t a, std::uint64_t b, std::uint64_t* low) noexcept {
    constexpr std::uint64_t kMask = 0xFFFFFFFFULL;
    const std::uint64_t lo_lo = (a & kMask) * (b & kMask);
    const std::uint64_t lo_hi = (a & kMask) * (b >> 32);
    const std::uint64_t hi_lo = (a >> 32) * (b & kMask);
    const std::uint64_t hi_hi = (a >> 32) * (b >> 32);
    const std::uint64_t middle = (lo_lo >> 32) + (lo_hi & kMask) + (hi_lo & kMask);
    *low = (middle << 32) | (lo_lo & kMask);
    return hi_hi + (lo_hi >> 32) + (hi_lo >> 32) + (middle >> 32);
}

/// Accepted polar pairs drawn before their scales are taken.
constexpr std::size_t kPolarChunk = 4;

/// The factor that maps an accepted polar pair's (u, v) to two N(0,1).
double polar_scale(double s) { return std::sqrt(-2.0 * std::log(s) / s); }

}  // namespace

std::size_t Rng::uniform_index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::uniform_index: n must be positive");
    const std::uint64_t range = n;
    std::uint64_t low = 0;
    std::uint64_t index = mul_high(next(), range, &low);
    if (low < range) {
        // Reject the 2^64 mod n products that would over-weight low indices.
        const std::uint64_t threshold = (0 - range) % range;
        while (low < threshold) index = mul_high(next(), range, &low);
    }
    return static_cast<std::size_t>(index);
}

double Rng::normal() {
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    polar_pair(u, v, s);
    const double scale = polar_scale(s);
    spare_normal_ = v * scale;
    has_spare_normal_ = true;
    return u * scale;
}

void Rng::normals(double* out, std::size_t n) {
    std::size_t i = 0;
    if (n > 0 && has_spare_normal_) {
        has_spare_normal_ = false;
        out[i++] = spare_normal_;
    }
    while (i < n) {
        double u[kPolarChunk];
        double v[kPolarChunk];
        double s[kPolarChunk];
        const std::size_t pairs = std::min(kPolarChunk, (n - i + 1) / 2);
        for (std::size_t p = 0; p < pairs; ++p) polar_pair(u[p], v[p], s[p]);
        for (std::size_t p = 0; p < pairs; ++p) s[p] = polar_scale(s[p]);
        for (std::size_t p = 0; p < pairs; ++p) {
            out[i++] = u[p] * s[p];
            if (i < n) {
                out[i++] = v[p] * s[p];
            } else {
                spare_normal_ = v[p] * s[p];
                has_spare_normal_ = true;
            }
        }
    }
}

double Rng::normal(double mean, double stddev) {
    if (!(stddev >= 0.0)) throw std::invalid_argument("Rng::normal: stddev must be >= 0");
    return mean + stddev * normal();
}

double Rng::gamma(double shape, double scale) {
    if (!(shape > 0.0) || !(scale > 0.0)) {
        throw std::invalid_argument("Rng::gamma: shape and scale must be positive");
    }
    // Marsaglia–Tsang squeeze; boost shape < 1 via the standard power trick.
    if (shape < 1.0) {
        const double u = uniform();
        return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x;
        double v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
        if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
    }
}

double Rng::beta(double a, double b) {
    const double x = gamma(a);
    const double y = gamma(b);
    return x / (x + y);
}

std::size_t Rng::categorical(const linalg::Vector& weights) {
    if (weights.empty()) throw std::invalid_argument("Rng::categorical: empty weights");
    double total = 0.0;
    for (const double w : weights) {
        if (w < 0.0 || !std::isfinite(w)) {
            throw std::invalid_argument("Rng::categorical: weights must be finite and >= 0");
        }
        total += w;
    }
    if (!(total > 0.0)) throw std::invalid_argument("Rng::categorical: all weights are zero");
    return categorical_index(weights, uniform() * total);
}

std::size_t categorical_index(const linalg::Vector& weights, double u) noexcept {
    for (std::size_t i = 0; i < weights.size(); ++i) {
        u -= weights[i];
        if (u <= 0.0) return i;
    }
    // Round-off fall-through: u outran the running sums by a few ulps.
    std::size_t last = weights.size() - 1;
    while (last > 0 && !(weights[last] > 0.0)) --last;
    return last;
}

linalg::Vector Rng::standard_normal_vector(std::size_t n) {
    linalg::Vector out(n);
    normals(out.data(), n);
    return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        std::swap(out[i - 1], out[uniform_index(i)]);
    }
    return out;
}

}  // namespace drel::stats
