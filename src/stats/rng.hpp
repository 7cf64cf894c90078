// Deterministic random number generation.
//
// Everything stochastic in the library (data generators, Gibbs sampling,
// initialization) draws from an explicitly threaded Rng so experiments are
// exactly reproducible from a seed. `fork(tag)` derives independent
// sub-streams — one per device in the fleet simulation — without the
// devices' draws aliasing each other.
//
// The engine is xoshiro256** (32 bytes of state) seeded by SplitMix64, so a
// fork costs a handful of integer mixes; the fleet derives streams per
// device and round. Every transform from raw bits to a variate (uniform,
// bounded integer, normal, gamma) is implemented here rather than
// taken from `std::*_distribution`, whose output is implementation-defined:
// a seed produces the same draws under any standard library.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace drel::stats {

class Rng {
 public:
    explicit Rng(std::uint64_t seed) : seed_(seed) {
        // SplitMix64 expands the 64-bit key into the 256-bit state; its
        // outputs are a bijection of the counter, so the state is never
        // all zero.
        for (std::uint64_t& word : state_) {
            word = splitmix64(seed);
            seed += kGolden;
        }
    }

    std::uint64_t seed() const noexcept { return seed_; }

    /// Derives an independent stream. SplitMix64 mixing of (seed, tag) keeps
    /// sibling streams decorrelated even for adjacent tags.
    Rng fork(std::uint64_t tag) const {
        return Rng(splitmix64(seed_ ^ splitmix64(tag + 0xA5A5A5A5A5A5A5A5ULL)));
    }

    /// U[0,1): the top 53 bits of one engine output.
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Uniform integer in [0, n), unbiased (Lemire's multiply-shift).
    std::size_t uniform_index(std::size_t n);

    /// N(0,1). Marsaglia polar method; the second variate of each accepted
    /// pair is cached and returned by the next call.
    double normal();
    /// Writes n successive normal() draws to out[0, n): the same values,
    /// and the same state afterwards, the cached spare included. It draws
    /// a chunk of accepted pairs first and then their scales, so the
    /// logarithms of independent pairs overlap.
    void normals(double* out, std::size_t n);
    /// N(mean, stddev^2)
    double normal(double mean, double stddev);

    /// Gamma(shape, scale). Marsaglia–Tsang; valid for any shape > 0.
    double gamma(double shape, double scale = 1.0);

    /// Beta(a, b)
    double beta(double a, double b);

    /// Draws an index with probability proportional to `weights` (must be
    /// non-negative and not all zero).
    std::size_t categorical(const linalg::Vector& weights);

    /// Vector of iid N(0,1).
    linalg::Vector standard_normal_vector(std::size_t n);

    /// Fisher–Yates shuffle of indices [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

 private:
    static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

    /// One SplitMix64 step from counter `x`: a bijective 64-bit hash.
    static constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
        x += kGolden;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return x ^ (x >> 31);
    }

    /// One accepted polar pair: (u, v) uniform on the unit disc without its
    /// centre, and s = u² + v².
    void polar_pair(double& u, double& v, double& s) {
        do {
            u = 2.0 * uniform() - 1.0;
            v = 2.0 * uniform() - 1.0;
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
    }

    /// One xoshiro256** step.
    std::uint64_t next() noexcept {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    std::array<std::uint64_t, 4> state_{};
    std::uint64_t seed_;
    double spare_normal_ = 0.0;
    bool has_spare_normal_ = false;
};

/// The index Rng::categorical draws for the point `u` in [0, sum of
/// `weights`): the first i whose running sum of weights reaches u. When
/// round-off leaves u above the last running sum, the last index with
/// positive weight, never a zero-weight one. `weights` must be
/// non-negative with a positive entry.
std::size_t categorical_index(const linalg::Vector& weights, double u) noexcept;

}  // namespace drel::stats
