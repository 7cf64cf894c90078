// Statistical suite for the generator behind stats::Rng — the `statistical`
// ctest label.
//
// The transforms from raw engine bits to variates are the library's own
// (see stats/rng.hpp), so they are checked here the way the sampling
// kernels are in test_sampling_stats.cpp: Pearson chi-square against the
// exact distribution, on fixed seeds, at the df + 5*sqrt(2*df) critical
// value. Continuous variates go through their CDF first (probability
// integral transform), which maps a correct sampler to U[0,1) and makes
// equal-width bins equiprobable. Covered: goodness of fit of uniform,
// uniform_index and normal; independence of sibling forks and of
// device_stream cells one coordinate apart; and a known-answer test that
// pins the engine itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "edgesim/shard.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

using test_support::chi_square_critical;
using test_support::chi_square_statistic;

void expect_fits(const std::vector<std::uint64_t>& counts,
                 const std::vector<double>& probabilities, std::uint64_t total,
                 const char* label) {
    std::size_t df = 0;
    const double statistic = chi_square_statistic(counts, probabilities, total, &df);
    EXPECT_LT(statistic, chi_square_critical(df))
        << label << ": chi2=" << statistic << " df=" << df;
}

std::size_t bin_of(double u, std::size_t bins) {
    return std::min(bins - 1, static_cast<std::size_t>(u * static_cast<double>(bins)));
}

/// Bins cdf(draw()) into `bins` equal-width bins and tests them for
/// uniformity: passes iff the draws follow `cdf`.
void expect_pit_uniform(const std::function<double()>& draw,
                        const std::function<double(double)>& cdf, std::uint64_t draws,
                        const char* label) {
    constexpr std::size_t kBins = 64;
    std::vector<std::uint64_t> counts(kBins, 0);
    for (std::uint64_t t = 0; t < draws; ++t) ++counts[bin_of(cdf(draw()), kBins)];
    expect_fits(counts, std::vector<double>(kBins, 1.0 / kBins), draws, label);
}

/// Tests pairs (a, b) of U[0,1) draws for independence: on an 8x8 grid the
/// cells are equiprobable iff the pair is uniform on the square. The
/// sample correlation is also held within five standard errors of zero.
void expect_pairs_independent(const std::function<std::pair<double, double>(std::uint64_t)>& pair,
                              std::uint64_t samples, const char* label) {
    constexpr std::size_t kSide = 8;
    std::vector<std::uint64_t> counts(kSide * kSide, 0);
    double sum_ab = 0.0;
    for (std::uint64_t i = 0; i < samples; ++i) {
        const auto [a, b] = pair(i);
        ++counts[bin_of(a, kSide) * kSide + bin_of(b, kSide)];
        sum_ab += (a - 0.5) * (b - 0.5);
    }
    expect_fits(counts, std::vector<double>(kSide * kSide, 1.0 / (kSide * kSide)), samples,
                label);
    // Var(U) = 1/12, so corr = 12 * E[(a - 1/2)(b - 1/2)], with standard
    // error 1/sqrt(n) under independence.
    const double correlation = 12.0 * sum_ab / static_cast<double>(samples);
    EXPECT_LT(std::fabs(correlation), 5.0 / std::sqrt(static_cast<double>(samples)))
        << label << ": corr=" << correlation;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(RngStats, UniformFitsEqualBins) {
    stats::Rng rng(9201);
    expect_pit_uniform(
        [&] {
            const double u = rng.uniform();
            EXPECT_TRUE(u >= 0.0 && u < 1.0) << u;
            return u;
        },
        [](double u) { return u; }, 200000, "uniform");
}

TEST(RngStats, UniformIndexIsUnbiasedAtNonPowerOfTwo) {
    stats::Rng rng(9202);
    for (const std::size_t n : {3u, 7u, 10u, 1000u}) {
        const std::uint64_t draws = 200 * n + 20000;
        std::vector<std::uint64_t> counts(n, 0);
        for (std::uint64_t t = 0; t < draws; ++t) ++counts[rng.uniform_index(n)];
        expect_fits(counts, std::vector<double>(n, 1.0 / static_cast<double>(n)), draws,
                    "uniform_index small n");
    }

    // n = 3 * 2^62 is where a biased map shows at once. Plain `x % n` gives
    // [0, 2^62) twice the mass of the rest: the first two of six equal-width
    // bins. Multiply-shift without the rejection step sends two of every
    // four inputs to multiples of 3, so residue 0 mod 3 gets half the mass.
    const std::uint64_t n = std::uint64_t{3} << 62;
    const std::uint64_t draws = 60000;
    std::vector<std::uint64_t> sixths(6, 0);
    std::vector<std::uint64_t> residues(3, 0);
    for (std::uint64_t t = 0; t < draws; ++t) {
        const std::uint64_t k = rng.uniform_index(n);
        ASSERT_LT(k, n);
        ++sixths[k >> 61];
        ++residues[k % 3];
    }
    expect_fits(sixths, std::vector<double>(6, 1.0 / 6.0), draws, "uniform_index 3*2^62 sixths");
    expect_fits(residues, std::vector<double>(3, 1.0 / 3.0), draws,
                "uniform_index 3*2^62 residues");
}

TEST(RngStats, NormalMatchesCdfInBins) {
    stats::Rng rng(9203);
    expect_pit_uniform([&] { return rng.normal(); }, normal_cdf, 200000, "normal");
}

TEST(RngStats, PolarPairsAreIndependent) {
    // Each polar draw yields two variates; the second is cached and returned
    // by the next call. Consecutive calls must still be independent.
    stats::Rng rng(9204);
    expect_pairs_independent(
        [&](std::uint64_t) {
            const double a = normal_cdf(rng.normal());
            return std::pair{a, normal_cdf(rng.normal())};
        },
        100000, "normal pairs");
}

TEST(RngStats, SiblingForksWithAdjacentTagsAreIndependent) {
    const stats::Rng root(9206);
    expect_pairs_independent(
        [&](std::uint64_t tag) {
            return std::pair{root.fork(tag).uniform(), root.fork(tag + 1).uniform()};
        },
        100000, "fork(t) vs fork(t+1)");
}

TEST(RngStats, DeviceStreamCellsOneCoordinateApartAreIndependent) {
    using edgesim::DeviceStream;
    using edgesim::device_stream;
    const stats::Rng device_root = stats::Rng(9207).fork(4);
    const auto first_draw = [&](std::size_t round, std::size_t device, DeviceStream purpose) {
        return device_stream(device_root, round, device, purpose).uniform();
    };
    // Cell i sits at round i / 1000, device i % 1000.
    const std::uint64_t cells = 60000;
    expect_pairs_independent(
        [&](std::uint64_t i) {
            return std::pair{first_draw(i / 1000, i % 1000, DeviceStream::kWork),
                             first_draw(i / 1000 + 1, i % 1000, DeviceStream::kWork)};
        },
        cells, "round vs round+1");
    expect_pairs_independent(
        [&](std::uint64_t i) {
            return std::pair{first_draw(i / 1000, i % 1000, DeviceStream::kWork),
                             first_draw(i / 1000, i % 1000 + 1, DeviceStream::kWork)};
        },
        cells, "device vs device+1");
    expect_pairs_independent(
        [&](std::uint64_t i) {
            return std::pair{first_draw(i / 1000, i % 1000, DeviceStream::kWork),
                             first_draw(i / 1000, i % 1000, DeviceStream::kLatency)};
        },
        cells, "kWork vs kLatency");
}

/// The top 53 bits of the next engine output, read back exactly from
/// uniform() (a multiple of 2^-53).
std::uint64_t top53(stats::Rng& rng) {
    return static_cast<std::uint64_t>(std::ldexp(rng.uniform(), 53));
}

TEST(RngStats, KnownAnswerFirstOutputs) {
    // Expected values come from the published xoshiro256** and SplitMix64
    // reference algorithms, evaluated separately in exact integer
    // arithmetic. Only integer transforms are pinned: normal goes through
    // libm and is covered by the fit above.
    stats::Rng root(0);
    EXPECT_EQ(top53(root), 5415695640260286u);
    EXPECT_EQ(top53(root), 6735350249106120u);
    EXPECT_EQ(top53(root), 927921571702396u);
    EXPECT_EQ(top53(root), 3752300831360421u);

    stats::Rng forked = stats::Rng(0).fork(1);
    EXPECT_EQ(forked.seed(), 0x15C3A49FC97C3A91u);
    EXPECT_EQ(top53(forked), 5366602166606751u);
    EXPECT_EQ(top53(forked), 1410487526135089u);
    EXPECT_EQ(top53(forked), 580782118706231u);
    EXPECT_EQ(top53(forked), 6517546660490523u);

    // Lemire's map on the same outputs of Rng(0). At n = 3 * 2^62 the
    // third and fourth outputs fall in the rejection zone, so the index
    // comes from the fifth.
    stats::Rng indexed(0);
    EXPECT_EQ(indexed.uniform_index(10), 6u);
    EXPECT_EQ(indexed.uniform_index(1000), 747u);
    EXPECT_EQ(indexed.uniform_index(std::uint64_t{3} << 62), 10141052992588292802u);
    EXPECT_EQ(top53(indexed), 9004933369773433u);
}

}  // namespace
}  // namespace drel
