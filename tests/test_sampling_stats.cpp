// Statistical goodness-of-fit suite for the alias-table sampling kernel
// (stats/alias_table) — the `statistical` ctest label.
//
// Every test draws from a FIXED seed, so each chi-square statistic is a
// deterministic number: the assertions cannot flake. The critical values
// are set at df + 5*sqrt(2*df) — roughly five standard deviations above the
// chi-square mean, far past any plausible healthy draw for these seeds yet
// tight enough that a real distribution bug (swapped alias branch, biased
// bucket pick) lands orders of magnitude outside.
// Expected-count-below-5 bins are merged before computing the statistic, per
// standard chi-square practice.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "linalg/reference.hpp"
#include "stats/alias_table.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

using test_support::chi_square_critical;
using test_support::chi_square_statistic;

void expect_alias_draws_fit(const std::vector<double>& weights, std::uint64_t draws,
                            std::uint64_t seed, const char* label) {
    stats::AliasTable table;
    table.rebuild(weights.data(), weights.size());
    const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);

    // Exactness first: the bucket pair encodes the pmf up to round-off,
    // independent of any sampling.
    const std::vector<double> pmf =
        linalg::reference::alias_pmf(table.probabilities(), table.aliases());
    std::vector<double> probabilities(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
        probabilities[i] = weights[i] / total_weight;
        EXPECT_NEAR(pmf[i], probabilities[i], 1e-12) << label << " bucket " << i;
    }

    stats::Rng rng(seed);
    std::vector<std::uint64_t> counts(weights.size(), 0);
    for (std::uint64_t t = 0; t < draws; ++t) ++counts[table.draw(rng)];

    std::size_t df = 0;
    const double statistic = chi_square_statistic(counts, probabilities, draws, &df);
    EXPECT_LT(statistic, chi_square_critical(df))
        << label << ": chi2=" << statistic << " df=" << df;
}

TEST(SamplingStatsAlias, UniformWeightsFit) {
    expect_alias_draws_fit(std::vector<double>(64, 1.0), 50000, 9001, "uniform-64");
}

TEST(SamplingStatsAlias, SkewedWeightsFit) {
    // Geometric decay: half the mass on the first outcome.
    std::vector<double> weights(20);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = std::ldexp(1.0, -static_cast<int>(i));
    }
    expect_alias_draws_fit(weights, 50000, 9002, "geometric-20");
}

TEST(SamplingStatsAlias, PowerLawWeightsFit) {
    // w_i ~ 1/(i+1)^2: a long tail whose far bins merge below expected=5.
    std::vector<double> weights(100);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double rank = static_cast<double>(i + 1);
        weights[i] = 1.0 / (rank * rank);
    }
    expect_alias_draws_fit(weights, 60000, 9003, "power-law-100");
}

TEST(SamplingStatsAlias, SingleOutcomeAlwaysDrawn) {
    stats::AliasTable table;
    const double weight = 3.25;
    table.rebuild(&weight, 1);
    stats::Rng rng(9004);
    for (int t = 0; t < 1000; ++t) ASSERT_EQ(table.draw(rng), 0u);
}

TEST(SamplingStatsAlias, TenThousandOutcomesFit) {
    // K = 10k with mildly varying weights: stresses the worklist pairing at
    // scale; expected counts sit near 10 per bin so no merging kicks in.
    const std::size_t k = 10000;
    std::vector<double> weights(k);
    stats::Rng weight_rng(77);
    for (double& w : weights) w = 0.5 + weight_rng.uniform();
    expect_alias_draws_fit(weights, 100000, 9005, "uniform-ish-10k");
}

TEST(SamplingStatsAlias, MatchesCategoricalScanDistribution) {
    // Same uniforms through the alias map and the CDF scan it replaced:
    // different index maps, so compare marginal COUNTS, not draw-for-draw.
    const std::vector<double> weights = {0.05, 0.3, 0.15, 0.4, 0.1};
    stats::AliasTable table;
    table.rebuild(weights.data(), weights.size());
    const std::uint64_t draws = 40000;
    stats::Rng rng(9006);
    std::vector<std::uint64_t> alias_counts(weights.size(), 0);
    std::vector<std::uint64_t> scan_counts(weights.size(), 0);
    for (std::uint64_t t = 0; t < draws; ++t) {
        const double u = rng.uniform();
        ++alias_counts[table.draw_from_uniform(u)];
        ++scan_counts[linalg::reference::categorical_from_uniform(weights, u)];
    }
    // Both empirical distributions must fit the pmf; their mutual distance
    // is then bounded by the same chi-square scale.
    std::size_t df = 0;
    const double alias_stat = chi_square_statistic(alias_counts, weights, draws, &df);
    EXPECT_LT(alias_stat, chi_square_critical(df));
    const double scan_stat = chi_square_statistic(scan_counts, weights, draws, &df);
    EXPECT_LT(scan_stat, chi_square_critical(df));
}

}  // namespace
}  // namespace drel
