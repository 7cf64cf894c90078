#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::stats {
namespace {

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

// normals(out, n) is n successive normal() calls: the same values, and the
// same state afterwards, the cached spare included, so the next uniform()
// and normal() agree too. Chunks of pairs must not change any of it.
TEST(Rng, NormalsMatchSuccessiveNormalCalls) {
    using test_support::bits_equal;
    for (const bool spare_pending : {false, true}) {
        for (const std::size_t n : {0, 1, 2, 3, 7, 8, 9, 64}) {
            Rng batched(500 + n);
            Rng single(500 + n);
            if (spare_pending) {
                ASSERT_TRUE(bits_equal(batched.normal(), single.normal()));
            }
            std::vector<double> got(n + 1, 0.25);
            batched.normals(got.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(bits_equal(got[i], single.normal()))
                    << "n=" << n << " spare=" << spare_pending << " draw " << i;
            }
            EXPECT_EQ(got[n], 0.25) << "wrote past n=" << n;
            EXPECT_TRUE(bits_equal(batched.uniform(), single.uniform())) << "n=" << n;
            EXPECT_TRUE(bits_equal(batched.normal(), single.normal())) << "n=" << n;
            EXPECT_TRUE(bits_equal(batched.normal(), single.normal())) << "n=" << n;
        }
    }
    // Back-to-back calls of mixed lengths on one stream.
    Rng batched(600);
    Rng single(600);
    std::vector<double> got(64);
    for (const std::size_t n : {3, 1, 0, 8, 5, 2, 9, 64, 7}) {
        batched.normals(got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(bits_equal(got[i], single.normal())) << "n=" << n << " draw " << i;
        }
    }
    EXPECT_TRUE(bits_equal(batched.uniform(), single.uniform()));
}

TEST(Rng, ForkedStreamsDiffer) {
    Rng base(42);
    Rng a = base.fork(1);
    Rng b = base.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform()) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministic) {
    Rng base(7);
    EXPECT_DOUBLE_EQ(base.fork(3).uniform(), Rng(7).fork(3).uniform());
}

TEST(Rng, NormalMomentsApproximate) {
    Rng rng(2);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.push(rng.normal(3.0, 2.0));
    EXPECT_NEAR(s.mean(), 3.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, GammaMomentsApproximate) {
    Rng rng(3);
    const double shape = 2.5;
    const double scale = 1.5;
    RunningStats s;
    for (int i = 0; i < 30000; ++i) s.push(rng.gamma(shape, scale));
    EXPECT_NEAR(s.mean(), shape * scale, 0.1);
    EXPECT_NEAR(s.variance(), shape * scale * scale, 0.3);
}

TEST(Rng, GammaSmallShapeStaysPositive) {
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) EXPECT_GT(rng.gamma(0.3, 1.0), 0.0);
}

TEST(Rng, BetaMomentsApproximate) {
    Rng rng(5);
    RunningStats s;
    for (int i = 0; i < 30000; ++i) s.push(rng.beta(2.0, 5.0));
    EXPECT_NEAR(s.mean(), 2.0 / 7.0, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
    Rng rng(6);
    std::vector<int> hits(3, 0);
    for (int i = 0; i < 30000; ++i) ++hits[rng.categorical({1.0, 2.0, 7.0})];
    EXPECT_NEAR(hits[2] / 30000.0, 0.7, 0.02);
    EXPECT_NEAR(hits[0] / 30000.0, 0.1, 0.02);
}

TEST(Rng, CategoricalRejectsInvalid) {
    Rng rng(7);
    EXPECT_THROW(rng.categorical({}), std::invalid_argument);
    EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(rng.categorical({-1.0, 2.0}), std::invalid_argument);
}

// uniform()'s largest value times the total can outrun the running sums by
// an ulp, leaving u > 0 after the last weight. The draw must then land on
// the last positive weight: the zero at the end has probability 0.
TEST(Rng, CategoricalFallThroughSkipsZeroWeights) {
    const linalg::Vector weights = {0.0069118951954526111, 0.64779672517974751,
                                    0.39252393092058474, 0.039837051216532395, 0.0};
    double total = 0.0;
    for (const double w : weights) total += w;
    const double u = (1.0 - 0x1p-53) * total;
    double rest = u;
    for (const double w : weights) rest -= w;
    ASSERT_GT(rest, 0.0) << "u no longer falls through; the case is not exercised";
    EXPECT_EQ(categorical_index(weights, u), 3u);

    // Inside the range the selection is the running-sum one.
    EXPECT_EQ(categorical_index(weights, 0.0), 0u);
    EXPECT_EQ(categorical_index(weights, 0.5), 1u);
    EXPECT_EQ(categorical_index(weights, 0.7), 2u);
    EXPECT_EQ(categorical_index({0.0, 0.0, 2.0, 0.0}, 2.0 + 1e-15), 2u);
}

TEST(Rng, PermutationIsValid) {
    Rng rng(10);
    const auto p = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (const std::size_t i : p) {
        ASSERT_LT(i, 50u);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

// ----------------------------------------------------------- distributions

TEST(Distributions, NormalPdfIntegratesToKnownValue) {
    // At the mean, log pdf = -0.5 log(2 pi var).
    EXPECT_NEAR(log_normal_pdf(0.0, 0.0, 1.0), -0.5 * std::log(2.0 * M_PI), 1e-12);
    EXPECT_NEAR(log_normal_pdf(2.0, 0.0, 1.0), -0.5 * std::log(2.0 * M_PI) - 2.0, 1e-12);
}

TEST(Distributions, StudentTApproachesNormalForLargeDof) {
    const double t = log_student_t_pdf(1.3, 1e7, 0.0, 1.0);
    const double n = log_normal_pdf(1.3, 0.0, 1.0);
    EXPECT_NEAR(t, n, 1e-5);
}

TEST(Distributions, DigammaRecurrence) {
    // psi(x+1) = psi(x) + 1/x
    for (const double x : {0.3, 1.0, 2.5, 7.0}) {
        EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
    }
    // psi(1) = -Euler-Mascheroni.
    EXPECT_NEAR(digamma(1.0), -0.5772156649015329, 1e-10);
}

// ------------------------------------------------------ multivariate normal

TEST(MultivariateNormal, LogPdfMatchesUnivariate) {
    const MultivariateNormal mvn = MultivariateNormal::isotropic({0.5}, 2.0);
    EXPECT_NEAR(mvn.log_pdf({1.5}), log_normal_pdf(1.5, 0.5, 2.0), 1e-12);
}

TEST(MultivariateNormal, LogPdfDiagonalFactorizes) {
    const MultivariateNormal mvn =
        MultivariateNormal::diagonal({1.0, -1.0}, {2.0, 3.0});
    const double expected =
        log_normal_pdf(0.0, 1.0, 2.0) + log_normal_pdf(0.5, -1.0, 3.0);
    EXPECT_NEAR(mvn.log_pdf({0.0, 0.5}), expected, 1e-12);
}

TEST(MultivariateNormal, MahalanobisAtMeanIsZero) {
    Rng rng(12);
    linalg::Matrix cov = linalg::Matrix::identity(3);
    cov(0, 1) = cov(1, 0) = 0.4;
    const MultivariateNormal mvn({1.0, 2.0, 3.0}, cov);
    EXPECT_NEAR(mvn.mahalanobis_sq({1.0, 2.0, 3.0}), 0.0, 1e-12);
}

TEST(MultivariateNormal, SampleMomentsMatch) {
    Rng rng(13);
    linalg::Matrix cov = test_support::matrix_of(2, 2, {2.0, 0.7, 0.7, 1.0});
    const MultivariateNormal mvn({1.0, -1.0}, cov);
    std::vector<linalg::Vector> samples;
    for (int i = 0; i < 20000; ++i) samples.push_back(mvn.sample(rng));
    const linalg::Vector m = mean_rows(samples);
    EXPECT_NEAR(m[0], 1.0, 0.05);
    EXPECT_NEAR(m[1], -1.0, 0.05);
    const linalg::Matrix c = covariance_rows(samples);
    EXPECT_NEAR(c(0, 0), 2.0, 0.1);
    EXPECT_NEAR(c(0, 1), 0.7, 0.05);
}

TEST(MultivariateNormal, PrecisionTimesResidualIsGradient) {
    linalg::Matrix cov = test_support::matrix_of(2, 2, {1.5, 0.3, 0.3, 0.8});
    const MultivariateNormal mvn({0.0, 0.0}, cov);
    const linalg::Vector x{1.0, 2.0};
    // d/dx [-log pdf] = Sigma^{-1} (x - mu); check by finite differences.
    const double h = 1e-6;
    const linalg::Vector g = mvn.precision_times_residual(x);
    for (std::size_t i = 0; i < 2; ++i) {
        linalg::Vector xp = x;
        linalg::Vector xm = x;
        xp[i] += h;
        xm[i] -= h;
        const double numeric = -(mvn.log_pdf(xp) - mvn.log_pdf(xm)) / (2.0 * h);
        EXPECT_NEAR(g[i], numeric, 1e-5);
    }
}

TEST(MultivariateNormal, RejectsMismatchedShapes) {
    EXPECT_THROW(MultivariateNormal({1.0, 2.0}, linalg::Matrix::identity(3)),
                 std::invalid_argument);
    EXPECT_THROW(MultivariateNormal::diagonal({1.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(MultivariateNormal::diagonal({1.0}, {-1.0}), std::invalid_argument);
}

// -------------------------------------------------------------- descriptive

TEST(Descriptive, MeanVarianceKnown) {
    const linalg::Vector x{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(x), 2.5);
    EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Descriptive, QuantilesAndMedian) {
    const linalg::Vector x{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(x), 2.5);
    EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(x, 1.0), 4.0);
    EXPECT_THROW(quantile(x, 1.5), std::invalid_argument);
}

TEST(Descriptive, NearestRankPicksTheCeilRankElement) {
    // The engine's latency-tail estimator: rank = ceil(q * n), 1-based,
    // clamped into the sample. Input must already be sorted.
    const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.25), 10.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.5), 20.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.51), 30.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.99), 40.0);
    EXPECT_DOUBLE_EQ(nearest_rank(sorted, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(nearest_rank({7.0}, 0.5), 7.0);
    // Empty sample reports 0 (the engine's "no latencies this round").
    EXPECT_DOUBLE_EQ(nearest_rank({}, 0.5), 0.0);
    EXPECT_THROW(nearest_rank(sorted, -0.1), std::invalid_argument);
    EXPECT_THROW(nearest_rank(sorted, 1.1), std::invalid_argument);
}

// select_nearest_ranks over blocks must read what nearest_rank reads from a
// sorted copy of every block's members, whatever the buckets: ties, a
// constant sample, one member, values on bucket edges, below 0 and past
// the clamp, and blocks with non-member holes or no member at all.
TEST(Descriptive, BucketedNearestRanksMatchSortedCopy) {
    const std::vector<double> qs = {0.0, 0.01, 0.5, 0.5, 0.99, 0.999, 1.0};
    Rng rng(4242);
    const auto check = [&](const std::vector<std::vector<double>>& values,
                           const std::vector<std::vector<std::uint8_t>>& members,
                           std::size_t num_buckets, double limit, const std::string& what) {
        const RankBuckets buckets(num_buckets, limit);
        std::vector<RankBlock> blocks(values.size());
        std::vector<std::vector<double>> grouped(values.size());
        std::vector<double> sorted;
        for (std::size_t s = 0; s < values.size(); ++s) {
            grouped[s].assign(values[s].size(), -1.0);
            const std::uint8_t* member = members[s].empty() ? nullptr : members[s].data();
            blocks[s].assign(buckets, values[s].data(), member, values[s].size(),
                             grouped[s].data());
            for (std::size_t j = 0; j < values[s].size(); ++j) {
                if (member == nullptr || member[j] != 0) sorted.push_back(values[s][j]);
            }
        }
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> got(qs.size(), -1.0);
        std::vector<double> scratch;
        select_nearest_ranks(buckets, blocks.data(), blocks.size(), qs.data(), qs.size(),
                             got.data(), scratch);
        for (std::size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(got[i], nearest_rank(sorted, qs[i]))
                << what << " B=" << num_buckets << " q=" << qs[i];
        }
        double max = -std::numeric_limits<double>::infinity();
        for (const RankBlock& block : blocks) max = std::max(max, block.max());
        if (!sorted.empty()) {
            EXPECT_EQ(max, sorted.back()) << what << " B=" << num_buckets;
        }
    };
    const auto random_block = [&](std::size_t n, double scale) {
        std::vector<double> block(n);
        for (double& v : block) v = scale * rng.uniform();
        return block;
    };
    for (const std::size_t num_buckets : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                          std::size_t{64}, std::size_t{1024}}) {
        check({random_block(300, 2.0), random_block(1, 2.0), random_block(57, 2.0)},
              {{}, {}, {}}, num_buckets, 2.0, "random");
        check({{0.5}}, {{}}, num_buckets, 2.0, "one value");
        check({std::vector<double>(40, 1.25), std::vector<double>(9, 1.25)}, {{}, {}},
              num_buckets, 2.0, "all equal");
        // Ties across blocks and buckets.
        std::vector<double> ties;
        for (int i = 0; i < 200; ++i) ties.push_back(0.25 * (i % 5));
        check({ties, ties}, {{}, {}}, num_buckets, 2.0, "ties");
        // Every bucket edge k * limit / B, its neighbours, 0, negatives
        // and values at and past the clamp.
        std::vector<double> edges = {-3.0, -0.0, 0.0, 2.0, 2.0, 5.0, 1e300};
        for (std::size_t k = 0; k <= num_buckets; ++k) {
            const double edge = 2.0 * static_cast<double>(k) / static_cast<double>(num_buckets);
            edges.push_back(edge);
            edges.push_back(std::nextafter(edge, -1.0));
            edges.push_back(std::nextafter(edge, 3.0));
        }
        check({edges, random_block(30, 6.0)}, {{}, {}}, num_buckets, 2.0, "edges");
        // Non-member holes, one block without a member, an empty block.
        const std::vector<double> a = random_block(120, 3.0);
        std::vector<std::uint8_t> a_members(a.size());
        for (std::size_t j = 0; j < a.size(); ++j) a_members[j] = j % 3 == 1 ? 0 : 1;
        const std::vector<double> b = random_block(20, 3.0);
        check({a, b, {}}, {a_members, std::vector<std::uint8_t>(b.size(), 0), {}},
              num_buckets, 2.0, "holes");
    }

    // No member anywhere: nearest_rank's empty convention.
    const RankBuckets buckets(8, 1.0);
    RankBlock empty;
    const std::vector<double> values = {0.5, 0.75};
    const std::vector<std::uint8_t> none = {0, 0};
    std::vector<double> grouped(values.size());
    empty.assign(buckets, values.data(), none.data(), values.size(), grouped.data());
    std::vector<double> got(qs.size(), -1.0);
    std::vector<double> scratch;
    select_nearest_ranks(buckets, &empty, 1, qs.data(), qs.size(), got.data(), scratch);
    for (const double v : got) EXPECT_EQ(v, 0.0);

    const double descending[] = {0.9, 0.5};
    EXPECT_THROW(select_nearest_ranks(buckets, &empty, 1, descending, 2, got.data(), scratch),
                 std::invalid_argument);
    EXPECT_THROW(RankBuckets(0, 1.0), std::invalid_argument);
    EXPECT_THROW(RankBuckets(4, 0.0), std::invalid_argument);
}

TEST(Descriptive, NearestRankIndexSelectsWhatTheSortReads) {
    // The engine reads its latency tail by successive std::nth_element at
    // nearest_rank_index, each on the tail the previous one left, then
    // max_element on the rest. That must land on the sorted sample's
    // nearest-rank values, ties and tiny samples included.
    Rng rng(77);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{100}, std::size_t{1001}}) {
        std::vector<double> values(n);
        for (double& v : values) v = std::floor(8.0 * rng.uniform());  // many ties
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        std::size_t from = 0;
        for (const double q : {0.0, 0.5, 0.99, 0.999}) {
            const std::size_t k = nearest_rank_index(n, q);
            ASSERT_GE(k, from);
            std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from),
                             values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
            EXPECT_EQ(values[k], nearest_rank(sorted, q)) << "n=" << n << " q=" << q;
            from = k;
        }
        EXPECT_EQ(*std::max_element(values.begin() + static_cast<std::ptrdiff_t>(from),
                                    values.end()),
                  sorted.back());
    }
    EXPECT_EQ(nearest_rank_index(4, 0.51), 2u);
    EXPECT_EQ(nearest_rank_index(4, 1.0), 3u);
    EXPECT_THROW(nearest_rank_index(4, 1.5), std::invalid_argument);
}

TEST(Descriptive, RunningStatsMatchesBatch) {
    Rng rng(14);
    RunningStats s;
    linalg::Vector values;
    for (int i = 0; i < 500; ++i) {
        const double v = rng.normal(2.0, 3.0);
        s.push(v);
        values.push_back(v);
    }
    EXPECT_NEAR(s.mean(), mean(values), 1e-10);
    double squares = 0.0;  // the two-pass unbiased variance
    for (const double v : values) squares += (v - mean(values)) * (v - mean(values));
    EXPECT_NEAR(s.variance(), squares / static_cast<double>(values.size() - 1), 1e-8);
    EXPECT_EQ(s.count(), 500u);
    EXPECT_LE(s.min(), s.mean());
    EXPECT_GE(s.max(), s.mean());
}

TEST(Descriptive, CovarianceRowsKnownCase) {
    // Two perfectly correlated coordinates.
    std::vector<linalg::Vector> rows = {{0.0, 0.0}, {1.0, 2.0}, {2.0, 4.0}};
    const linalg::Matrix c = covariance_rows(rows);
    EXPECT_NEAR(c(0, 1) / std::sqrt(c(0, 0) * c(1, 1)), 1.0, 1e-12);
    EXPECT_THROW(covariance_rows({{1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace drel::stats
