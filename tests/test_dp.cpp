#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dp/crp.hpp"
#include "dp/diagonal_predictive.hpp"
#include "dp/dpmm_gibbs.hpp"
#include "dp/dpmm_variational.hpp"
#include "dp/mixture_prior.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/descriptive.hpp"
#include "obs/metrics.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"
#include "util/workspace.hpp"

namespace drel::dp {
namespace {

using test_support::bits_equal;
using test_support::hex_bits;
using test_support::vectors_bits_equal;

// ------------------------------------------------------------ mixture prior

MixturePrior two_atom_prior() {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({2.0, 0.0}, 0.5));
    atoms.push_back(stats::MultivariateNormal::isotropic({-2.0, 0.0}, 0.5));
    return MixturePrior({0.7, 0.3}, std::move(atoms));
}

TEST(MixturePrior, WeightsNormalized) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({0.0}, 1.0));
    atoms.push_back(stats::MultivariateNormal::isotropic({1.0}, 1.0));
    const MixturePrior prior({2.0, 6.0}, std::move(atoms));
    EXPECT_NEAR(prior.weights()[0], 0.25, 1e-12);
    EXPECT_NEAR(prior.weights()[1], 0.75, 1e-12);
}

TEST(MixturePrior, LogPdfMatchesManualMixture) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector x{0.5, 0.1};
    const double manual = std::log(0.7 * std::exp(prior.atom(0).log_pdf(x)) +
                                   0.3 * std::exp(prior.atom(1).log_pdf(x)));
    EXPECT_NEAR(prior.log_pdf(x), manual, 1e-10);
}

TEST(MixturePrior, ResponsibilitiesSumToOneAndTrackProximity) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector near_first = prior.responsibilities({2.0, 0.0});
    EXPECT_NEAR(linalg::sum(near_first), 1.0, 1e-12);
    EXPECT_GT(near_first[0], 0.95);
    const linalg::Vector near_second = prior.responsibilities({-2.0, 0.0});
    EXPECT_GT(near_second[1], 0.9);
    EXPECT_EQ(linalg::argmax(near_second), 1u);
}

TEST(MixturePrior, GradientMatchesFiniteDifference) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector x{0.3, -0.4};
    const linalg::Vector g = prior.log_pdf_gradient(x);
    const double h = 1e-6;
    for (std::size_t i = 0; i < 2; ++i) {
        linalg::Vector xp = x;
        linalg::Vector xm = x;
        xp[i] += h;
        xm[i] -= h;
        EXPECT_NEAR(g[i], (prior.log_pdf(xp) - prior.log_pdf(xm)) / (2.0 * h), 1e-5);
    }
}

TEST(MixturePrior, EmSurrogateIsTightMajorizer) {
    // Jensen: log p(theta) >= Q(theta; r) + H(r) for any r, equality at
    // r = responsibilities(theta).
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector theta{0.7, 0.2};
    const linalg::Vector r_star = prior.responsibilities(theta);
    auto entropy = [](const linalg::Vector& p) {
        double h = 0.0;
        for (const double v : p) {
            if (v > 0.0) h -= v * std::log(v);
        }
        return h;
    };
    EXPECT_NEAR(prior.em_surrogate(theta, r_star) + entropy(r_star), prior.log_pdf(theta),
                1e-10);
    // Any other responsibility vector gives a strict lower bound.
    const linalg::Vector r_other{0.5, 0.5};
    EXPECT_LE(prior.em_surrogate(theta, r_other) + entropy(r_other),
              prior.log_pdf(theta) + 1e-12);
}

TEST(MixturePrior, SurrogateGradientMatchesFiniteDifference) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector theta{0.7, 0.2};
    const linalg::Vector r{0.6, 0.4};
    const linalg::Vector g = prior.em_surrogate_gradient(theta, r);
    const double h = 1e-6;
    for (std::size_t i = 0; i < 2; ++i) {
        linalg::Vector tp = theta;
        linalg::Vector tm = theta;
        tp[i] += h;
        tm[i] -= h;
        EXPECT_NEAR(g[i],
                    (prior.em_surrogate(tp, r) - prior.em_surrogate(tm, r)) / (2.0 * h), 1e-5);
    }
}

/// Random SPD covariance M Mᵀ / d + 0.1 I.
linalg::Matrix random_covariance(std::size_t d, stats::Rng& rng) {
    linalg::Matrix m(d, d);
    for (std::size_t r = 0; r < d; ++r) {
        for (std::size_t c = 0; c < d; ++c) m(r, c) = rng.normal();
    }
    linalg::Matrix cov = m.matmul(m.transposed());
    cov *= 1.0 / static_cast<double>(d);
    cov.add_diagonal(0.1);
    return cov;
}

// The fused surrogate kernel is a bit-identical rewrite of the separate
// value and gradient calls (DESIGN.md "Workspaces & kernels"): over random
// priors, responsibilities with exact zeros, and warm vs fresh workspaces,
// it must return the same bits, lease nothing past the call, and count one
// surrogate evaluation.
TEST(MixturePrior, FusedSurrogateBitIdenticalToSeparateCalls) {
    stats::Rng rng(16);
    util::Workspace reused;
    obs::Counter& evals = obs::Registry::global().counter("dp.em_surrogate_evals");
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t k_atoms = 1 + rng.uniform_index(8);
        const std::size_t d = 2 + rng.uniform_index(15);
        linalg::Vector weights;
        std::vector<stats::MultivariateNormal> atoms;
        for (std::size_t k = 0; k < k_atoms; ++k) {
            weights.push_back(0.1 + rng.uniform());
            atoms.emplace_back(rng.standard_normal_vector(d), random_covariance(d, rng));
        }
        const MixturePrior prior(std::move(weights), std::move(atoms));
        linalg::Vector r(k_atoms);
        for (double& rk : r) rk = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
        const linalg::Vector theta = rng.standard_normal_vector(d);

        util::Workspace reference_ws;
        const double value = prior.em_surrogate_ws(theta, r, reference_ws);
        linalg::Vector grad;
        prior.em_surrogate_gradient_into(theta, r, grad, reference_ws);

        for (const bool warm : {true, false}) {
            util::Workspace fresh;
            util::Workspace& ws = warm ? reused : fresh;
            // A stale out-vector must be overwritten, not accumulated into.
            linalg::Vector fused_grad = rng.standard_normal_vector(d + 1);
            const std::uint64_t evals_before = evals.total();
            const double fused = prior.em_surrogate_and_gradient_into(theta, r, fused_grad, ws);
            if (obs::metrics_enabled()) {
                EXPECT_EQ(evals.total(), evals_before + 1);
            }
            EXPECT_TRUE(bits_equal(fused, value))
                << "trial " << trial << " K=" << k_atoms << " d=" << d << " warm=" << warm;
            EXPECT_TRUE(vectors_bits_equal(fused_grad, grad))
                << "trial " << trial << " K=" << k_atoms << " d=" << d << " warm=" << warm;
            EXPECT_EQ(ws.depth(), 0u);
        }
    }
}

// MixturePrior solves its atoms in lockstep, four to a SIMD group
// (linalg::simd::atom_group_solve), and must return the bits of a plain
// per-atom loop over MultivariateNormal's Cholesky solves. K runs from one
// partly padded group to several; d runs through the kernel's tree tails,
// its full 8-entry blocks and 64. One atom has a rank-one covariance, so it
// factors only after jitter or through a near-zero pivot, and r holds exact
// zeros. All five entry points are checked
// under the detected backend and the scalar emulation, from a fresh and a
// reused workspace, and must release every lease.
TEST(MixturePrior, LockstepAtomsBitIdenticalToPerAtomCholesky) {
    stats::Rng rng(17);
    util::Workspace reused;
    for (const std::size_t k_atoms : {1, 3, 4, 5, 8, 9, 17}) {
        for (const std::size_t d : {1, 2, 8, 9, 17, 64}) {
            linalg::Vector weights;
            std::vector<stats::MultivariateNormal> atoms;
            for (std::size_t k = 0; k < k_atoms; ++k) {
                weights.push_back(0.1 + rng.uniform());
                linalg::Matrix cov = random_covariance(d, rng);
                if (k == k_atoms / 2) {
                    const linalg::Vector v = rng.standard_normal_vector(d);
                    cov = linalg::Matrix(d, d);
                    cov.add_outer(1.0, v);
                }
                atoms.emplace_back(rng.standard_normal_vector(d), std::move(cov));
            }
            const MixturePrior prior(std::move(weights), std::move(atoms));
            linalg::Vector r(k_atoms);
            for (double& rk : r) rk = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
            if (k_atoms > 2) r[1] = 0.0;
            linalg::Vector theta = rng.standard_normal_vector(d);
            linalg::scale(theta, 2.0);

            // The per-atom reference.
            util::Workspace reference_ws;
            linalg::Vector log_terms(k_atoms);
            double surrogate = 0.0;
            linalg::Vector gradient = linalg::zeros(d);
            for (std::size_t k = 0; k < k_atoms; ++k) {
                const stats::MultivariateNormal& atom = prior.atom(k);
                log_terms[k] =
                    std::log(prior.weights()[k]) + atom.log_pdf_ws(theta, reference_ws);
                if (r[k] == 0.0) continue;
                surrogate += r[k] * log_terms[k];
                linalg::axpy(-r[k], atom.precision_times_residual(theta), gradient);
            }
            const double log_pdf = linalg::log_sum_exp(log_terms);
            linalg::Vector responsibilities = log_terms;
            linalg::softmax_inplace(responsibilities);

            for (const bool scalar : {false, true}) {
                std::optional<linalg::simd::ScopedBackendForTesting> backend;
                if (scalar) backend.emplace(linalg::simd::Backend::kScalar);
                for (const bool warm : {true, false}) {
                    util::Workspace fresh;
                    util::Workspace& ws = warm ? reused : fresh;
                    const std::string where = "K=" + std::to_string(k_atoms) +
                                              " d=" + std::to_string(d) +
                                              " scalar=" + std::to_string(scalar) +
                                              " warm=" + std::to_string(warm);
                    EXPECT_TRUE(bits_equal(prior.log_pdf_ws(theta, ws), log_pdf)) << where;
                    linalg::Vector out = rng.standard_normal_vector(d + 1);
                    prior.responsibilities_into(theta, out, ws);
                    EXPECT_TRUE(vectors_bits_equal(out, responsibilities)) << where;
                    EXPECT_TRUE(bits_equal(prior.em_surrogate_ws(theta, r, ws), surrogate))
                        << where;
                    out = rng.standard_normal_vector(d + 1);
                    prior.em_surrogate_gradient_into(theta, r, out, ws);
                    EXPECT_TRUE(vectors_bits_equal(out, gradient)) << where;
                    out = rng.standard_normal_vector(d + 1);
                    const double fused =
                        prior.em_surrogate_and_gradient_into(theta, r, out, ws);
                    EXPECT_TRUE(bits_equal(fused, surrogate)) << where;
                    EXPECT_TRUE(vectors_bits_equal(out, gradient)) << where;
                    EXPECT_EQ(ws.depth(), 0u) << where;
                }
            }
        }
    }
}

TEST(MixturePrior, MeanAndMomentMatch) {
    const MixturePrior prior = two_atom_prior();
    const linalg::Vector m = prior.mean();
    EXPECT_NEAR(m[0], 0.7 * 2.0 + 0.3 * (-2.0), 1e-12);
    const stats::MultivariateNormal g = prior.moment_matched_gaussian();
    EXPECT_NEAR(g.mean()[0], m[0], 1e-12);
    // Between-component spread must inflate the matched variance above the
    // within-component 0.5.
    EXPECT_GT(g.covariance()(0, 0), 2.0);
}

TEST(MixturePrior, SampleMomentsMatchMixture) {
    stats::Rng rng(7);
    const MixturePrior prior = two_atom_prior();
    stats::RunningStats first;
    for (int i = 0; i < 20000; ++i) first.push(prior.sample(rng)[0]);
    EXPECT_NEAR(first.mean(), prior.mean()[0], 0.05);
}

// Multi-start atoms come from components_by_weight: heaviest first, equal
// weights in index order. At 20 equal weights libstdc++'s std::sort would
// put atoms 10, 19 and 18 first.
TEST(MixturePrior, ComponentsByWeightBreaksTiesByIndex) {
    linalg::Vector weights(20, 1.0);
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < 20; ++k) {
        atoms.push_back(stats::MultivariateNormal::isotropic({static_cast<double>(k)}, 1.0));
    }
    const MixturePrior equal(weights, atoms);
    const std::vector<std::size_t> order = equal.components_by_weight();
    ASSERT_EQ(order.size(), 20u);
    for (std::size_t k = 0; k < 20; ++k) EXPECT_EQ(order[k], k);

    weights[7] = 3.0;
    weights[12] = 2.0;
    const MixturePrior ranked(weights, atoms);
    const std::vector<std::size_t> ranked_order = ranked.components_by_weight();
    EXPECT_EQ(ranked_order[0], 7u);
    EXPECT_EQ(ranked_order[1], 12u);
    EXPECT_EQ(ranked_order[2], 0u);
    EXPECT_EQ(ranked_order[3], 1u);
}

TEST(MixturePrior, Validation) {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({0.0}, 1.0));
    EXPECT_THROW(MixturePrior({1.0, 1.0}, std::move(atoms)), std::invalid_argument);
    std::vector<stats::MultivariateNormal> atoms2;
    atoms2.push_back(stats::MultivariateNormal::isotropic({0.0}, 1.0));
    EXPECT_THROW(MixturePrior({-1.0}, std::move(atoms2)), std::invalid_argument);
}

// ------------------------------------------------------------- DPMM fixture

/// Three well-separated 2-D clusters of "device parameters".
std::vector<linalg::Vector> clustered_observations(stats::Rng& rng, std::size_t per_cluster) {
    const std::vector<linalg::Vector> centers = {{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}};
    std::vector<linalg::Vector> obs;
    for (const auto& c : centers) {
        for (std::size_t i = 0; i < per_cluster; ++i) {
            linalg::Vector x = c;
            x[0] += 0.3 * rng.normal();
            x[1] += 0.3 * rng.normal();
            obs.push_back(std::move(x));
        }
    }
    return obs;
}

DpmmConfig dpmm_config() {
    DpmmConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.num_sweeps = 60;
    return config;
}

// ----------------------------------------------------- diagonal predictive

struct ConjugatePair {
    std::string name;
    linalg::Matrix base_covariance;
    linalg::Matrix within_covariance;
    linalg::Vector base_mean;
};

/// Random SPD pairs at several dimensions, a prior scaled far below and far
/// above the within spread, and a near-singular prior (rank 3 in 8-D plus
/// a 1e-6 ridge).
std::vector<ConjugatePair> conjugate_pairs() {
    stats::Rng rng(21);
    std::vector<ConjugatePair> pairs;
    for (const std::size_t d : {1u, 2u, 8u, 9u}) {
        pairs.push_back({"d=" + std::to_string(d), random_covariance(d, rng) * 4.0,
                         random_covariance(d, rng), rng.standard_normal_vector(d)});
    }
    const std::vector<std::pair<std::string, double>> scales = {{"S0 x 1e-4", 1e-4},
                                                                {"S0 x 1e4", 1e4}};
    for (const auto& [name, scale] : scales) {
        pairs.push_back({name, random_covariance(8, rng) * scale, random_covariance(8, rng),
                         rng.standard_normal_vector(8)});
    }
    const linalg::Matrix low = test_support::matrix_of(8, 3, rng.standard_normal_vector(24));
    linalg::Matrix rank_deficient = low.matmul(low.transposed());
    rank_deficient.add_diagonal(1e-6);
    pairs.push_back({"rank 3 + 1e-6 I", std::move(rank_deficient), random_covariance(8, rng),
                     rng.standard_normal_vector(8)});
    return pairs;
}

/// The unit built the way DpmmGibbs builds it: S0^{-1} from the jittered
/// factor of S0, and the factor of Sw.
DiagonalPredictive diagonal_predictive(const ConjugatePair& pair) {
    return DiagonalPredictive(
        linalg::Cholesky::factor_with_jitter(pair.base_covariance).inverse(),
        linalg::Cholesky::factor_with_jitter(pair.within_covariance), pair.base_mean);
}

// T Sw T^T = I and T S0 T^T = diag(1/D), each to 1e-10 relative to the
// matrix's norm. The construction works on the precision side, so it also
// checks T^T diag(D) T = S0^{-1}. The covariance-side bound widens to
// eps * kappa when kappa = D_max / D_min is large (the rank-deficient pair,
// kappa ~ 1e8): an eigensolver accurate to eps * ||C^T S0^{-1} C|| places
// the smallest D, hence the largest 1/D, only that well.
TEST(DiagonalPredictive, TransformDiagonalisesBothCovariances) {
    for (const ConjugatePair& pair : conjugate_pairs()) {
        SCOPED_TRACE(pair.name);
        const DiagonalPredictive predictive = diagonal_predictive(pair);
        const linalg::Matrix& t = predictive.transform();
        const linalg::Vector& d = predictive.eigenvalues();
        const linalg::Matrix within = t.matmul(pair.within_covariance).matmul(t.transposed());
        EXPECT_LT(linalg::Matrix::max_abs_diff(within, linalg::Matrix::identity(t.rows())),
                  1e-10);

        const linalg::Matrix base_precision =
            linalg::Cholesky::factor_with_jitter(pair.base_covariance).inverse();
        const linalg::Matrix rebuilt_precision =
            t.transposed().matmul(linalg::Matrix::diagonal(d)).matmul(t);
        EXPECT_LT(linalg::Matrix::max_abs_diff(rebuilt_precision, base_precision),
                  1e-10 * base_precision.frobenius_norm());

        ASSERT_GT(d.front(), 0.0);
        linalg::Vector inverse_d;
        for (const double di : d) inverse_d.push_back(1.0 / di);
        const double kappa = d.back() / d.front();
        const double relative = std::max(1e-10, std::numeric_limits<double>::epsilon() * kappa);
        const linalg::Matrix base = t.matmul(pair.base_covariance).matmul(t.transposed());
        EXPECT_LT(linalg::Matrix::max_abs_diff(base, linalg::Matrix::diagonal(inverse_d)),
                  relative * linalg::norm_inf(inverse_d));
    }
}

TEST(DiagonalPredictive, LogPdfMatchesFullCovariancePredictive) {
    stats::Rng rng(22);
    for (const ConjugatePair& pair : conjugate_pairs()) {
        SCOPED_TRACE(pair.name);
        const DiagonalPredictive predictive = diagonal_predictive(pair);
        const std::size_t d = pair.base_mean.size();
        const linalg::Matrix base_precision =
            linalg::Cholesky::factor_with_jitter(pair.base_covariance).inverse();
        const linalg::Matrix within_precision =
            linalg::Cholesky::factor_with_jitter(pair.within_covariance).inverse();
        const linalg::Vector center = rng.standard_normal_vector(d);
        linalg::Vector sum = linalg::zeros(d);
        for (std::size_t count = 0; count <= 64; ++count) {
            SCOPED_TRACE("count " + std::to_string(count));
            // Reference: Lambda(n) = S0^{-1} + n Sw^{-1}, mean Lambda^{-1}
            // (S0^{-1} m0 + Sw^{-1} s), covariance Lambda^{-1} + Sw.
            linalg::Matrix lambda = within_precision * static_cast<double>(count);
            lambda += base_precision;
            const linalg::Cholesky lambda_chol(lambda);
            linalg::Vector rhs = base_precision.matvec(pair.base_mean);
            linalg::axpy(1.0, within_precision.matvec(sum), rhs);
            linalg::Matrix covariance = lambda_chol.inverse();
            covariance += pair.within_covariance;
            const stats::MultivariateNormal reference(lambda_chol.solve(rhs),
                                                      std::move(covariance));

            const DiagonalPredictive::CountTerms terms = predictive.count_terms(count);
            linalg::Vector whitened_sum(d);
            linalg::Vector mean(d);
            predictive.whiten(sum.data(), whitened_sum.data());
            predictive.mean_into(terms, whitened_sum.data(), mean.data());
            for (int probe = 0; probe < 3; ++probe) {
                linalg::Vector x = rng.standard_normal_vector(d);
                linalg::axpy(1.0, center, x);
                linalg::Vector y(d);
                predictive.whiten(x.data(), y.data());
                const double expected = reference.log_pdf(x);
                EXPECT_NEAR(predictive.log_pdf(y.data(), mean.data(), terms), expected,
                            1e-9 * std::max(1.0, std::fabs(expected)));
            }
            // The next count's cluster gains one member near the center.
            linalg::Vector member = rng.standard_normal_vector(d);
            linalg::axpy(1.0, center, member);
            linalg::axpy(1.0, member, sum);
        }
    }
}

// --------------------------------------------------------------------- CRP

TEST(Crp, PartitionCoversAllCustomers) {
    // The Gibbs sampler's CRP partition labels every observation, and its
    // labels stay contiguous 0..k-1, which count_clusters relies on.
    stats::Rng rng(4);
    DpmmGibbs sampler(clustered_observations(rng, 10), dpmm_config());
    sampler.run(rng);
    const std::vector<std::size_t>& z = sampler.assignments();
    EXPECT_EQ(z.size(), 30u);
    const std::size_t k = count_clusters(z);
    EXPECT_EQ(k, sampler.num_clusters());
    std::set<std::size_t> labels(z.begin(), z.end());
    EXPECT_EQ(labels.size(), k);
    EXPECT_EQ(*labels.rbegin(), k - 1);
    EXPECT_EQ(count_clusters({}), 0u);
}

// -------------------------------------------------------------- DPMM Gibbs

TEST(DpmmGibbs, RecoversThreeClusters) {
    stats::Rng rng(8);
    DpmmGibbs sampler(clustered_observations(rng, 15), dpmm_config());
    sampler.run(rng);
    EXPECT_EQ(sampler.num_clusters(), 3u);
    // Members of the same planted cluster must share an assignment.
    const auto& z = sampler.assignments();
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t i = 1; i < 15; ++i) {
            EXPECT_EQ(z[c * 15 + i], z[c * 15]) << "cluster " << c;
        }
    }
}

TEST(DpmmGibbs, ClusterPosteriorsNearPlantedCenters) {
    stats::Rng rng(9);
    DpmmGibbs sampler(clustered_observations(rng, 20), dpmm_config());
    sampler.run(rng);
    ASSERT_EQ(sampler.num_clusters(), 3u);
    // Without the escape atom, atom k is cluster k's posterior predictive:
    // centred on the posterior mean, weighted by its count's share.
    const MixturePrior prior = sampler.extract_prior(false);
    ASSERT_EQ(prior.num_components(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        const double r = linalg::norm2(prior.atom(k).mean());
        EXPECT_NEAR(r, 6.0, 0.5);  // all centers are at radius 6
        EXPECT_NEAR(prior.weights()[k], 20.0 / 60.0, 1e-12);
    }
}

TEST(DpmmGibbs, LogJointImprovesFromColdStart) {
    stats::Rng rng(10);
    DpmmGibbs sampler(clustered_observations(rng, 12), dpmm_config());
    const double before = sampler.log_joint();
    sampler.run(rng);
    EXPECT_GT(sampler.log_joint(), before + 10.0);
}

TEST(DpmmGibbs, ExtractPriorWeightsAndEscapeAtom) {
    stats::Rng rng(11);
    DpmmGibbs sampler(clustered_observations(rng, 10), dpmm_config());
    sampler.run(rng);
    const MixturePrior with_base = sampler.extract_prior(true);
    const MixturePrior without_base = sampler.extract_prior(false);
    EXPECT_EQ(with_base.num_components(), without_base.num_components() + 1);
    EXPECT_NEAR(linalg::sum(with_base.weights()), 1.0, 1e-12);
    // The escape atom carries the alpha/(N+alpha) share before renorm, so it
    // must be the lightest component.
    double min_weight = 1e9;
    for (const double w : with_base.weights()) min_weight = std::min(min_weight, w);
    EXPECT_NEAR(min_weight, 1.0 / 31.0, 0.02);
}

TEST(DpmmGibbs, AlphaResamplingStaysPositive) {
    stats::Rng rng(12);
    DpmmConfig config = dpmm_config();
    config.resample_alpha = true;
    config.num_sweeps = 40;
    DpmmGibbs sampler(clustered_observations(rng, 10), config);
    sampler.run(rng);
    EXPECT_GT(sampler.alpha(), 0.0);
    EXPECT_LT(sampler.alpha(), 50.0);
}

TEST(DpmmGibbs, SingleClusterDataCollapses) {
    stats::Rng rng(13);
    std::vector<linalg::Vector> obs;
    for (int i = 0; i < 30; ++i) {
        obs.push_back({0.1 * rng.normal(), 0.1 * rng.normal()});
    }
    DpmmGibbs sampler(std::move(obs), dpmm_config());
    sampler.run(rng);
    EXPECT_EQ(sampler.num_clusters(), 1u);
}

// Pins the sampler's exact trajectory through the cloud's online path: a
// bootstrap run(), then 200 add_observation refreshes with alpha resampled,
// a run() every 50 uploads (its MAP restore rebuilds every cluster from a
// partition the last sweep may not have held), and outliers that open
// singleton clusters which later empty out — so the compaction swap in
// remove_observation runs. The expected values were recorded from
// the uncached sampler; any caching of per-cluster state must reproduce
// them bit for bit.
TEST(DpmmGibbs, OnlineTrajectoryPinned) {
    stats::Rng rng(15);
    DpmmConfig config = dpmm_config();
    config.resample_alpha = true;
    config.num_sweeps = 20;
    DpmmGibbs sampler(clustered_observations(rng, 4), config);
    sampler.run(rng);

    const std::vector<linalg::Vector> centers = {{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}};
    std::size_t drops = 0;
    for (std::size_t i = 0; i < 200; ++i) {
        linalg::Vector x = centers[i % 3];
        const double spread = (i % 7 == 6) ? 2.5 : 0.3;
        x[0] += spread * rng.normal();
        x[1] += spread * rng.normal();
        const std::size_t before = sampler.num_clusters();
        sampler.add_observation(std::move(x), rng, /*refresh_sweeps=*/2);
        if (sampler.num_clusters() < before) ++drops;
        if (i % 50 == 49) sampler.run(rng);
    }
    EXPECT_GE(drops, 1u) << "no cluster ever emptied; the compaction swap never ran";
    ASSERT_LT(sampler.num_clusters(), 36u);

    std::string assignments;
    for (const std::size_t z : sampler.assignments()) {
        assignments.push_back("0123456789abcdefghijklmnopqrstuvwxyz"[z]);
    }
    const MixturePrior prior = sampler.extract_prior();
    std::vector<std::string> weight_bits;
    std::vector<std::string> mean_bits;
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        weight_bits.push_back(hex_bits(prior.weights()[k]));
        for (const double m : prior.atom(k).mean()) mean_bits.push_back(hex_bits(m));
    }
    const auto joined = [](const std::vector<std::string>& parts) {
        std::string out;
        for (const std::string& p : parts) out += (out.empty() ? "" : " ") + p;
        return out;
    };

    EXPECT_EQ(assignments,
              "777722220000720720d20720720720720720720920720760720724720720e20720720720"
              "72372072052072071072072b7207207207207807207257207209207207c0720724720720"
              "02072071072072b7207207207207a072072b72072092072072072072f72072052072");
    EXPECT_EQ(hex_bits(sampler.alpha()), "40100790d5a40de6");
    EXPECT_EQ(joined(weight_bits),
              "3fd2aa80d2aa0f3d 3f82f65a3b987101 3fd34233a486d2c5 3f72f65a3b987101 "
              "3f82f65a3b987101 3f8c71875964a981 3f72f65a3b987101 3fd2aa80d2aa0f3d "
              "3f72f65a3b987101 3f8c71875964a981 3f72f65a3b987101 3f8c71875964a981 "
              "3f72f65a3b987101 3f72f65a3b987101 3f72f65a3b987101 3f72f65a3b987101 "
              "3f92ff51a9709add");
    EXPECT_EQ(joined(mean_bits),
              "bfa5b5ae50af7ec7 40178ffa748687ae c018f188324a060e 4001dbe0a619e8a9 "
              "c01827412c51c76a 3fa1000be0f717c6 40009564bbedd6aa 40237ead8bc65d63 "
              "bfe3e51d2186a6b9 40019c28848f7442 400ac6bd63e5d930 4006d2b51d178aa2 "
              "c00b6b7d43f838db 3fdddffa3474e85c 4017a62d9521e6d2 3f777ba54006c5bb "
              "c01a0c768a689ea1 c00eb4e6e072b030 401f7e114e7f17fe 3ff64b43111f2687 "
              "c025b775e685e8c7 40113e2048461bd2 3ff4fcdbf51173aa 401e69bd893d14df "
              "c00f76d700ce434e 40103eebac08373e 40086ab69265c9ca c00d727e04e2ff61 "
              "3fedb24240012f3b c0113a926bf74a51 3f9e26a3cfb78432 c0022107cabe3459 "
              "0000000000000000 0000000000000000");
}

// The same online path as OnlineTrajectoryPinned, but in 8-D with full,
// correlated S0 and Sw: every other Gibbs test is isotropic and at most
// 2-D, where any change of basis the sweep makes is trivially exact. Pins
// the trajectory bits so that scoring clusters in another basis has to
// reproduce every draw. Outliers open singleton clusters that later empty,
// so the compaction swap runs too. The expected values were recorded from
// the sampler that scored each density by triangular solves in the
// original coordinates.
TEST(DpmmGibbs, FullCovarianceTrajectoryPinned) {
    constexpr std::size_t kDim = 8;
    stats::Rng rng(16);
    DpmmConfig config;
    config.alpha = 1.0;
    config.base_mean = rng.standard_normal_vector(kDim);
    config.base_covariance = random_covariance(kDim, rng) * 16.0;
    config.within_covariance = random_covariance(kDim, rng) * 0.2;
    config.num_sweeps = 20;
    config.resample_alpha = true;

    const linalg::Matrix base_factor = linalg::Cholesky(config.base_covariance).lower();
    const linalg::Matrix within_factor = linalg::Cholesky(config.within_covariance).lower();
    std::vector<linalg::Vector> centers;
    for (int c = 0; c < 3; ++c) {
        linalg::Vector center = base_factor.matvec(rng.standard_normal_vector(kDim));
        linalg::axpy(1.0, config.base_mean, center);
        centers.push_back(std::move(center));
    }
    const auto draw = [&](std::size_t i, double spread) {
        linalg::Vector x = within_factor.matvec(rng.standard_normal_vector(kDim));
        linalg::scale(x, spread);
        linalg::axpy(1.0, centers[i % centers.size()], x);
        return x;
    };
    std::vector<linalg::Vector> initial;
    for (std::size_t i = 0; i < 12; ++i) initial.push_back(draw(i, 1.0));
    DpmmGibbs sampler(std::move(initial), config);
    sampler.run(rng);

    std::size_t drops = 0;
    for (std::size_t i = 0; i < 50; ++i) {
        const std::size_t before = sampler.num_clusters();
        sampler.add_observation(draw(i, (i % 7 == 6) ? 4.0 : 1.0), rng, /*refresh_sweeps=*/2);
        if (sampler.num_clusters() < before) ++drops;
    }
    EXPECT_GE(drops, 1u) << "no cluster ever emptied; the compaction swap never ran";
    ASSERT_LT(sampler.num_clusters(), 36u);

    std::string assignments;
    for (const std::size_t z : sampler.assignments()) {
        assignments.push_back("0123456789abcdefghijklmnopqrstuvwxyz"[z]);
    }
    const MixturePrior prior = sampler.extract_prior();
    std::string weight_bits;
    std::string mean_bits;
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        weight_bits += (k == 0 ? "" : " ") + hex_bits(prior.weights()[k]);
        for (const double m : prior.atom(k).mean()) {
            mean_bits += (mean_bits.empty() ? "" : " ") + hex_bits(m);
        }
    }

    EXPECT_EQ(assignments, "12012012012012012052012012012012312012042012012012012612012012");
    EXPECT_EQ(hex_bits(sampler.alpha()), "40068698c4af6884");
    EXPECT_EQ(weight_bits,
              "3fd1c601da586163 3fd2c2c9112466cc 3fd4bc577ebc719f 3f8f98e6d980ad22 "
              "3f8f98e6d980ad22 3f8f98e6d980ad22 3f8f98e6d980ad22 3fa63e05d4b58456");
    EXPECT_EQ(mean_bits,
              "40125130405bf24e c003f5a3b10305a6 c01a322b7cabfa47 c004082bbbe428c7 "
              "40197b08c222d513 4010f55ec6a773c4 c01423cb61541012 c010db98f18e462c "
              "3ff1e9c2e8de907d c0225cd72b620edf 401fad5230061c73 3fe834abe9fe1204 "
              "3fff75a9070dcb9d c017802429537329 4012867e1ed53b6d c00111f2b89d39f6 "
              "c0061318f803b8c0 4003798256bba6e6 c00c7e8aa86c2f3d bfe9f26f05c7c7ab "
              "3fd864653a57e14d bffbafb501e49d6f 3fdc3a7d8ec19c25 3fffb19d3e78b19a "
              "400d7a392de01a58 c00764560ed13297 c0259c31d7893e0d c0166f34182aa77d "
              "4022d776f98d2a35 40074c417a9a1d28 c015607b1780d21a c00fccdd0fdcaa84 "
              "bfc5f08346a65e66 c0244e4a7cfc834e 4015bd5943aafba1 4004db92df37f6e9 "
              "40180ef3d33c3730 c02223750684bd41 3ff8a9abdbfafdb4 c004626489508ba2 "
              "3fedd9bba607eb04 c0212004e5b5de26 40215208da24157c 3fb11cb7d19a6303 "
              "3fdab73a073749c3 c01d81553724f0eb 401086df7945bbc3 bff0741cf197a2d6 "
              "400d215d75d0561d 3fe15f5fc45ef8b3 c014d8b64cb5ccea bff1781c6b8ebf52 "
              "40194c754cb2c54a 3ff2bb17d03fa3c2 c01583546927f441 c01187c997bb671d "
              "3fee1b06f578832f 3fe3f40e21cabd8c 3fce5153ae07f253 bfa714d7190ecc46 "
              "3fcd8e73d7599299 bff1ccb3bc6f4b97 3fe5d0359e5b20cd 3fec330581f73ae0");
}

TEST(DpmmGibbs, Validation) {
    stats::Rng rng(14);
    EXPECT_THROW(DpmmGibbs({}, dpmm_config()), std::invalid_argument);
    DpmmConfig bad = dpmm_config();
    bad.alpha = 0.0;
    EXPECT_THROW(DpmmGibbs({{1.0, 2.0}}, bad), std::invalid_argument);
    DpmmConfig mismatched = dpmm_config();
    EXPECT_THROW(DpmmGibbs({{1.0, 2.0, 3.0}}, mismatched), std::invalid_argument);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(DpmmGibbs({{1.0, 2.0}, {nan, 0.0}}, dpmm_config()), std::invalid_argument);
    EXPECT_THROW(DpmmGibbs({{1.0, -inf}}, dpmm_config()), std::invalid_argument);

    // Mis-shaped covariances are named up front, not found by a matvec deep
    // inside the whitening build.
    const auto rejection = [](const DpmmConfig& config) -> std::string {
        try {
            DpmmGibbs sampler({{1.0, 2.0}}, config);
        } catch (const std::invalid_argument& error) {
            return error.what();
        }
        return "accepted";
    };
    DpmmConfig bad_base = dpmm_config();
    bad_base.base_covariance = linalg::Matrix::identity(3);
    EXPECT_NE(rejection(bad_base).find("base_covariance"), std::string::npos)
        << rejection(bad_base);
    DpmmConfig bad_within = dpmm_config();
    bad_within.within_covariance = linalg::Matrix(2, 3, 0.0);
    EXPECT_NE(rejection(bad_within).find("within_covariance"), std::string::npos)
        << rejection(bad_within);
}

// -------------------------------------------------------- DPMM variational

VariationalConfig cavi_config() {
    VariationalConfig config;
    config.alpha = 1.0;
    config.base_mean = {0.0, 0.0};
    config.base_covariance = linalg::Matrix::identity(2) * 25.0;
    config.within_covariance = linalg::Matrix::identity(2) * 0.25;
    config.truncation = 8;
    return config;
}

TEST(DpmmVariational, ElboMonotone) {
    stats::Rng rng(15);
    DpmmVariational cavi(clustered_observations(rng, 12), cavi_config());
    // Manual run with explicit monotonicity check at every step.
    (void)cavi.run(rng);
    double previous = cavi.elbo();
    for (int i = 0; i < 10; ++i) {
        const double current = cavi.iterate();
        EXPECT_GE(current, previous - 1e-7);
        previous = current;
    }
}

TEST(DpmmVariational, ExpectedWeightsOnSimplex) {
    stats::Rng rng(16);
    DpmmVariational cavi(clustered_observations(rng, 10), cavi_config());
    cavi.run(rng);
    const linalg::Vector w = cavi.expected_weights();
    EXPECT_NEAR(linalg::sum(w), 1.0, 1e-9);
    for (const double v : w) EXPECT_GE(v, 0.0);
}

TEST(DpmmVariational, FindsThreeHeavyComponents) {
    stats::Rng rng(17);
    DpmmVariational cavi(clustered_observations(rng, 20), cavi_config());
    cavi.run(rng);
    const linalg::Vector w = cavi.expected_weights();
    std::size_t heavy = 0;
    for (const double v : w) {
        if (v > 0.1) ++heavy;
    }
    EXPECT_EQ(heavy, 3u);
}

TEST(DpmmVariational, ExtractedPriorDropsEmptyComponents) {
    stats::Rng rng(18);
    DpmmVariational cavi(clustered_observations(rng, 20), cavi_config());
    cavi.run(rng);
    const MixturePrior prior = cavi.extract_prior(0.05);
    EXPECT_LE(prior.num_components(), 4u);
    EXPECT_GE(prior.num_components(), 3u);
    EXPECT_NEAR(linalg::sum(prior.weights()), 1.0, 1e-12);
}

TEST(DpmmVariational, PriorMeansNearPlantedCenters) {
    stats::Rng rng(19);
    DpmmVariational cavi(clustered_observations(rng, 25), cavi_config());
    cavi.run(rng);
    const MixturePrior prior = cavi.extract_prior(0.05);
    std::size_t matched = 0;
    for (const linalg::Vector& center :
         std::vector<linalg::Vector>{{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}}) {
        for (std::size_t k = 0; k < prior.num_components(); ++k) {
            if (linalg::distance2(prior.atom(k).mean(), center) < 0.5) {
                ++matched;
                break;
            }
        }
    }
    EXPECT_EQ(matched, 3u);
}

TEST(DpmmVariational, Validation) {
    VariationalConfig bad = cavi_config();
    bad.truncation = 1;
    EXPECT_THROW(DpmmVariational({{1.0, 2.0}}, bad), std::invalid_argument);
    EXPECT_THROW(DpmmVariational({}, cavi_config()), std::invalid_argument);
}

// ----------------------------------------- Gibbs vs variational agreement

TEST(DpmmAgreement, BothInferencesShipSimilarPriors) {
    stats::Rng rng(20);
    const auto obs = clustered_observations(rng, 20);
    stats::Rng gibbs_rng(21);
    DpmmGibbs gibbs(obs, dpmm_config());
    gibbs.run(gibbs_rng);
    stats::Rng cavi_rng(22);
    DpmmVariational cavi(obs, cavi_config());
    cavi.run(cavi_rng);
    const MixturePrior pg = gibbs.extract_prior(false);
    const MixturePrior pv = cavi.extract_prior(0.05);
    // Same density (up to Monte Carlo noise) at a probe set of points.
    for (const linalg::Vector& probe :
         std::vector<linalg::Vector>{{6.0, 0.0}, {-6.0, 0.0}, {0.0, 6.0}}) {
        EXPECT_NEAR(pg.log_pdf(probe), pv.log_pdf(probe), 1.0) << probe[0] << "," << probe[1];
    }
}

}  // namespace
}  // namespace drel::dp
