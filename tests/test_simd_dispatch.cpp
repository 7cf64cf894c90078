// Runtime SIMD dispatch: every vectorized backend must be a drop-in for the
// scalar one, bit for bit.
//
// The contract under test (linalg/simd.hpp): all backends implement the SAME
// 8-lane reduction tree for dot-like kernels and plain elementwise loops for
// the rest, so for any input the active backend's result is BIT-IDENTICAL to
// the scalar table's. Against the naive left-to-right reference the lane
// tree may differ — but only within the standard summation reorder bound,
// which is also asserted here. The capstone re-runs a sharded fleet under
// ScopedBackendForTesting and demands a bit-identical report, which is what
// lets the golden files stay byte-stable whatever DREL_SIMD says.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dp/batch_responsibilities.hpp"
#include "edgesim/server.hpp"
#include "linalg/reference.hpp"
#include "linalg/simd.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

using linalg::simd::Backend;

std::uint64_t to_bits(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

std::vector<Backend> available_backends() {
    std::vector<Backend> backends;
    for (const Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
        if (linalg::simd::backend_available(b)) backends.push_back(b);
    }
    return backends;
}

/// Mixed-magnitude fill: spans ~120 decades so lane-order mistakes show up
/// as rounding differences instead of cancelling silently.
std::vector<double> mixed_values(stats::Rng& rng, std::size_t n) {
    std::vector<double> out(n);
    for (double& v : out) {
        v = rng.normal() * std::ldexp(1.0, static_cast<int>(rng.uniform_index(40)) - 20);
    }
    return out;
}

constexpr std::size_t kMaxDim = 67;  // crosses 8-lane blocks and every tail length

TEST(SimdDispatch, BackendEnumerationIsSane) {
    // Scalar is always available and always resolvable.
    ASSERT_TRUE(linalg::simd::backend_available(Backend::kScalar));
    ASSERT_NE(linalg::simd::backend_kernels(Backend::kScalar), nullptr);
    const Backend active = linalg::simd::active_backend();
    EXPECT_TRUE(linalg::simd::backend_available(active));
    EXPECT_EQ(linalg::simd::active().backend, active);
    EXPECT_STREQ(linalg::simd::backend_name(Backend::kScalar), "scalar");
    EXPECT_STREQ(linalg::simd::backend_name(Backend::kAvx2), "avx2");
    EXPECT_STREQ(linalg::simd::backend_name(Backend::kNeon), "neon");
}

TEST(SimdDispatch, ScopedOverrideSwitchesAndRestores) {
    const Backend before = linalg::simd::active_backend();
    {
        linalg::simd::ScopedBackendForTesting scoped(Backend::kScalar);
        EXPECT_EQ(linalg::simd::active_backend(), Backend::kScalar);
        {
            // Nested overrides restore in LIFO order.
            linalg::simd::ScopedBackendForTesting inner(before);
            EXPECT_EQ(linalg::simd::active_backend(), before);
        }
        EXPECT_EQ(linalg::simd::active_backend(), Backend::kScalar);
    }
    EXPECT_EQ(linalg::simd::active_backend(), before);
}

// Every backend's dot must land on the scalar emulation's bits exactly —
// the lane contract, exercised across every block/tail split and pointer
// misalignment (offsets break 32-byte alignment on AVX2).
TEST(SimdDispatch, DotBitIdenticalToScalarAcrossDimsAndOffsets) {
    stats::Rng rng(3001);
    const auto* scalar = linalg::simd::backend_kernels(Backend::kScalar);
    for (const Backend backend : available_backends()) {
        const auto* kernels = linalg::simd::backend_kernels(backend);
        ASSERT_NE(kernels, nullptr);
        for (std::size_t n = 1; n <= kMaxDim; ++n) {
            for (std::size_t offset = 0; offset < 4; ++offset) {
                const std::vector<double> x = mixed_values(rng, n + offset);
                const std::vector<double> y = mixed_values(rng, n + offset);
                const double got = kernels->dot_n(x.data() + offset, y.data() + offset, n);
                const double want = scalar->dot_n(x.data() + offset, y.data() + offset, n);
                EXPECT_EQ(to_bits(got), to_bits(want))
                    << linalg::simd::backend_name(backend) << " n=" << n
                    << " offset=" << offset;
            }
        }
    }
}

TEST(SimdDispatch, DotStrideBitIdenticalToScalar) {
    stats::Rng rng(3002);
    const auto* scalar = linalg::simd::backend_kernels(Backend::kScalar);
    for (const Backend backend : available_backends()) {
        const auto* kernels = linalg::simd::backend_kernels(backend);
        for (std::size_t n = 1; n <= 33; ++n) {
            for (const std::size_t stride : {std::size_t{1}, std::size_t{3}, std::size_t{9}}) {
                const std::vector<double> x = mixed_values(rng, n * stride);
                const std::vector<double> y = mixed_values(rng, n);
                const double got = kernels->dot_stride_n(x.data(), stride, y.data(), n);
                const double want = scalar->dot_stride_n(x.data(), stride, y.data(), n);
                EXPECT_EQ(to_bits(got), to_bits(want))
                    << linalg::simd::backend_name(backend) << " n=" << n
                    << " stride=" << stride;
            }
        }
    }
}

// The elementwise kernels have no reduction, so they owe bit-identity not
// just to scalar but to the naive reference as well.
TEST(SimdDispatch, ElementwiseKernelsBitIdenticalToReference) {
    stats::Rng rng(3003);
    for (const Backend backend : available_backends()) {
        const auto* kernels = linalg::simd::backend_kernels(backend);
        for (std::size_t n = 1; n <= kMaxDim; ++n) {
            for (std::size_t offset = 0; offset < 4; ++offset) {
                const std::vector<double> x = mixed_values(rng, n + offset);
                std::vector<double> got = mixed_values(rng, n + offset);
                std::vector<double> want = got;
                const double alpha = rng.normal();

                kernels->axpy_n(alpha, x.data() + offset, got.data() + offset, n);
                linalg::reference::axpy_n(alpha, x.data() + offset, want.data() + offset, n);
                for (std::size_t i = 0; i < n + offset; ++i) {
                    ASSERT_EQ(to_bits(got[i]), to_bits(want[i]))
                        << "axpy " << linalg::simd::backend_name(backend) << " n=" << n;
                }

                kernels->sub_const_n(x.data() + offset, alpha, got.data() + offset, n);
                linalg::reference::sub_const_n(x.data() + offset, alpha,
                                               want.data() + offset, n);
                for (std::size_t i = 0; i < n + offset; ++i) {
                    ASSERT_EQ(to_bits(got[i]), to_bits(want[i]))
                        << "sub_const " << linalg::simd::backend_name(backend) << " n=" << n;
                }

                const double divisor = 1.0 + std::fabs(rng.normal());
                kernels->div_const_n(got.data() + offset, divisor, n);
                linalg::reference::div_const_n(want.data() + offset, divisor, n);
                for (std::size_t i = 0; i < n + offset; ++i) {
                    ASSERT_EQ(to_bits(got[i]), to_bits(want[i]))
                        << "div_const " << linalg::simd::backend_name(backend) << " n=" << n;
                }

                kernels->add_sq_n(x.data() + offset, got.data() + offset, n);
                linalg::reference::add_sq_n(x.data() + offset, want.data() + offset, n);
                for (std::size_t i = 0; i < n + offset; ++i) {
                    ASSERT_EQ(to_bits(got[i]), to_bits(want[i]))
                        << "add_sq " << linalg::simd::backend_name(backend) << " n=" << n;
                }

                // The fused residual kernel against the three passes it fuses.
                std::vector<double> residual(n);
                kernels->add_sq_residual_n(x.data() + offset, alpha, divisor,
                                           got.data() + offset, n);
                linalg::reference::sub_const_n(x.data() + offset, alpha, residual.data(), n);
                linalg::reference::div_const_n(residual.data(), divisor, n);
                linalg::reference::add_sq_n(residual.data(), want.data() + offset, n);
                for (std::size_t i = 0; i < n + offset; ++i) {
                    ASSERT_EQ(to_bits(got[i]), to_bits(want[i]))
                        << "add_sq_residual " << linalg::simd::backend_name(backend)
                        << " n=" << n;
                }
            }
        }
    }
}

// Denormals, signed zeros, and infinities must flow through every backend
// exactly as through the scalar one — no flush-to-zero, no spurious NaNs.
TEST(SimdDispatch, SpecialValuesPropagateIdentically) {
    const double denormal = std::numeric_limits<double>::denorm_min();
    const double tiny = std::ldexp(1.0, -1060);
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> x = {denormal, -denormal, 0.0,  -0.0, tiny, 1.0,
                             1e300,    -1e-300,   -0.0, tiny, 2.0,  denormal};
    std::vector<double> y = {1.0, 1.0, -0.0, 0.0,  tiny,  denormal,
                             1.0, 1.0, 3.0,  -2.0, 1e300, 4.0};
    const auto* scalar = linalg::simd::backend_kernels(Backend::kScalar);
    for (const Backend backend : available_backends()) {
        const auto* kernels = linalg::simd::backend_kernels(backend);
        for (std::size_t n = 1; n <= x.size(); ++n) {
            EXPECT_EQ(to_bits(kernels->dot_n(x.data(), y.data(), n)),
                      to_bits(scalar->dot_n(x.data(), y.data(), n)))
                << linalg::simd::backend_name(backend) << " n=" << n;
        }
        // One +inf partnered with a positive value: the product and the
        // whole reduction must come out +inf on every backend.
        std::vector<double> with_inf = x;
        with_inf[5] = inf;
        const double got = kernels->dot_n(with_inf.data(), y.data(), with_inf.size());
        EXPECT_EQ(to_bits(got),
                  to_bits(scalar->dot_n(with_inf.data(), y.data(), with_inf.size())));
        EXPECT_TRUE(std::isinf(got));

        std::vector<double> acc_got(x.size(), 0.0);
        std::vector<double> acc_want(x.size(), 0.0);
        kernels->add_sq_n(x.data(), acc_got.data(), x.size());
        scalar->add_sq_n(x.data(), acc_want.data(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            EXPECT_EQ(to_bits(acc_got[i]), to_bits(acc_want[i]));
        }
        for (const double center : {0.0, -0.0, tiny, 1.0}) {
            kernels->add_sq_residual_n(with_inf.data(), center, denormal, acc_got.data(),
                                       x.size());
            scalar->add_sq_residual_n(with_inf.data(), center, denormal, acc_want.data(),
                                      x.size());
            for (std::size_t i = 0; i < x.size(); ++i) {
                EXPECT_EQ(to_bits(acc_got[i]), to_bits(acc_want[i]))
                    << linalg::simd::backend_name(backend) << " center " << center;
            }
        }
    }
}

// Scalar (and therefore, by the bit-identity above, every backend) stays
// within the textbook summation reorder bound of the naive reference.
TEST(SimdDispatch, DotWithinReorderBoundOfNaiveReference) {
    stats::Rng rng(3004);
    const auto* scalar = linalg::simd::backend_kernels(Backend::kScalar);
    for (std::size_t n = 1; n <= kMaxDim; ++n) {
        const std::vector<double> x = mixed_values(rng, n);
        const std::vector<double> y = mixed_values(rng, n);
        const double got = scalar->dot_n(x.data(), y.data(), n);
        const double want = linalg::reference::dot_n(x.data(), y.data(), n);
        double magnitude = 0.0;
        for (std::size_t i = 0; i < n; ++i) magnitude += std::fabs(x[i] * y[i]);
        const double bound = 2.0 * static_cast<double>(n) *
                             std::numeric_limits<double>::epsilon() * magnitude;
        EXPECT_NEAR(got, want, bound) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// The batched responsibilities kernel against its naive oracle and the
// per-device path it replaces.

dp::MixturePrior dispatch_test_prior(std::size_t dim, std::size_t num_components,
                                     stats::Rng& rng) {
    std::vector<stats::MultivariateNormal> atoms;
    linalg::Vector weights(num_components);
    for (std::size_t k = 0; k < num_components; ++k) {
        linalg::Vector mean(dim);
        for (double& m : mean) m = 3.0 * rng.normal();
        linalg::Matrix cov = linalg::Matrix::identity(dim);
        cov *= 0.2 + rng.uniform();
        cov.add_outer(0.1, rng.standard_normal_vector(dim));  // correlated, PD
        atoms.emplace_back(std::move(mean), std::move(cov));
        weights[k] = 0.5 + rng.uniform();
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

TEST(SimdDispatch, BatchResponsibilitiesNearOracleAndPerDevicePath) {
    stats::Rng rng(3005);
    for (const std::size_t dim : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        const dp::MixturePrior prior = dispatch_test_prior(dim, 4, rng);
        const dp::BatchResponsibilities batch(prior);
        const std::size_t count = 23;
        std::vector<double> thetas(count * dim);
        for (double& t : thetas) t = 4.0 * rng.normal();

        util::Workspace ws;
        std::vector<double> got(count * prior.num_components());
        batch.log_densities_into(thetas.data(), count, got.data(), ws);

        // Naive oracle: per-device textbook forward solve.
        std::vector<linalg::Vector> means;
        std::vector<linalg::Matrix> lowers;
        linalg::Vector log_weights(prior.num_components());
        for (std::size_t k = 0; k < prior.num_components(); ++k) {
            means.push_back(prior.atom(k).mean());
            lowers.push_back(prior.atom(k).chol().lower());
            log_weights[k] = std::log(prior.weights()[k]);
        }
        std::vector<double> want(count * prior.num_components());
        linalg::reference::batch_log_densities(means, lowers, log_weights, thetas.data(),
                                               count, dim, want.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_NEAR(got[i], want[i], 1e-9 * (1.0 + std::fabs(want[i])))
                << "dim=" << dim << " entry " << i;
        }

        // And the per-device production path (different reduction order,
        // same math): each row of densities, normalized, is that device's
        // responsibilities.
        const std::size_t num_k = prior.num_components();
        linalg::Vector theta(dim);
        linalg::Vector per_device;
        for (std::size_t i = 0; i < count; ++i) {
            std::copy(thetas.begin() + static_cast<std::ptrdiff_t>(i * dim),
                      thetas.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim),
                      theta.begin());
            prior.responsibilities_into(theta, per_device, ws);
            linalg::Vector row(got.begin() + static_cast<std::ptrdiff_t>(i * num_k),
                               got.begin() + static_cast<std::ptrdiff_t>((i + 1) * num_k));
            linalg::softmax_inplace(row);
            for (std::size_t k = 0; k < num_k; ++k) {
                EXPECT_NEAR(row[k], per_device[k], 1e-9)
                    << "device " << i << " component " << k;
            }
        }
    }
}

TEST(SimdDispatch, BatchResponsibilitiesIndependentOfBatchSplit) {
    // A device's row may not depend on who shares its batch or its tile —
    // the property that makes the fleet report shard-partition invariant.
    // Counts straddle the tile edges; every row must equal a count-1 call
    // on the same device, and splitting the batch anywhere changes nothing.
    stats::Rng rng(3006);
    const dp::MixturePrior prior = dispatch_test_prior(6, 3, rng);  // correlated atoms
    const dp::BatchResponsibilities batch(prior);
    constexpr std::size_t kTile = dp::BatchResponsibilities::kTileDevices;
    const std::size_t k = prior.num_components();

    util::Workspace ws;
    for (const std::size_t count : {std::size_t{1}, kTile - 1, kTile, kTile + 1, 2 * kTile + 3}) {
        std::vector<double> thetas(count * 6);
        for (double& t : thetas) t = 4.0 * rng.normal();
        std::vector<double> whole(count * k);
        batch.log_densities_into(thetas.data(), count, whole.data(), ws);
        // The tiled scorer's MAP match agrees with the whole-batch argmax
        // (first max wins).
        std::vector<std::size_t> map(count);
        for (std::size_t i = 0; i < count; ++i) {
            const double* row = whole.data() + i * k;
            map[i] = static_cast<std::size_t>(std::max_element(row, row + k) - row);
        }
        std::vector<std::size_t> other(count);
        for (std::size_t i = 0; i < count; ++i) other[i] = (map[i] + 1) % k;
        std::vector<double> hit(count, -1.0);
        std::vector<double> miss(count, -1.0);
        batch.score_match_into(thetas.data(), count, map.data(), hit.data(), ws);
        batch.score_match_into(thetas.data(), count, other.data(), miss.data(), ws);
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(hit[i], 1.0) << "count=" << count << " device=" << i;
            ASSERT_EQ(miss[i], 0.0) << "count=" << count << " device=" << i;
        }
        std::vector<double> single(k);
        for (std::size_t i = 0; i < count; ++i) {
            batch.log_densities_into(thetas.data() + i * 6, 1, single.data(), ws);
            for (std::size_t c = 0; c < k; ++c) {
                ASSERT_EQ(to_bits(single[c]), to_bits(whole[i * k + c]))
                    << "count=" << count << " device=" << i;
            }
        }
        for (const std::size_t split : {std::size_t{1}, count / 2, kTile - 1, kTile + 1}) {
            if (split >= count) continue;
            std::vector<double> front(split * k);
            std::vector<double> back((count - split) * k);
            batch.log_densities_into(thetas.data(), split, front.data(), ws);
            batch.log_densities_into(thetas.data() + split * 6, count - split, back.data(), ws);
            for (std::size_t i = 0; i < front.size(); ++i) {
                ASSERT_EQ(to_bits(front[i]), to_bits(whole[i]))
                    << "count=" << count << " split=" << split;
            }
            for (std::size_t i = 0; i < back.size(); ++i) {
                ASSERT_EQ(to_bits(back[i]), to_bits(whole[split * k + i]))
                    << "count=" << count << " split=" << split;
            }
        }
    }
    EXPECT_EQ(ws.depth(), 0u);
}

TEST(SimdDispatch, BatchResponsibilitiesBitIdenticalAcrossBackends) {
    stats::Rng rng(3007);
    const dp::MixturePrior prior = dispatch_test_prior(7, 5, rng);
    const dp::BatchResponsibilities batch(prior);
    const std::size_t count = 29;
    std::vector<double> thetas(count * 7);
    for (double& t : thetas) t = 4.0 * rng.normal();

    util::Workspace ws;
    std::vector<double> baseline(count * 5);
    {
        linalg::simd::ScopedBackendForTesting scoped(Backend::kScalar);
        batch.log_densities_into(thetas.data(), count, baseline.data(), ws);
    }
    for (const Backend backend : available_backends()) {
        linalg::simd::ScopedBackendForTesting scoped(backend);
        std::vector<double> got(count * 5);
        batch.log_densities_into(thetas.data(), count, got.data(), ws);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(to_bits(got[i]), to_bits(baseline[i]))
                << linalg::simd::backend_name(backend) << " entry " << i;
        }
    }
}

// The scale fleet's prior is isotropic, so its atoms have diagonal
// Cholesky factors; the tests above use correlated atoms only. This pin
// digests both scorer outputs on isotropic, per-coordinate diagonal and
// mixed priors, at counts straddling the tile edge, under every backend.
// A few rows sit exactly on an atom's mean or carry -0.0 coordinates
// against a zero mean, so every residual zero is exercised.
enum class PinPrior { kIsotropic, kDiagonal, kMixed };

dp::MixturePrior pin_prior(PinPrior kind, std::size_t dim, stats::Rng& rng) {
    constexpr std::size_t kComponents = 4;
    std::vector<stats::MultivariateNormal> atoms;
    linalg::Vector weights(kComponents);
    for (std::size_t k = 0; k < kComponents; ++k) {
        linalg::Vector mean(dim, 0.0);
        if (k > 0) {
            for (double& m : mean) m = 3.0 * rng.normal();
        }
        weights[k] = 0.5 + rng.uniform();
        if (kind == PinPrior::kIsotropic) {
            atoms.push_back(stats::MultivariateNormal::isotropic(std::move(mean),
                                                                 0.2 + rng.uniform()));
        } else if (kind == PinPrior::kDiagonal || k % 2 == 0) {
            linalg::Vector variances(dim);
            for (double& v : variances) v = 0.1 + 2.0 * rng.uniform();
            atoms.push_back(stats::MultivariateNormal::diagonal(std::move(mean), variances));
        } else {
            linalg::Matrix cov = linalg::Matrix::identity(dim);
            cov *= 0.2 + rng.uniform();
            cov.add_outer(0.1, rng.standard_normal_vector(dim));
            atoms.emplace_back(std::move(mean), std::move(cov));
        }
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

TEST(SimdDispatch, BatchScorerBitsPinned) {
    constexpr std::size_t kTile = dp::BatchResponsibilities::kTileDevices;
    struct Case {
        PinPrior kind;
        std::size_t dim;
        const char* digest;
    };
    const Case cases[] = {
        {PinPrior::kIsotropic, 1, "0e94927f7fe646be"},
        {PinPrior::kIsotropic, 3, "aa0f9e1c871f1bf6"},
        {PinPrior::kIsotropic, 8, "883703dc63714ec5"},
        {PinPrior::kDiagonal, 1, "6c3e833515eacde0"},
        {PinPrior::kDiagonal, 3, "4f65f400596467a7"},
        {PinPrior::kDiagonal, 8, "4a9097933ccf6bdf"},
        {PinPrior::kMixed, 1, "b005b90f89ca7d6a"},
        {PinPrior::kMixed, 3, "8053f0f160afde5c"},
        {PinPrior::kMixed, 8, "10994a03b9a3c492"},
    };
    for (const Case& c : cases) {
        stats::Rng rng(3100 + 10 * static_cast<std::uint64_t>(c.kind) + c.dim);
        const dp::MixturePrior prior = pin_prior(c.kind, c.dim, rng);
        const dp::BatchResponsibilities batch(prior);
        const std::size_t num_k = prior.num_components();
        std::vector<std::vector<double>> inputs;
        for (const std::size_t count : {std::size_t{1}, kTile - 1, kTile, kTile + 1,
                                        2 * kTile + 3}) {
            std::vector<double> thetas(count * c.dim);
            for (std::size_t i = 0; i < count; ++i) {
                const linalg::Vector& mean = prior.atom(i % num_k).mean();
                for (std::size_t r = 0; r < c.dim; ++r) {
                    double& t = thetas[i * c.dim + r];
                    if (i % 7 == 3) {
                        t = mean[r];  // residual +0.0
                    } else if (i % 7 == 5) {
                        t = r % 2 == 0 ? -0.0 : 0.0;  // -0.0 against the zero-mean atom
                    } else {
                        t = mean[r] + 1.5 * rng.normal();
                    }
                }
            }
            inputs.push_back(std::move(thetas));
        }
        for (const Backend backend : available_backends()) {
            linalg::simd::ScopedBackendForTesting scoped(backend);
            util::Workspace ws;
            std::vector<double> bits;
            for (const std::vector<double>& thetas : inputs) {
                const std::size_t count = thetas.size() / c.dim;
                std::vector<double> densities(count * num_k);
                batch.log_densities_into(thetas.data(), count, densities.data(), ws);
                bits.insert(bits.end(), densities.begin(), densities.end());
                std::vector<std::size_t> tags(count);
                for (std::size_t i = 0; i < count; ++i) tags[i] = (i / 3) % num_k;
                std::vector<double> accuracy(count, -1.0);
                batch.score_match_into(thetas.data(), count, tags.data(), accuracy.data(), ws);
                bits.insert(bits.end(), accuracy.begin(), accuracy.end());
            }
            EXPECT_EQ(test_support::bits_digest(bits), c.digest)
                << linalg::simd::backend_name(backend) << " prior "
                << static_cast<int>(c.kind) << " dim " << c.dim;
            EXPECT_EQ(ws.depth(), 0u);
        }
    }
}

// A diagonal atom scores each coordinate on its own: an infinite coordinate
// gives that atom a quadratic of +inf, so a log-density of -inf, and a NaN
// coordinate gives NaN. The running argmax then keeps atom 0, as
// std::max_element would on the row. A correlated atom keeps the
// substitution, where an infinite coordinate becomes NaN in later rows.
TEST(SimdDispatch, BatchScorerNonFiniteThetas) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    stats::Rng rng(3008);
    const dp::MixturePrior isotropic = pin_prior(PinPrior::kIsotropic, 3, rng);
    const dp::MixturePrior mixed = pin_prior(PinPrior::kMixed, 3, rng);
    const std::vector<double> thetas = {inf, 0.5, 0.5,  0.5, -inf, 0.5,
                                        nan, 0.5, 0.5,  0.5, 0.5,  inf};
    const std::size_t count = thetas.size() / 3;
    for (const Backend backend : available_backends()) {
        linalg::simd::ScopedBackendForTesting scoped(backend);
        util::Workspace ws;
        const dp::BatchResponsibilities diag(isotropic);
        std::vector<double> densities(count * 4);
        diag.log_densities_into(thetas.data(), count, densities.data(), ws);
        for (std::size_t k = 0; k < 4; ++k) {
            EXPECT_EQ(densities[0 * 4 + k], -inf) << "atom " << k;
            EXPECT_EQ(densities[1 * 4 + k], -inf) << "atom " << k;
            EXPECT_TRUE(std::isnan(densities[2 * 4 + k])) << "atom " << k;
            EXPECT_EQ(densities[3 * 4 + k], -inf) << "atom " << k;
        }
        const std::vector<std::size_t> zeros(count, 0);
        const std::vector<std::size_t> ones(count, 1);
        std::vector<double> hit(count, -1.0);
        std::vector<double> miss(count, -1.0);
        diag.score_match_into(thetas.data(), count, zeros.data(), hit.data(), ws);
        diag.score_match_into(thetas.data(), count, ones.data(), miss.data(), ws);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(hit[i], 1.0) << "device " << i;
            EXPECT_EQ(miss[i], 0.0) << "device " << i;
        }

        // Atoms 0 and 2 of the mixed prior are diagonal, 1 and 3 correlated;
        // the correlated ones meet inf - inf in a later row here.
        const dp::BatchResponsibilities both(mixed);
        both.log_densities_into(thetas.data(), 1, densities.data(), ws);
        EXPECT_EQ(densities[0], -inf);
        EXPECT_EQ(densities[2], -inf);
        EXPECT_TRUE(std::isnan(densities[1]));
        EXPECT_TRUE(std::isnan(densities[3]));
        EXPECT_EQ(ws.depth(), 0u);
    }
}

// The capstone: an entire sharded, multi-threaded fleet run must produce a
// bit-identical report whichever backend is dispatched — accuracies, byte
// ledgers, latency tails, everything.
TEST(SimdDispatch, FleetReportBitIdenticalAcrossBackends) {
    edgesim::ScaleFleetConfig config;
    config.devices_per_round = 384;
    config.rounds = 2;
    config.feature_dim = 5;
    config.num_modes = 3;
    config.num_shards = 4;
    config.num_threads = 2;
    config.faults.crash_prob = 0.05;
    config.faults.straggler_prob = 0.05;
    config.faults.upload_fail_prob = 0.1;

    const auto run_with = [&](Backend backend) {
        linalg::simd::ScopedBackendForTesting scoped(backend);
        stats::Rng rng(2026);
        return edgesim::run_scale_fleet(config, rng);
    };

    const edgesim::ScaleFleetReport baseline = run_with(Backend::kScalar);
    ASSERT_GT(baseline.engine.rounds.size(), 0u);
    EXPECT_GT(baseline.mode_recovery_rate, 0.5);  // the prior separates its modes

    for (const Backend backend : available_backends()) {
        const edgesim::ScaleFleetReport report = run_with(backend);
        EXPECT_EQ(to_bits(report.mode_recovery_rate), to_bits(baseline.mode_recovery_rate))
            << linalg::simd::backend_name(backend);
        EXPECT_EQ(report.engine.total_broadcast_bytes, baseline.engine.total_broadcast_bytes);
        EXPECT_EQ(report.engine.total_upload_bytes, baseline.engine.total_upload_bytes);
        EXPECT_EQ(report.engine.total_batch_bytes, baseline.engine.total_batch_bytes);
        EXPECT_EQ(report.engine.events_processed, baseline.engine.events_processed);
        ASSERT_EQ(report.engine.rounds.size(), baseline.engine.rounds.size());
        for (std::size_t r = 0; r < report.engine.rounds.size(); ++r) {
            const auto& got = report.engine.rounds[r];
            const auto& want = baseline.engine.rounds[r];
            EXPECT_EQ(to_bits(got.mean_accuracy), to_bits(want.mean_accuracy))
                << linalg::simd::backend_name(backend) << " round " << r;
            EXPECT_EQ(got.devices_scored, want.devices_scored);
            EXPECT_EQ(got.crashed, want.crashed);
            EXPECT_EQ(got.uploads_dropped, want.uploads_dropped);
            EXPECT_EQ(to_bits(got.latency_p99_seconds), to_bits(want.latency_p99_seconds));
            EXPECT_EQ(got.device_degraded, want.device_degraded);
        }
    }
}

}  // namespace
}  // namespace drel
