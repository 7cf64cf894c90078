// Wire format v2 (edgesim/transfer.hpp): round-trip properties, delta
// reconstruction, version and flag checks, the frame-size cap, and a
// fixed-seed chi-square check that 8-bit quantization preserves mode
// recovery (the `statistical` suite).
//
// The quantization bound under test is the documented per-section one:
// with levels = 2^bits - 1 and [min, max] the section's value range,
//
//   |v - v_hat| <= (max - min) / (2 * levels).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dp/mixture_prior.hpp"
#include "edgesim/transfer.hpp"
#include "stats/multivariate_normal.hpp"
#include "stats/rng.hpp"

namespace drel::edgesim {
namespace {

/// A non-trivial prior: K well-separated anisotropic atoms in `dim`
/// dimensions with uneven weights.
dp::MixturePrior make_prior(std::size_t num_components, std::size_t dim,
                            stats::Rng& rng) {
    linalg::Vector weights;
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < num_components; ++k) {
        weights.push_back(1.0 / static_cast<double>(k + 1));
        linalg::Vector mean(dim);
        for (std::size_t i = 0; i < dim; ++i) {
            mean[i] = 6.0 * static_cast<double>(k) * (i % 2 == 0 ? 1.0 : -1.0) +
                      0.5 * rng.normal();
        }
        linalg::Matrix cov = linalg::Matrix::identity(dim) * (0.5 + 0.25 * k);
        for (std::size_t i = 0; i + 1 < dim; ++i) {
            const double off = 0.05 * rng.normal();
            cov(i, i + 1) += off;
            cov(i + 1, i) += off;
        }
        atoms.emplace_back(std::move(mean), std::move(cov));
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

double max_abs(const linalg::Vector& v) {
    double m = 0.0;
    for (const double x : v) m = std::max(m, std::abs(x));
    return m;
}

/// max - min over a span of doubles: the quantizer's per-section range.
double span_of(const std::vector<double>& values) {
    double lo = values.front(), hi = values.front();
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    return hi - lo;
}

std::vector<double> mean_section(const dp::MixturePrior& prior, std::size_t k) {
    return {prior.atom(k).mean().begin(), prior.atom(k).mean().end()};
}

std::vector<double> cov_section(const dp::MixturePrior& prior, std::size_t k) {
    std::vector<double> out;
    const linalg::Matrix& cov = prior.atom(k).covariance();
    for (std::size_t row = 0; row < prior.dim(); ++row) {
        for (std::size_t col = 0; col <= row; ++col) out.push_back(cov(row, col));
    }
    return out;
}

// ---------------------------------------------------------------- roundtrip

TEST(TransferV2, UnquantizedV2RoundTripsExactly) {
    stats::Rng rng(1);
    const dp::MixturePrior prior = make_prior(4, 5, rng);
    EncodingOptions options;
    options.version = kWireV2;
    options.prior_version = 17;
    const dp::MixturePrior decoded = decode_prior(encode_prior(prior, options));
    ASSERT_EQ(decoded.num_components(), prior.num_components());
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        // Weights re-normalize on decode (a second divide-by-sum), so they
        // round-trip to the ULP, not the bit; the atom payload is exact.
        EXPECT_DOUBLE_EQ(decoded.weights()[k], prior.weights()[k]);
        EXPECT_EQ(decoded.atom(k).mean(), prior.atom(k).mean());
        EXPECT_EQ(cov_section(decoded, k), cov_section(prior, k));
    }
}

TEST(TransferV2, QuantizationErrorWithinDocumentedBoundPerBitWidth) {
    stats::Rng rng(2);
    const dp::MixturePrior prior = make_prior(5, 6, rng);
    for (const int bits : {2, 4, 8, 12, 16}) {
        EncodingOptions options;
        options.version = kWireV2;
        options.quantized = true;
        options.quantization_bits = bits;
        const dp::MixturePrior decoded = decode_prior(encode_prior(prior, options));
        const double levels = static_cast<double>((1u << bits) - 1u);
        ASSERT_EQ(decoded.num_components(), prior.num_components());
        for (std::size_t k = 0; k < prior.num_components(); ++k) {
            // Weights always travel as f64.
            EXPECT_NEAR(decoded.weights()[k], prior.weights()[k], 1e-12);
            const double mean_bound =
                span_of(mean_section(prior, k)) / (2.0 * levels) + 1e-12;
            for (std::size_t i = 0; i < prior.dim(); ++i) {
                EXPECT_LE(std::abs(decoded.atom(k).mean()[i] - prior.atom(k).mean()[i]),
                          mean_bound)
                    << "bits=" << bits << " atom=" << k << " coord=" << i;
            }
            const std::vector<double> want = cov_section(prior, k);
            const std::vector<double> got = cov_section(decoded, k);
            const double cov_bound = span_of(want) / (2.0 * levels) + 1e-12;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_LE(std::abs(got[i] - want[i]), cov_bound)
                    << "bits=" << bits << " atom=" << k << " entry=" << i;
            }
        }
    }
}

TEST(TransferV2, QuantizedSizesShrinkWithBitWidthAndMatchEncodedSize) {
    stats::Rng rng(3);
    const dp::MixturePrior prior = make_prior(6, 8, rng);
    std::size_t previous = encode_prior(prior).size();  // v1 full fidelity
    for (const int bits : {16, 12, 8, 4, 2}) {
        EncodingOptions options;
        options.version = kWireV2;
        options.quantized = true;
        options.quantization_bits = bits;
        const auto payload = encode_prior(prior, options);
        EXPECT_EQ(payload.size(), encoded_size(6, 8, options)) << "bits=" << bits;
        EXPECT_LT(payload.size(), previous) << "bits=" << bits;
        previous = payload.size();
    }
    // The headline claim the bench enforces at fleet scale: 8-bit v2 cuts
    // broadcast bytes by at least 2x against v1 at the same (K, dim).
    EncodingOptions v2_8bit;
    v2_8bit.version = kWireV2;
    v2_8bit.quantized = true;
    EXPECT_GE(encoded_size(6, 8, {}), 2 * encoded_size(6, 8, v2_8bit));
}

// -------------------------------------------------------------------- delta

TEST(TransferV2, DeltaReconstructsExactlyAndSkipsUnchangedAtoms) {
    // Dyadic weights summing to exactly 1.0: MixturePrior's normalization
    // divides by 1.0, so "unchanged" atoms really are bit-identical across
    // the two broadcasts — the property the presence byte keys on.
    std::vector<stats::MultivariateNormal> base_atoms;
    base_atoms.push_back(stats::MultivariateNormal::isotropic({6.0, 0.0, -6.0, 0.0}, 0.5));
    base_atoms.push_back(stats::MultivariateNormal::isotropic({-6.0, 6.0, 0.0, 6.0}, 0.75));
    base_atoms.push_back(stats::MultivariateNormal::isotropic({0.0, -6.0, 6.0, -6.0}, 1.0));
    const dp::MixturePrior base_prior({0.5, 0.25, 0.25}, std::move(base_atoms));

    // Next broadcast: atom 0 unchanged bit-for-bit, atom 1 perturbed (and
    // its weight share moved to a brand-new component), atom 2 unchanged.
    std::vector<stats::MultivariateNormal> atoms{base_prior.atoms()};
    linalg::Vector moved = atoms[1].mean();
    moved[0] += 0.25;
    atoms[1] = stats::MultivariateNormal(std::move(moved), atoms[1].covariance());
    atoms.push_back(stats::MultivariateNormal::isotropic({9.0, -9.0, 9.0, -9.0}, 0.75));
    const dp::MixturePrior next({0.5, 0.125, 0.25, 0.125}, std::move(atoms));

    const PriorBase base{&base_prior, 41};
    EncodingOptions options;
    options.version = kWireV2;
    options.delta = true;
    options.prior_version = 42;
    const auto delta_frame = encode_prior(next, options, &base);

    EncodingOptions full = options;
    full.delta = false;
    const auto full_frame = encode_prior(next, full);
    // Two skipped atoms: the delta must be materially smaller, and within
    // the encoded_size worst case (all atoms present).
    EXPECT_LT(delta_frame.size(), full_frame.size());
    EXPECT_LE(delta_frame.size(), encoded_size(4, 4, options));

    // Exact reconstruction: identical to decoding the full frame.
    const dp::MixturePrior from_delta = decode_prior(delta_frame, &base);
    const dp::MixturePrior from_full = decode_prior(full_frame);
    ASSERT_EQ(from_delta.num_components(), from_full.num_components());
    for (std::size_t k = 0; k < from_full.num_components(); ++k) {
        EXPECT_EQ(from_delta.weights()[k], from_full.weights()[k]);
        EXPECT_EQ(from_delta.atom(k).mean(), from_full.atom(k).mean());
        EXPECT_EQ(cov_section(from_delta, k), cov_section(from_full, k));
    }
}

TEST(TransferV2, DeltaRePushOfUnchangedPriorCollapsesToHeaderBytes) {
    stats::Rng rng(5);
    const dp::MixturePrior prior = make_prior(6, 8, rng);
    const PriorBase base{&prior, 7};
    EncodingOptions options;
    options.version = kWireV2;
    options.delta = true;
    options.prior_version = 8;
    const auto frame = encode_prior(prior, options, &base);
    // Header (8 magic + 16 + 8 prior_version + 8 base_version) + one
    // presence byte per atom: nothing else when the prior did not move.
    EXPECT_EQ(frame.size(), 8u + 16u + 8u + 8u + prior.num_components());
    const dp::MixturePrior decoded = decode_prior(frame, &base);
    for (std::size_t k = 0; k < prior.num_components(); ++k) {
        EXPECT_EQ(decoded.atom(k).mean(), prior.atom(k).mean());
    }
}

TEST(TransferV2, QuantizedDeltaResidualsBeatAbsoluteQuantization) {
    stats::Rng rng(6);
    const dp::MixturePrior base_prior = make_prior(4, 6, rng);
    // Small drift: every mean moves by <= 0.01 — residual spans are tiny
    // compared with the absolute coordinate spans.
    linalg::Vector weights{base_prior.weights()};
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < base_prior.num_components(); ++k) {
        linalg::Vector mean = base_prior.atom(k).mean();
        for (double& v : mean) v += 0.01 * rng.uniform();
        atoms.emplace_back(std::move(mean), base_prior.atom(k).covariance());
    }
    const dp::MixturePrior next(std::move(weights), std::move(atoms));

    const PriorBase base{&base_prior, 1};
    EncodingOptions residual;
    residual.version = kWireV2;
    residual.quantized = true;
    residual.quantization_bits = 8;
    residual.delta = true;
    residual.prior_version = 2;
    const dp::MixturePrior via_residual =
        decode_prior(encode_prior(next, residual, &base), &base);

    EncodingOptions absolute = residual;
    absolute.delta = false;
    const dp::MixturePrior via_absolute = decode_prior(encode_prior(next, absolute));

    double residual_err = 0.0, absolute_err = 0.0;
    for (std::size_t k = 0; k < next.num_components(); ++k) {
        for (std::size_t i = 0; i < next.dim(); ++i) {
            residual_err = std::max(
                residual_err,
                std::abs(via_residual.atom(k).mean()[i] - next.atom(k).mean()[i]));
            absolute_err = std::max(
                absolute_err,
                std::abs(via_absolute.atom(k).mean()[i] - next.atom(k).mean()[i]));
        }
    }
    EXPECT_LT(residual_err, 1e-4);  // residual span ~0.01 at 255 levels
    EXPECT_LT(residual_err, absolute_err / 10.0);
}

TEST(TransferV2, DeltaRejectsMissingOrMismatchedBase) {
    stats::Rng rng(7);
    const dp::MixturePrior prior = make_prior(3, 4, rng);
    const PriorBase base{&prior, 5};
    EncodingOptions options;
    options.version = kWireV2;
    options.delta = true;
    options.prior_version = 6;
    const auto frame = encode_prior(prior, options, &base);

    // Encoder side: no base at all.
    EXPECT_THROW(encode_prior(prior, options), std::invalid_argument);
    // Decoder side: no base, wrong version, wrong dimension — all before
    // any atom allocation.
    EXPECT_THROW(decode_prior(frame), std::invalid_argument);
    const PriorBase stale{&prior, 4};
    EXPECT_THROW(decode_prior(frame, &stale), std::invalid_argument);
    stats::Rng rng2(8);
    const dp::MixturePrior other_dim = make_prior(3, 5, rng2);
    const PriorBase mismatched{&other_dim, 5};
    EXPECT_THROW(decode_prior(frame, &mismatched), std::invalid_argument);
}

// ----------------------------------------------------------------- versions

TEST(TransferNegotiation, UnknownFutureVersionRejected) {
    stats::Rng rng(11);
    const dp::MixturePrior prior = make_prior(2, 3, rng);
    auto frame = encode_prior(prior);
    const std::uint32_t future = 3;
    std::memcpy(frame.data() + 8, &future, sizeof(future));  // version field
    EXPECT_THROW(decode_prior(frame), std::invalid_argument);
}

// ---------------------------------------------------------- flags registry

// The regression for the original flags gap: a v1 frame carrying a v2-only
// bit must be rejected, not decoded with misread geometry.
TEST(TransferFlags, V1FrameWithV2OnlyFlagRejected) {
    stats::Rng rng(12);
    const dp::MixturePrior prior = make_prior(2, 3, rng);
    auto frame = encode_prior(prior);
    std::uint32_t flags = 0;
    std::memcpy(&flags, frame.data() + 12, sizeof(flags));
    flags |= kFlagQuantized;
    std::memcpy(frame.data() + 12, &flags, sizeof(flags));
    EXPECT_THROW(decode_prior(frame), std::invalid_argument);
}

TEST(TransferFlags, UnregisteredBitRejectedOnBothVersions) {
    stats::Rng rng(13);
    const dp::MixturePrior prior = make_prior(2, 3, rng);
    for (const std::uint32_t version : {kWireV1, kWireV2}) {
        EncodingOptions options;
        options.version = version;
        auto frame = encode_prior(prior, options);
        std::uint32_t flags = 0;
        std::memcpy(&flags, frame.data() + 12, sizeof(flags));
        flags |= 1u << 7;
        std::memcpy(frame.data() + 12, &flags, sizeof(flags));
        EXPECT_THROW(decode_prior(frame), std::invalid_argument) << "v" << version;
    }
}

TEST(TransferFlags, OptionsValidationRejectsInconsistentSettings) {
    EncodingOptions v1_quantized;
    v1_quantized.quantized = true;
    EXPECT_THROW(v1_quantized.validate(), std::invalid_argument);
    EncodingOptions v1_delta;
    v1_delta.delta = true;
    EXPECT_THROW(v1_delta.validate(), std::invalid_argument);
    EncodingOptions both;
    both.version = kWireV2;
    both.quantized = true;
    both.use_float32 = true;
    EXPECT_THROW(both.validate(), std::invalid_argument);
    EncodingOptions bits;
    bits.version = kWireV2;
    bits.quantized = true;
    bits.quantization_bits = 1;
    EXPECT_THROW(bits.validate(), std::invalid_argument);
    bits.quantization_bits = 17;
    EXPECT_THROW(bits.validate(), std::invalid_argument);
    EncodingOptions bad_version;
    bad_version.version = 9;
    EXPECT_THROW(bad_version.validate(), std::invalid_argument);
}

// ------------------------------------------------------------ frame size cap

// A decode allocates a dense d x d covariance per atom, diagonal-only
// frames included, so a header alone must not be able to demand more than
// 2^22 covariance entries. This complete, well-formed float32-diagonal v1
// frame (533 KB) asks for K * d * d = 1025 * 64 * 64 = 4,198,400 > 2^22
// and is rejected before its first atom; the encoder refuses the same
// prior, so no round trip fails in one direction only.
TEST(TransferCap, RejectsFrameDemandingTooManyCovarianceEntries) {
    const std::uint32_t num_components = 1025;
    const std::uint32_t dim = 64;
    std::vector<std::uint8_t> frame;
    const auto put = [&frame](const auto value) {
        std::uint8_t bytes[sizeof(value)];
        std::memcpy(bytes, &value, sizeof(value));
        frame.insert(frame.end(), bytes, bytes + sizeof(value));
    };
    for (const char c : {'D', 'R', 'E', 'L', 'P', 'R', 'I', 'O'}) put(c);
    put(kWireV1);
    put(kFlagFloat32 | kFlagDiagonalOnly);
    put(num_components);
    put(dim);
    for (std::uint32_t k = 0; k < num_components; ++k) {
        put(1.0);                                            // weight
        for (std::uint32_t i = 0; i < dim; ++i) put(0.0f);   // mean
        for (std::uint32_t i = 0; i < dim; ++i) put(1.0f);   // diag(Sigma_k)
    }
    ASSERT_EQ(frame.size(), 24u + num_components * (8u + 2u * 4u * dim));
    EXPECT_THROW(decode_prior(frame), std::invalid_argument);

    std::vector<stats::MultivariateNormal> atoms(
        num_components, stats::MultivariateNormal::isotropic(linalg::Vector(dim, 0.0), 1.0));
    const dp::MixturePrior prior(linalg::Vector(num_components, 1.0), std::move(atoms));
    EncodingOptions options;
    options.use_float32 = true;
    options.diagonal_only = true;
    EXPECT_THROW(encode_prior(prior, options), std::invalid_argument);
}

// --------------------------------------------------- chi-square mode check

// Fixed-seed goodness-of-fit: on a fleet-bench-like multi-mode prior
// (4 modes, d = 8 — the bench_fig7_fleet population shape), samples drawn
// from the 8-bit-quantized decode must land on modes with the same
// frequencies as samples from the float32 decode. Two-sample chi-square
// over MAP mode assignments; df = 3, critical value 16.27 at p = 0.999.
TEST(TransferStatistical, EightBitQuantizationPreservesModeRecovery) {
    stats::Rng rng(14);
    const dp::MixturePrior prior = make_prior(4, 8, rng);

    EncodingOptions f32;
    f32.use_float32 = true;
    const dp::MixturePrior float32_prior = decode_prior(encode_prior(prior, f32));
    EncodingOptions q8;
    q8.version = kWireV2;
    q8.quantized = true;
    q8.quantization_bits = 8;
    const dp::MixturePrior quantized_prior = decode_prior(encode_prior(prior, q8));

    const std::size_t num_modes = prior.num_components();
    const std::size_t n = 4000;
    std::vector<double> f32_counts(num_modes, 0.0);
    std::vector<double> q8_counts(num_modes, 0.0);
    stats::Rng draw_a(15);
    stats::Rng draw_b(15);  // same stream: the priors differ, not the draws
    for (std::size_t i = 0; i < n; ++i) {
        const linalg::Vector theta_a = float32_prior.sample(draw_a);
        f32_counts[linalg::argmax(prior.responsibilities(theta_a))] += 1.0;
        const linalg::Vector theta_b = quantized_prior.sample(draw_b);
        q8_counts[linalg::argmax(prior.responsibilities(theta_b))] += 1.0;
    }
    // Two-sample chi-square with equal totals:
    //   X^2 = sum_k (a_k - b_k)^2 / (a_k + b_k).
    double statistic = 0.0;
    for (std::size_t k = 0; k < num_modes; ++k) {
        const double total = f32_counts[k] + q8_counts[k];
        ASSERT_GT(total, 0.0) << "mode " << k << " never recovered";
        const double diff = f32_counts[k] - q8_counts[k];
        statistic += diff * diff / total;
    }
    EXPECT_LT(statistic, 16.27) << "8-bit quantization shifted the mode frequencies";

    // And both recoveries match the generator weights themselves.
    for (std::size_t k = 0; k < num_modes; ++k) {
        EXPECT_NEAR(q8_counts[k] / static_cast<double>(n), prior.weights()[k], 0.05)
            << "mode " << k;
    }
    // Sanity on the fixture: the modes are far apart relative to spread,
    // so MAP assignment is essentially noiseless.
    for (std::size_t k = 0; k < num_modes; ++k) {
        EXPECT_GT(max_abs(prior.atom(k).mean()) + 1.0, 1.0);
    }
}

}  // namespace
}  // namespace drel::edgesim
