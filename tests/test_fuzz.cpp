// Randomized robustness ("fuzz-ish") tests: hostile bytes and malformed
// text must produce exceptions, never crashes, hangs, or silent garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "data/csv_io.hpp"
#include "edgesim/transfer.hpp"
#include "linalg/reference.hpp"
#include "stats/alias_table.hpp"
#include "stats/rng.hpp"

namespace drel {
namespace {

dp::MixturePrior fuzz_prior() {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({1.0, 2.0, 3.0}, 0.5));
    atoms.push_back(stats::MultivariateNormal::isotropic({-1.0, 0.0, 1.0}, 1.5));
    return dp::MixturePrior({0.4, 0.6}, std::move(atoms));
}

TEST(FuzzDecode, RandomBuffersNeverCrash) {
    stats::Rng rng(1);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> buffer(rng.uniform_index(200));
        for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.uniform_index(256));
        try {
            const dp::MixturePrior decoded = edgesim::decode_prior(buffer);
            // Decoding random bytes successfully is (essentially) impossible;
            // if it ever happens the result must still be a valid prior.
            EXPECT_GT(decoded.num_components(), 0u);
        } catch (const std::invalid_argument&) {
            // expected path
        }
    }
}

TEST(FuzzDecode, SingleByteCorruptionsEitherThrowOrStayValid) {
    const auto payload = edgesim::encode_prior(fuzz_prior());
    stats::Rng rng(2);
    for (int trial = 0; trial < 500; ++trial) {
        auto corrupted = payload;
        const std::size_t at = rng.uniform_index(corrupted.size());
        corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
        try {
            const dp::MixturePrior decoded = edgesim::decode_prior(corrupted);
            // A flipped mantissa bit can decode fine — the result must still
            // satisfy the MixturePrior invariants (normalized weights, PD
            // covariances), which its constructor enforces.
            double total = 0.0;
            for (const double w : decoded.weights()) total += w;
            EXPECT_NEAR(total, 1.0, 1e-9);
        } catch (const std::invalid_argument&) {
            // rejected — fine
        }
    }
}

TEST(FuzzDecode, TruncationAtEveryLengthThrows) {
    const auto payload = edgesim::encode_prior(fuzz_prior());
    for (std::size_t length = 0; length < payload.size(); ++length) {
        std::vector<std::uint8_t> truncated(payload.begin(),
                                            payload.begin() + static_cast<long>(length));
        EXPECT_THROW(edgesim::decode_prior(truncated), std::invalid_argument)
            << "length " << length;
    }
}

// --------------------------------------------------------------- wire v2
// Same hostile-bytes contract for the v2 framings (quantized, delta,
// quantized+delta): every malformed buffer throws std::invalid_argument
// BEFORE the K x d x d allocation — never crashes, never OOMs.

edgesim::EncodingOptions fuzz_v2_options(bool quantized, bool delta) {
    edgesim::EncodingOptions options;
    options.version = edgesim::kWireV2;
    options.quantized = quantized;
    options.quantization_bits = 8;
    options.delta = delta;
    options.prior_version = 3;
    return options;
}

TEST(FuzzDecodeV2, TruncationAtEveryLengthThrows) {
    const dp::MixturePrior prior = fuzz_prior();
    const edgesim::PriorBase base{&prior, 2};
    for (const bool quantized : {false, true}) {
        for (const bool delta : {false, true}) {
            const auto payload = edgesim::encode_prior(
                prior, fuzz_v2_options(quantized, delta), delta ? &base : nullptr);
            for (std::size_t length = 0; length < payload.size(); ++length) {
                std::vector<std::uint8_t> truncated(
                    payload.begin(), payload.begin() + static_cast<long>(length));
                EXPECT_THROW(edgesim::decode_prior(truncated, &base),
                             std::invalid_argument)
                    << "quantized=" << quantized << " delta=" << delta
                    << " length=" << length;
            }
        }
    }
}

TEST(FuzzDecodeV2, OverlongBuffersThrowOnBothVersions) {
    const dp::MixturePrior prior = fuzz_prior();
    const edgesim::PriorBase base{&prior, 2};
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.push_back(edgesim::encode_prior(prior));  // v1
    payloads.push_back(edgesim::encode_prior(prior, fuzz_v2_options(true, false)));
    payloads.push_back(
        edgesim::encode_prior(prior, fuzz_v2_options(true, true), &base));
    for (auto payload : payloads) {
        for (const std::size_t extra : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
            auto overlong = payload;
            overlong.insert(overlong.end(), extra, 0xab);
            EXPECT_THROW(edgesim::decode_prior(overlong, &base), std::invalid_argument)
                << "extra=" << extra;
        }
    }
}

TEST(FuzzDecodeV2, SingleBitCorruptionsEitherThrowOrStayValid) {
    const dp::MixturePrior prior = fuzz_prior();
    const edgesim::PriorBase base{&prior, 2};
    stats::Rng rng(4);
    for (const bool quantized : {false, true}) {
        for (const bool delta : {false, true}) {
            const auto payload = edgesim::encode_prior(
                prior, fuzz_v2_options(quantized, delta), delta ? &base : nullptr);
            for (int trial = 0; trial < 400; ++trial) {
                auto corrupted = payload;
                const std::size_t at = rng.uniform_index(corrupted.size());
                corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
                try {
                    const dp::MixturePrior decoded =
                        edgesim::decode_prior(corrupted, &base);
                    double total = 0.0;
                    for (const double w : decoded.weights()) total += w;
                    EXPECT_NEAR(total, 1.0, 1e-9);
                } catch (const std::invalid_argument&) {
                    // rejected — fine
                }
            }
        }
    }
}

TEST(FuzzDecodeV2, RandomV2HeadersNeverAllocate) {
    // Buffers that LOOK like v2 frames — valid magic and version, random
    // everything after — probe the header-validation path specifically:
    // huge K/dim, unregistered flags, hostile quantization ranges.
    const dp::MixturePrior prior = fuzz_prior();
    const edgesim::PriorBase base{&prior, 2};
    stats::Rng rng(5);
    const char magic[8] = {'D', 'R', 'E', 'L', 'P', 'R', 'I', 'O'};
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> buffer(12 + rng.uniform_index(120));
        std::memcpy(buffer.data(), magic, sizeof(magic));
        const std::uint32_t version = edgesim::kWireV2;
        std::memcpy(buffer.data() + 8, &version, sizeof(version));
        for (std::size_t i = 12; i < buffer.size(); ++i) {
            buffer[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
        }
        try {
            (void)edgesim::decode_prior(buffer, &base);
        } catch (const std::invalid_argument&) {
            // expected for essentially every random tail
        }
    }
}

TEST(FuzzCsv, RandomTextNeverCrashes) {
    stats::Rng rng(3);
    const std::string alphabet = "0123456789.,-+eE na\n\r\t;|";
    for (int trial = 0; trial < 1000; ++trial) {
        std::string text;
        const std::size_t length = rng.uniform_index(120);
        for (std::size_t i = 0; i < length; ++i) {
            text += alphabet[rng.uniform_index(alphabet.size())];
        }
        std::istringstream is(text);
        try {
            const models::Dataset d = data::load_csv(is, false);
            EXPECT_GT(d.size(), 0u);   // successful parses must be non-empty
            EXPECT_GE(d.dim(), 1u);
        } catch (const std::invalid_argument&) {
            // expected for almost all random strings
        }
    }
}

TEST(FuzzCsv, MixedValidInvalidRowsRejectedAtomically) {
    // Parsing must not return a half-dataset when a later row is bad.
    std::istringstream is("1.0,2.0,1\n3.0,4.0,-1\nbad,row,1\n");
    EXPECT_THROW(data::load_csv(is, false), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Alias-table builds over hostile weight vectors. The Gibbs sweep feeds the
// table softmax outputs, which are benign; these pin the contract for every
// OTHER caller: degenerate and near-denormal inputs either build a usable
// table or throw std::invalid_argument — never crash, never emit NaN
// bucket thresholds.

TEST(FuzzAliasTable, DegenerateWeightsThrowInvalidArgument) {
    stats::AliasTable table;
    EXPECT_THROW(table.rebuild(nullptr, 0), std::invalid_argument);

    const std::vector<double> zeros(7, 0.0);
    EXPECT_THROW(table.rebuild(zeros.data(), zeros.size()), std::invalid_argument);

    const std::vector<double> negative = {0.5, -0.25, 0.5};
    EXPECT_THROW(table.rebuild(negative.data(), negative.size()), std::invalid_argument);

    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        std::vector<double> weights = {0.25, bad, 0.25};
        EXPECT_THROW(table.rebuild(weights.data(), weights.size()), std::invalid_argument);
    }

    // Weights individually finite but summing to +inf must also be rejected.
    const std::vector<double> overflow(4, std::numeric_limits<double>::max());
    EXPECT_THROW(table.rebuild(overflow.data(), overflow.size()), std::invalid_argument);
}

TEST(FuzzAliasTable, SingleNonzeroEntryAlwaysDrawsIt) {
    stats::Rng rng(81);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{17}}) {
        for (std::size_t hot = 0; hot < n; ++hot) {
            std::vector<double> weights(n, 0.0);
            weights[hot] = 1e-12;  // magnitude must not matter
            stats::AliasTable table;
            table.rebuild(weights.data(), n);
            for (int trial = 0; trial < 64; ++trial) {
                EXPECT_EQ(table.draw(rng), hot);
            }
        }
    }
}

TEST(FuzzAliasTable, NearDenormalSumsBuildUsableTables) {
    // Sums down at the edge of the denormal range: the exact power-of-two
    // rescaling must keep every bucket mass finite and the pmf intact.
    stats::Rng rng(82);
    for (int scale_exp : {-1000, -1021, -1040, -1060}) {
        std::vector<double> weights(5);
        for (std::size_t i = 0; i < weights.size(); ++i) {
            weights[i] = std::ldexp(static_cast<double>(i + 1), scale_exp);
        }
        stats::AliasTable table;
        table.rebuild(weights.data(), weights.size());
        for (const double p : table.probabilities()) {
            EXPECT_TRUE(std::isfinite(p));
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0);
        }
        const std::vector<double> pmf =
            linalg::reference::alias_pmf(table.probabilities(), table.aliases());
        const double total = 15.0 * std::ldexp(1.0, scale_exp);  // sum of 1..5, scaled
        for (std::size_t i = 0; i < weights.size(); ++i) {
            EXPECT_NEAR(pmf[i], weights[i] / total, 1e-12) << "bucket " << i;
        }
        // Draws with extreme uniforms stay in range.
        EXPECT_LT(table.draw_from_uniform(0.0), weights.size());
        EXPECT_LT(table.draw_from_uniform(std::nextafter(1.0, 0.0)), weights.size());
        EXPECT_LT(table.draw(rng), weights.size());
    }
}

TEST(FuzzAliasTable, RandomWeightVectorsAlwaysReconstructTheirPmf) {
    stats::Rng rng(83);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t n = 1 + rng.uniform_index(40);
        std::vector<double> weights(n);
        double total = 0.0;
        for (double& w : weights) {
            // Spread magnitudes over ~60 decades, with occasional zeros.
            w = rng.uniform_index(8) == 0
                    ? 0.0
                    : std::ldexp(rng.uniform(), -static_cast<int>(rng.uniform_index(200)));
            total += w;
        }
        if (!(total > 0.0)) weights[0] = 1.0, total = 1.0;
        stats::AliasTable table;
        table.rebuild(weights.data(), n);
        const std::vector<double> pmf =
            linalg::reference::alias_pmf(table.probabilities(), table.aliases());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(pmf[i], weights[i] / total, 1e-9) << "trial " << trial;
        }
    }
}

}  // namespace
}  // namespace drel
