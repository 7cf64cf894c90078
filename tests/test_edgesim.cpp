#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/task_generator.hpp"
#include "edgesim/cloud.hpp"
#include "edgesim/device.hpp"
#include "edgesim/simulation.hpp"
#include "edgesim/transfer.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel::edgesim {
namespace {

dp::MixturePrior sample_prior() {
    std::vector<stats::MultivariateNormal> atoms;
    linalg::Matrix cov = test_support::matrix_of(3, 3, {0.5, 0.1, 0.0,   //
                                                        0.1, 0.7, 0.2,   //
                                                        0.0, 0.2, 0.9});
    atoms.emplace_back(linalg::Vector{1.0, -2.0, 0.5}, cov);
    atoms.push_back(stats::MultivariateNormal::isotropic({-1.0, 1.0, 0.0}, 0.3));
    return dp::MixturePrior({0.6, 0.4}, std::move(atoms));
}

// ---------------------------------------------------------------- transfer

TEST(Transfer, RoundTripFullPrecision) {
    const dp::MixturePrior prior = sample_prior();
    const auto encoded = encode_prior(prior);
    EXPECT_EQ(encoded.size(), encoded_size(2, 3, {}));
    const dp::MixturePrior decoded = decode_prior(encoded);
    ASSERT_EQ(decoded.num_components(), 2u);
    ASSERT_EQ(decoded.dim(), 3u);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_NEAR(decoded.weights()[k], prior.weights()[k], 1e-15);
        EXPECT_NEAR(linalg::distance2(decoded.atom(k).mean(), prior.atom(k).mean()), 0.0,
                    1e-15);
        EXPECT_LT(linalg::Matrix::max_abs_diff(decoded.atom(k).covariance(),
                                               prior.atom(k).covariance()),
                  1e-15);
    }
}

TEST(Transfer, Float32HalvesPayloadWithSmallError) {
    const dp::MixturePrior prior = sample_prior();
    EncodingOptions f32;
    f32.use_float32 = true;
    const auto small = encode_prior(prior, f32);
    const auto full = encode_prior(prior);
    EXPECT_LT(small.size(), full.size());
    const dp::MixturePrior decoded = decode_prior(small);
    // Densities must survive quantization within float32 precision.
    const linalg::Vector probe{0.5, -0.5, 0.2};
    EXPECT_NEAR(decoded.log_pdf(probe), prior.log_pdf(probe), 1e-4);
}

TEST(Transfer, DiagonalOnlyShrinksFurther) {
    const dp::MixturePrior prior = sample_prior();
    EncodingOptions diag;
    diag.diagonal_only = true;
    const auto encoded = encode_prior(prior, diag);
    EXPECT_LT(encoded.size(), encode_prior(prior).size());
    const dp::MixturePrior decoded = decode_prior(encoded);
    // Off-diagonals dropped; diagonals preserved.
    EXPECT_DOUBLE_EQ(decoded.atom(0).covariance()(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(decoded.atom(0).covariance()(0, 0), 0.5);
}

TEST(Transfer, EncodedSizeFormulaMatchesAllFlagCombos) {
    const dp::MixturePrior prior = sample_prior();
    for (const bool f32 : {false, true}) {
        for (const bool diag : {false, true}) {
            EncodingOptions options;
            options.use_float32 = f32;
            options.diagonal_only = diag;
            EXPECT_EQ(encode_prior(prior, options).size(), encoded_size(2, 3, options))
                << "f32=" << f32 << " diag=" << diag;
        }
    }
}

/// Atom k of the pinned priors, built by exact arithmetic (no RNG, no libm):
/// a k-dependent mean and a diagonally dominant tridiagonal covariance.
stats::MultivariateNormal pin_atom(std::size_t k, std::size_t dim) {
    const double kd = static_cast<double>(k);
    linalg::Vector mean(dim);
    linalg::Matrix cov(dim, dim);
    for (std::size_t i = 0; i < dim; ++i) {
        const double id = static_cast<double>(i);
        mean[i] = 0.3 * (kd + 1.0) - 0.7 * id + 0.01 * kd * id;
        cov(i, i) = 0.5 + 0.25 * kd;
        if (i + 1 < dim) {
            const double off = 0.01 * static_cast<double>((i + 2 * k) % 5 + 1);
            cov(i, i + 1) = off;
            cov(i + 1, i) = off;
        }
    }
    return stats::MultivariateNormal(std::move(mean), std::move(cov));
}

/// K atoms with dyadic weights 1/2, 1/4, ..., 1/2^(K-1), 1/2^(K-1): they sum
/// to exactly 1.0, so normalisation leaves every weight bit-identical.
dp::MixturePrior pin_prior(std::size_t num_components, std::size_t dim) {
    linalg::Vector weights(num_components);
    std::vector<stats::MultivariateNormal> atoms;
    for (std::size_t k = 0; k < num_components; ++k) {
        weights[k] = std::ldexp(1.0, -static_cast<int>(std::min(k + 1, num_components - 1)));
        atoms.push_back(pin_atom(k, dim));
    }
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

/// The broadcast after `base`: even atoms move, odd atoms stay bit-identical
/// (presence byte 0), and a fresh atom K takes half of atom 0's weight.
dp::MixturePrior pin_successor(const dp::MixturePrior& base) {
    linalg::Vector weights = base.weights();
    std::vector<stats::MultivariateNormal> atoms = base.atoms();
    for (std::size_t k = 0; k < atoms.size(); k += 2) {
        linalg::Vector mean = atoms[k].mean();
        for (double& m : mean) m += 0.375;
        linalg::Matrix cov = atoms[k].covariance();
        cov.add_diagonal(0.0625);
        atoms[k] = stats::MultivariateNormal(std::move(mean), std::move(cov));
    }
    weights[0] *= 0.5;
    weights.push_back(weights[0]);
    atoms.push_back(pin_atom(atoms.size(), base.dim()));
    return dp::MixturePrior(std::move(weights), std::move(atoms));
}

/// FNV-1a over bytes; mix_word feeds a 64-bit word little-endian.
struct Fnv {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    void mix(std::uint64_t byte) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    void mix_word(std::uint64_t word) {
        for (int b = 0; b < 8; ++b) mix((word >> (8 * b)) & 0xffU);
    }
    void mix_double(double value) {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        mix_word(bits);
    }
    std::string hex() const {
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(hash));
        return digest;
    }
};

// Pins the frame bytes of every wire option validate() accepts: version,
// float32, diagonal, quantized (5 bits, so codes straddle bytes) and delta.
// Round trips and sizes would not notice a reordered or dropped header
// field; these digests do. Delta frames encode a (K+1)-atom successor
// against the K-atom base, so they carry both presence values and a fresh
// atom; every other frame encodes the base and must match encoded_size.
// The second digest pins what decode_prior reconstructs from each frame
// (delta frames against their base): every weight, mean and full
// covariance bit, which the round-trip tolerances would let drift.
TEST(Transfer, FramesPinned) {
    struct Case {
        std::size_t num_components;
        std::size_t dim;
        const char* digest;
        const char* decoded_digest;
    };
    const Case cases[] = {
        {1, 1, "09bd71ed04d55e7d", "ec4ecc76c53dff91"},
        {1, 4, "69ebe07217c4670b", "e5827f750d3d1265"},
        {1, 8, "f99ce5e55976a3b8", "7861c87cc8aeea61"},
        {3, 1, "be5ba17c0f51db3b", "853dafcf60cf467d"},
        {3, 4, "65b0d35f1f18d7a5", "2b8155c9c6fda089"},
        {3, 8, "3c727afd6076a8d1", "eccf1701501161d5"},
        {6, 1, "d9b3bdeae07dd9e9", "5f3d95142f218681"},
        {6, 4, "4a8083c6e99c5477", "9f4aefaf1516dbe5"},
        {6, 8, "f34d23f0adab1e6f", "242cc69fc27e0ca5"},
    };
    std::size_t frames = 0;
    for (const Case& c : cases) {
        const dp::MixturePrior base_prior = pin_prior(c.num_components, c.dim);
        const dp::MixturePrior successor = pin_successor(base_prior);
        const PriorBase base{&base_prior, 6};
        Fnv bytes;
        Fnv decoded_bits;
        for (const std::uint32_t version : {kWireV1, kWireV2}) {
            for (const bool f32 : {false, true}) {
                for (const bool diag : {false, true}) {
                    for (const bool quantized : {false, true}) {
                        for (const bool delta : {false, true}) {
                            EncodingOptions options;
                            options.version = version;
                            options.use_float32 = f32;
                            options.diagonal_only = diag;
                            options.quantized = quantized;
                            options.quantization_bits = 5;
                            options.delta = delta;
                            options.prior_version = 7;
                            try {
                                options.validate();
                            } catch (const std::invalid_argument&) {
                                continue;
                            }
                            const std::vector<std::uint8_t> frame =
                                delta ? encode_prior(successor, options, &base)
                                      : encode_prior(base_prior, options);
                            if (!delta) {
                                EXPECT_EQ(frame.size(),
                                          encoded_size(c.num_components, c.dim, options))
                                    << "K=" << c.num_components << " d=" << c.dim
                                    << " v=" << version << " f32=" << f32
                                    << " diag=" << diag << " quantized=" << quantized;
                            }
                            bytes.mix_word(frame.size());
                            for (const std::uint8_t byte : frame) bytes.mix(byte);
                            const dp::MixturePrior decoded =
                                decode_prior(frame, delta ? &base : nullptr);
                            decoded_bits.mix_word(decoded.num_components());
                            decoded_bits.mix_word(decoded.dim());
                            for (std::size_t k = 0; k < decoded.num_components(); ++k) {
                                decoded_bits.mix_double(decoded.weights()[k]);
                                for (const double m : decoded.atom(k).mean()) {
                                    decoded_bits.mix_double(m);
                                }
                                const linalg::Matrix& cov = decoded.atom(k).covariance();
                                for (std::size_t i = 0; i < c.dim; ++i) {
                                    for (std::size_t j = 0; j < c.dim; ++j) {
                                        decoded_bits.mix_double(cov(i, j));
                                    }
                                }
                            }
                            ++frames;
                        }
                    }
                }
            }
        }
        EXPECT_EQ(bytes.hex(), c.digest) << "K=" << c.num_components << " d=" << c.dim;
        EXPECT_EQ(decoded_bits.hex(), c.decoded_digest)
            << "K=" << c.num_components << " d=" << c.dim;
    }
    // 4 v1 combinations and 12 v2 ones (quantized excludes float32).
    EXPECT_EQ(frames, 9u * 16u);
}

TEST(Transfer, RejectsCorruptedBuffers) {
    const auto encoded = encode_prior(sample_prior());
    // Truncated.
    std::vector<std::uint8_t> truncated(encoded.begin(), encoded.begin() + 20);
    EXPECT_THROW(decode_prior(truncated), std::invalid_argument);
    // Bad magic.
    auto bad_magic = encoded;
    bad_magic[0] = 'X';
    EXPECT_THROW(decode_prior(bad_magic), std::invalid_argument);
    // Bad version.
    auto bad_version = encoded;
    bad_version[8] = 99;
    EXPECT_THROW(decode_prior(bad_version), std::invalid_argument);
    // Trailing garbage.
    auto trailing = encoded;
    trailing.push_back(0);
    EXPECT_THROW(decode_prior(trailing), std::invalid_argument);
    // Empty.
    EXPECT_THROW(decode_prior({}), std::invalid_argument);
}

TEST(Transfer, RejectsImplausibleHeaderCounts) {
    auto encoded = encode_prior(sample_prior());
    // Zero the component count (offset: 8 magic + 4 version + 4 flags).
    encoded[16] = 0;
    encoded[17] = 0;
    encoded[18] = 0;
    encoded[19] = 0;
    EXPECT_THROW(decode_prior(encoded), std::invalid_argument);
}

// ------------------------------------------------------------------- cloud

TEST(Cloud, FitsContributorModelsAndPrior) {
    stats::Rng rng(1);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(4, 2, 3.0, 0.02, rng);
    CloudConfig config;
    config.gibbs_sweeps = 40;
    CloudNode cloud(config);
    for (int j = 0; j < 12; ++j) {
        const data::TaskSpec task = pop.sample_task(rng);
        data::DataOptions options;
        options.margin_scale = 2.0;
        cloud.add_contributor_data(pop.generate(task, 300, rng, options));
    }
    EXPECT_EQ(cloud.num_contributors(), 12u);
    stats::Rng prior_rng(2);
    const dp::MixturePrior prior = cloud.fit_prior(prior_rng);
    EXPECT_EQ(prior.dim(), 5u);
    EXPECT_GE(prior.num_components(), 2u);  // >= the planted modes (plus escape atom)
}

TEST(Cloud, VariationalPathWorks) {
    stats::Rng rng(3);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(3, 2, 3.0, 0.02, rng);
    CloudConfig config;
    config.inference = PriorInference::kVariational;
    config.variational_truncation = 6;
    CloudNode cloud(config);
    for (int j = 0; j < 10; ++j) {
        const data::TaskSpec task = pop.sample_task(rng);
        cloud.add_contributor_data(pop.generate(task, 250, rng));
    }
    stats::Rng prior_rng(4);
    const dp::MixturePrior prior = cloud.fit_prior(prior_rng);
    EXPECT_EQ(prior.dim(), 4u);
    EXPECT_GE(prior.num_components(), 1u);
}

TEST(Cloud, NigGibbsPathWorks) {
    stats::Rng rng(30);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(3, 2, 3.0, 0.02, rng);
    CloudConfig config;
    config.inference = PriorInference::kNigGibbs;
    config.gibbs_sweeps = 40;
    CloudNode cloud(config);
    for (int j = 0; j < 10; ++j) {
        const data::TaskSpec task = pop.sample_task(rng);
        cloud.add_contributor_data(pop.generate(task, 250, rng));
    }
    stats::Rng prior_rng(31);
    const dp::MixturePrior prior = cloud.fit_prior(prior_rng);
    EXPECT_EQ(prior.dim(), 4u);
    EXPECT_GE(prior.num_components(), 2u);
    // NIG atoms carry diagonal covariances by construction.
    EXPECT_DOUBLE_EQ(prior.atom(0).covariance()(0, 1), 0.0);
}

TEST(Cloud, RequiresTwoContributors) {
    CloudNode cloud{CloudConfig{}};
    stats::Rng rng(5);
    EXPECT_THROW(cloud.fit_prior(rng), std::invalid_argument);
    const models::Dataset d(test_support::matrix_of(2, 2, {1.0, 1.0, -1.0, 1.0}), {1.0, -1.0});
    cloud.add_contributor_data(d);
    EXPECT_THROW(cloud.fit_prior(rng), std::invalid_argument);
}

TEST(Cloud, RejectsDimensionMismatchAcrossContributors) {
    CloudNode cloud{CloudConfig{}};
    cloud.add_contributor_data(
        models::Dataset(test_support::matrix_of(2, 2, {1.0, 1.0, -1.0, 1.0}), {1.0, -1.0}));
    const models::Dataset wider(test_support::matrix_of(2, 3, {1.0, 1.0, 1.0, -1.0, 1.0, 1.0}),
                                {1.0, -1.0});
    EXPECT_THROW(cloud.add_contributor_data(wider), std::invalid_argument);
}

// ------------------------------------------------------------------ device

TEST(Device, LifecycleEnforced) {
    stats::Rng rng(6);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    const data::TaskSpec task = pop.sample_task(rng);
    EdgeDevice device("dev-0", pop.generate(task, 20, rng), {});
    EXPECT_THROW(device.train(), std::logic_error);
    EXPECT_THROW(device.model(), std::logic_error);

    // Build a matching prior and transfer it.
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic(task.theta_star, 0.2));
    const dp::MixturePrior prior(linalg::Vector{1.0}, std::move(atoms));
    const auto encoded = encode_prior(prior);
    EXPECT_EQ(device.receive_prior(encoded), encoded.size());

    device.train();
    const models::Dataset test = pop.generate(task, 1000, rng);
    EXPECT_GT(device.evaluate_accuracy(test), 0.6);
}

TEST(Device, RejectsMismatchedPrior) {
    stats::Rng rng(7);
    const data::TaskPopulation pop = data::TaskPopulation::make_synthetic(3, 2, 2.0, 0.05, rng);
    const data::TaskSpec task = pop.sample_task(rng);
    EdgeDevice device("dev-1", pop.generate(task, 20, rng), {});
    const dp::MixturePrior wrong =
        dp::MixturePrior::single(stats::MultivariateNormal::isotropic({0.0, 0.0}, 1.0));
    EXPECT_THROW(device.receive_prior(encode_prior(wrong)), std::invalid_argument);
}

// -------------------------------------------------------------- simulation

TEST(Simulation, EndToEndFleetRunsAndHelps) {
    SimulationConfig config;
    config.feature_dim = 5;
    config.num_modes = 3;
    config.num_contributors = 12;
    config.contributor_samples = 200;
    config.num_edge_devices = 6;
    config.edge_samples = 12;
    config.test_samples = 800;
    config.cloud.gibbs_sweeps = 40;
    config.learner.em.max_outer_iterations = 15;
    stats::Rng rng(8);
    const FleetReport report = run_fleet_simulation(config, rng);
    ASSERT_EQ(report.devices.size(), 6u);
    EXPECT_GT(report.prior_components, 0u);
    EXPECT_EQ(report.total_broadcast_bytes, report.prior_bytes * 6);
    // Headline shape: transfer + robustness helps the average device.
    EXPECT_GT(report.mean_em_dro_accuracy(), report.mean_local_erm_accuracy());
    for (const auto& outcome : report.devices) {
        EXPECT_GE(outcome.bayes_accuracy, outcome.em_dro_accuracy - 0.06);
        EXPECT_GT(outcome.train_seconds, 0.0);
    }
}

TEST(Simulation, DeterministicGivenSeed) {
    SimulationConfig config;
    config.num_contributors = 8;
    config.contributor_samples = 120;
    config.num_edge_devices = 3;
    config.edge_samples = 10;
    config.test_samples = 300;
    config.cloud.gibbs_sweeps = 20;
    config.learner.em.max_outer_iterations = 8;
    stats::Rng rng_a(9);
    stats::Rng rng_b(9);
    const FleetReport a = run_fleet_simulation(config, rng_a);
    const FleetReport b = run_fleet_simulation(config, rng_b);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.devices[i].em_dro_accuracy, b.devices[i].em_dro_accuracy);
    }
    EXPECT_EQ(a.prior_bytes, b.prior_bytes);
}

TEST(Simulation, ParallelRunIsBitIdenticalToSerial) {
    SimulationConfig config;
    config.num_contributors = 8;
    config.contributor_samples = 120;
    config.num_edge_devices = 6;
    config.edge_samples = 10;
    config.test_samples = 300;
    config.cloud.gibbs_sweeps = 20;
    config.learner.em.max_outer_iterations = 8;
    stats::Rng serial_rng(77);
    const FleetReport serial = run_fleet_simulation(config, serial_rng);
    config.num_threads = 4;
    stats::Rng parallel_rng(77);
    const FleetReport parallel = run_fleet_simulation(config, parallel_rng);
    ASSERT_EQ(serial.devices.size(), parallel.devices.size());
    for (std::size_t i = 0; i < serial.devices.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.devices[i].em_dro_accuracy,
                         parallel.devices[i].em_dro_accuracy);
        EXPECT_DOUBLE_EQ(serial.devices[i].local_erm_accuracy,
                         parallel.devices[i].local_erm_accuracy);
        EXPECT_EQ(serial.devices[i].mode_index, parallel.devices[i].mode_index);
    }
}

TEST(Simulation, ConfigValidation) {
    SimulationConfig config;
    config.num_contributors = 1;
    stats::Rng rng(10);
    EXPECT_THROW(run_fleet_simulation(config, rng), std::invalid_argument);
    config.num_contributors = 4;
    config.num_edge_devices = 0;
    EXPECT_THROW(run_fleet_simulation(config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace drel::edgesim
