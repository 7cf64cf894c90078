// Tests for the lossy-channel prior transfer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "dp/mixture_prior.hpp"
#include "edgesim/network.hpp"
#include "edgesim/transfer.hpp"
#include "stats/rng.hpp"

namespace drel {
namespace {

dp::MixturePrior channel_prior() {
    std::vector<stats::MultivariateNormal> atoms;
    atoms.push_back(stats::MultivariateNormal::isotropic({1.0, -1.0, 0.5}, 0.4));
    atoms.push_back(stats::MultivariateNormal::isotropic({-1.0, 1.0, 0.0}, 0.6));
    return dp::MixturePrior({0.5, 0.5}, std::move(atoms));
}

TEST(LossyChannel, PerfectChannelDeliversFirstTry) {
    stats::Rng rng(7);
    const auto payload = edgesim::encode_prior(channel_prior());
    const edgesim::TransmissionReport report =
        edgesim::transmit_with_retries(payload, {}, rng);
    EXPECT_TRUE(report.delivered);
    EXPECT_EQ(report.attempts, 1);
    EXPECT_EQ(report.transmitted_bytes, payload.size());
    EXPECT_EQ(report.payload, payload);
}

TEST(LossyChannel, RetransmitsUntilDelivered) {
    // The payload fits one packet, so each attempt gets through with
    // probability p = 1 - loss and the attempt count is Geometric(p): mean
    // 1/p, standard deviation sqrt(1 - p)/p. Over independent forked trials
    // every delivery must be complete and charged per attempt, and the mean
    // attempt count must sit within five standard errors of 1/p.
    const auto payload = edgesim::encode_prior(channel_prior());
    edgesim::ChannelConfig config;
    config.packet_loss_prob = 0.7;
    config.max_transmissions = 500;
    ASSERT_LE(payload.size(), 256u);  // one packet
    const double p = 1.0 - config.packet_loss_prob;
    const int trials = 2000;
    const stats::Rng root(8);
    long total_attempts = 0;
    int retransmitted = 0;
    for (int t = 0; t < trials; ++t) {
        stats::Rng rng = root.fork(static_cast<std::uint64_t>(t));
        const edgesim::TransmissionReport report =
            edgesim::transmit_with_retries(payload, config, rng);
        ASSERT_TRUE(report.delivered) << "trial " << t;
        EXPECT_EQ(report.transmitted_bytes,
                  payload.size() * static_cast<std::size_t>(report.attempts));
        // The delivered bytes are the sent bytes and decode to the same prior.
        EXPECT_EQ(report.payload, payload) << "trial " << t;
        EXPECT_EQ(edgesim::decode_prior(report.payload).num_components(), 2u);
        total_attempts += report.attempts;
        if (report.attempts > 1) ++retransmitted;
    }
    EXPECT_GT(retransmitted, 0);
    const double mean_attempts = static_cast<double>(total_attempts) / trials;
    const double standard_error = std::sqrt(1.0 - p) / p / std::sqrt(static_cast<double>(trials));
    EXPECT_NEAR(mean_attempts, 1.0 / p, 5.0 * standard_error);
}

TEST(LossyChannel, HopelessChannelGivesUp) {
    stats::Rng rng(10);
    const auto payload = edgesim::encode_prior(channel_prior());
    edgesim::ChannelConfig config;
    config.packet_loss_prob = 1.0;
    config.max_transmissions = 4;
    const edgesim::TransmissionReport report =
        edgesim::transmit_with_retries(payload, config, rng);
    EXPECT_FALSE(report.delivered);
    EXPECT_EQ(report.attempts, 4);
}

TEST(LossyChannel, Validation) {
    stats::Rng rng(11);
    const auto payload = edgesim::encode_prior(channel_prior());
    edgesim::ChannelConfig no_attempts;
    no_attempts.max_transmissions = 0;
    EXPECT_THROW(edgesim::transmit_with_retries(payload, no_attempts, rng),
                 std::invalid_argument);
    edgesim::ChannelConfig bad_loss;
    bad_loss.packet_loss_prob = 1.5;
    EXPECT_THROW(edgesim::transmit_with_retries(payload, bad_loss, rng), std::invalid_argument);
}

TEST(LossyChannel, EmptyPayloadIsRejectedUpFront) {
    // An empty payload used to burn max_transmissions attempts shipping
    // nothing and then report a zero-byte "delivery". It is a caller bug,
    // rejected before any channel draw.
    stats::Rng rng(13);
    const std::vector<std::uint8_t> empty;
    EXPECT_THROW(edgesim::transmit_with_retries(empty, {}, rng), std::invalid_argument);
    // The throw happens before the RNG is touched: the next draw matches a
    // fresh stream with the same seed.
    stats::Rng fresh(13);
    EXPECT_EQ(rng.uniform(), fresh.uniform());
}

}  // namespace
}  // namespace drel
