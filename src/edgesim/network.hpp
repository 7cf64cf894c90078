// Lossy-channel simulation for the cloud->edge broadcast (extension).
//
// Real edge links drop packets. This module models the prior broadcast
// over an unreliable channel with a per-packet loss probability plus an
// ack/retransmit loop, and measures what the deployment pays: transmitted
// bytes (including retransmissions) and whether the payload finally
// arrived. The payload travels in 256-byte (MTU-style) packets; a
// transmission that loses any of them is retransmitted whole, so a
// delivered payload is always the bytes that were sent.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace drel::edgesim {

struct ChannelConfig {
    double packet_loss_prob = 0.0;      ///< whole-packet drop probability
    int max_transmissions = 10;         ///< attempts before giving up

    /// Throws std::invalid_argument on a non-physical channel:
    /// packet_loss_prob outside [0, 1] or max_transmissions < 1.
    void validate() const;
};

struct TransmissionReport {
    bool delivered = false;             ///< payload eventually arrived intact
    int attempts = 0;                   ///< full-payload transmissions
    std::size_t payload_bytes = 0;
    std::size_t transmitted_bytes = 0;  ///< includes every retransmission
    std::size_t dropped_packets = 0;
    std::vector<std::uint8_t> payload;  ///< the delivered bytes (if any)
};

/// Pushes `payload` through the channel until a transmission arrives whole
/// (every packet delivered) or attempts run out. Draws one uniform per
/// packet when packet_loss_prob > 0. Throws std::invalid_argument on an
/// empty payload (there is nothing to transmit, so the call is a bug at
/// the sender, not a delivery failure).
TransmissionReport transmit_with_retries(const std::vector<std::uint8_t>& payload,
                                         const ChannelConfig& config, stats::Rng& rng);

}  // namespace drel::edgesim
