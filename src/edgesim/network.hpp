// Lossy-channel simulation for the cloud->edge broadcast (extension).
//
// Real edge links drop and corrupt packets. This module models the prior
// broadcast over an unreliable channel with per-packet loss and per-byte
// corruption probabilities plus an ack/retransmit loop, and measures what
// the deployment pays: transmitted bytes (including retransmissions) and
// whether the payload finally arrived. Each packet carries the link
// checksum real links carry, so a packet with a corrupted byte is detected
// and the whole payload is retransmitted: a delivered payload is always the
// bytes that were sent, and a device never installs a garbled prior.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace drel::edgesim {

struct ChannelConfig {
    std::size_t packet_bytes = 256;     ///< MTU-style fragmentation unit
    double packet_loss_prob = 0.0;      ///< whole-packet drop probability
    double bit_flip_prob = 0.0;         ///< per-BYTE corruption probability
    int max_transmissions = 10;         ///< attempts before giving up

    /// Throws std::invalid_argument on a non-physical channel:
    /// packet_bytes == 0, a probability outside [0, 1], or
    /// max_transmissions < 1.
    void validate() const;
};

struct TransmissionReport {
    bool delivered = false;             ///< payload eventually arrived intact
    int attempts = 0;                   ///< full-payload transmissions
    std::size_t payload_bytes = 0;
    std::size_t transmitted_bytes = 0;  ///< includes every retransmission
    std::size_t corrupted_attempts = 0; ///< every packet arrived, a checksum failed
    std::size_t dropped_packets = 0;
    std::vector<std::uint8_t> payload;  ///< the delivered bytes (if any)
};

/// Pushes `payload` through the channel until a transmission arrives intact
/// (every packet delivered, no byte corrupted) or attempts run out. Draws
/// one uniform per packet when packet_loss_prob > 0 and one per byte of
/// every arriving packet when bit_flip_prob > 0. Throws
/// std::invalid_argument on an empty payload (same contract as
/// packet_bytes == 0: there is nothing to transmit, so the call is a bug at
/// the sender, not a delivery failure).
TransmissionReport transmit_with_retries(const std::vector<std::uint8_t>& payload,
                                         const ChannelConfig& config, stats::Rng& rng);

}  // namespace drel::edgesim
