#include "edgesim/network.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace drel::edgesim {
namespace {

/// Fragmentation unit: the payload travels in packets of this many bytes.
constexpr std::size_t kPacketBytes = 256;

}  // namespace

void ChannelConfig::validate() const {
    if (!(packet_loss_prob >= 0.0 && packet_loss_prob <= 1.0)) {
        throw std::invalid_argument("ChannelConfig: packet_loss_prob must be in [0, 1]");
    }
    if (max_transmissions < 1) {
        throw std::invalid_argument("ChannelConfig: max_transmissions must be >= 1");
    }
}

TransmissionReport transmit_with_retries(const std::vector<std::uint8_t>& payload,
                                         const ChannelConfig& config, stats::Rng& rng) {
    config.validate();
    if (payload.empty()) {
        // A bug at the sender, not a delivery failure: rejected before any
        // channel draw.
        throw std::invalid_argument("transmit_with_retries: payload must be non-empty");
    }

    DREL_PROFILE_SCOPE("net.transmit");
    TransmissionReport report;
    report.payload_bytes = payload.size();

    static obs::Counter& transmissions = obs::Registry::global().counter("net.transmissions");
    static obs::Counter& transmitted_bytes =
        obs::Registry::global().counter("net.transmitted_bytes");
    static obs::Counter& dropped = obs::Registry::global().counter("net.dropped_packets");
    static obs::Counter& deliveries = obs::Registry::global().counter("net.deliveries");
    static obs::Counter& failures = obs::Registry::global().counter("net.failures");
    for (int attempt = 0; attempt < config.max_transmissions; ++attempt) {
        ++report.attempts;
        report.transmitted_bytes += payload.size();
        transmissions.add(1);
        transmitted_bytes.add(payload.size());

        bool any_drop = false;
        for (std::size_t offset = 0; offset < payload.size(); offset += kPacketBytes) {
            if (config.packet_loss_prob > 0.0 && rng.uniform() < config.packet_loss_prob) {
                ++report.dropped_packets;
                dropped.add(1);
                any_drop = true;  // packet vanishes; receiver sees a short payload
            }
        }

        if (!any_drop) {
            report.delivered = true;
            deliveries.add(1);
            report.payload = payload;
            return report;
        }
    }
    failures.add(1);
    return report;
}

}  // namespace drel::edgesim
