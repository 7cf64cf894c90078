#include "edgesim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace drel::edgesim {
namespace {

void check_probability(double value, const char* name) {
    if (!(value >= 0.0 && value <= 1.0)) {
        throw std::invalid_argument(std::string("ChannelConfig: ") + name +
                                    " must be in [0, 1]");
    }
}

}  // namespace

void ChannelConfig::validate() const {
    if (packet_bytes == 0) {
        throw std::invalid_argument("ChannelConfig: packet_bytes must be > 0");
    }
    check_probability(packet_loss_prob, "packet_loss_prob");
    check_probability(bit_flip_prob, "bit_flip_prob");
    if (max_transmissions < 1) {
        throw std::invalid_argument("ChannelConfig: max_transmissions must be >= 1");
    }
}

TransmissionReport transmit_with_retries(const std::vector<std::uint8_t>& payload,
                                         const ChannelConfig& config, stats::Rng& rng) {
    config.validate();
    if (payload.empty()) {
        // Same contract as packet_bytes == 0: reject the nonsensical call up
        // front. The old behavior burned max_transmissions attempts shipping
        // zero packets and then reported a spurious delivery failure.
        throw std::invalid_argument("transmit_with_retries: payload must be non-empty");
    }

    DREL_PROFILE_SCOPE("net.transmit");
    TransmissionReport report;
    report.payload_bytes = payload.size();

    static obs::Counter& transmissions = obs::Registry::global().counter("net.transmissions");
    static obs::Counter& transmitted_bytes =
        obs::Registry::global().counter("net.transmitted_bytes");
    static obs::Counter& dropped = obs::Registry::global().counter("net.dropped_packets");
    static obs::Counter& corrupted = obs::Registry::global().counter("net.corrupted_payloads");
    static obs::Counter& deliveries = obs::Registry::global().counter("net.deliveries");
    static obs::Counter& failures = obs::Registry::global().counter("net.failures");
    for (int attempt = 0; attempt < config.max_transmissions; ++attempt) {
        ++report.attempts;
        report.transmitted_bytes += payload.size();
        transmissions.add(1);
        transmitted_bytes.add(payload.size());

        bool any_drop = false;
        bool any_corrupt = false;
        for (std::size_t offset = 0; offset < payload.size(); offset += config.packet_bytes) {
            const std::size_t end = std::min(offset + config.packet_bytes, payload.size());
            if (config.packet_loss_prob > 0.0 && rng.uniform() < config.packet_loss_prob) {
                ++report.dropped_packets;
                dropped.add(1);
                any_drop = true;
                continue;  // packet vanishes; receiver sees a short payload
            }
            if (config.bit_flip_prob > 0.0) {
                for (std::size_t i = offset; i < end; ++i) {
                    if (rng.uniform() < config.bit_flip_prob) any_corrupt = true;
                }
            }
        }

        if (!any_drop && !any_corrupt) {
            report.delivered = true;
            deliveries.add(1);
            report.payload = payload;
            return report;
        }
        if (!any_drop) {
            ++report.corrupted_attempts;  // every packet arrived, a checksum failed
            corrupted.add(1);
        }
    }
    failures.add(1);
    return report;
}

}  // namespace drel::edgesim
