// E16 (extension) — broadcasting the prior over an unreliable link.
//
// Sweeps the per-packet loss probability and compares the three prior
// encodings. The compact encodings fragment into fewer packets, so their
// whole-payload delivery probability per attempt is higher and the expected
// number of retransmissions lower — compression pays twice on a lossy edge
// link. Reported: attempts to deliver and total bytes on the air (mean over
// 200 trials), per encoding and loss rate.
#include "edgesim/network.hpp"
#include "edgesim/transfer.hpp"

#include "bench_common.hpp"

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_fig12_lossy_channel");
    bench::print_header("E16 (Fig. 12, extension)",
                        "Prior broadcast over a lossy link (256 B packets, ack/retransmit): "
                        "attempts and on-air bytes vs packet loss rate, 200 trials each.");

    // A realistic prior: 5 components over a 9-dim theta (the E1 setup).
    const bench::PipelineFixture fixture = bench::make_pipeline_fixture(3000);

    struct Encoding {
        const char* name;
        edgesim::EncodingOptions options;
    };
    const std::vector<Encoding> encodings = {
        {"f64 full-cov", {}},
        {"f32 full-cov", {true, false}},
        {"f32 diagonal", {true, true}},
    };
    const std::vector<double> loss_rates = {0.0, 0.05, 0.1, 0.2, 0.4};
    const int trials = 200;

    util::Table table({"encoding", "payload B", "packets", "loss rate", "attempts",
                       "on-air bytes", "delivery %"});
    for (const Encoding& encoding : encodings) {
        const auto payload = edgesim::encode_prior(fixture.prior, encoding.options);
        const std::size_t packets = (payload.size() + 255) / 256;
        for (const double loss : loss_rates) {
            edgesim::ChannelConfig channel;
            channel.packet_loss_prob = loss;
            channel.max_transmissions = 200;
            stats::RunningStats attempts;
            stats::RunningStats on_air;
            int delivered = 0;
            stats::Rng rng(3100);
            for (int t = 0; t < trials; ++t) {
                stats::Rng trial_rng = rng.fork(static_cast<std::uint64_t>(t) +
                                                1000 * static_cast<std::uint64_t>(loss * 100));
                const edgesim::TransmissionReport report =
                    edgesim::transmit_with_retries(payload, channel, trial_rng);
                attempts.push(static_cast<double>(report.attempts));
                on_air.push(static_cast<double>(report.transmitted_bytes));
                if (report.delivered) ++delivered;
            }
            table.add_row({encoding.name, std::to_string(payload.size()),
                           std::to_string(packets), util::Table::fmt(loss, 2),
                           bench::mean_std(attempts, 1), bench::mean_std(on_air, 0),
                           util::Table::fmt(100.0 * delivered / trials, 1)});
        }
    }
    table.print(std::cout);
    return 0;
}
