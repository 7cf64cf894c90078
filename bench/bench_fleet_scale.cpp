// E21 (extension) — deployment-shape fleet scale on the event-driven engine.
//
// Sweeps the sharded engine (edgesim/server.hpp) from a 10k-device warmup
// through the 100k-device deployment point to 1M devices, shows thread
// scaling at 100k and a deliberately under-provisioned server row where
// admission control sheds load as DegradedReason::kBackpressure instead of
// stalling the fleet.
// Reported: wall throughput (device-rounds/s), the virtual-latency tail
// (p50/p99/p999 over every device, crashes pinned at the deadline), mean
// on-air bytes per device per round, and the MAP mode-recovery proxy.
// Every row is bit-identical across thread counts.
#include "edgesim/server.hpp"
#include "obs/health.hpp"

#include "bench_common.hpp"

namespace {

struct Row {
    std::string label;
    drel::edgesim::ScaleFleetConfig config;
    /// The under-provisioned row exists to demonstrate load shedding: its
    /// SLO report MUST fail on backpressure, and a healthy row must not.
    bool expect_backpressure_fail = false;
    /// The churn row exists to demonstrate graceful membership handling:
    /// its telemetry MUST carry membership rows with real rejoins —
    /// including stale-prior resumes — while its SLOs still hold.
    bool expect_churn = false;
    /// The row whose health block rides in the metrics sidecar.
    bool export_health = false;
    /// The wire-v2 row exists to demonstrate compressed broadcasts: its
    /// broadcast bytes/device/round MUST come in at least 2x below the v1
    /// deployment row's, or the compression no longer earns its row.
    bool wire_v2 = false;
};

}  // namespace

int main() {
    using namespace drel;
    bench::MetricsSidecar sidecar("bench_fleet_scale");
    bench::print_header(
        "E21 (extension)",
        "Event-driven fleet engine at deployment scale. thr = device-rounds/s "
        "(wall clock); p50/p99/p999 = virtual completion-latency tail in "
        "seconds; B/dev/rnd = mean broadcast+upload+batch bytes per device "
        "per round; bcast B/dev/rnd = the broadcast share alone (what the "
        "wire format controls — the v2 row must land at least 2x below the "
        "v1 row); recovery = MAP mode-recovery rate over scored devices; "
        "rejected = uploads shed by server admission control (backpressure). "
        "The churn row runs the membership state machine: leaves, missed "
        "heartbeats, and stale-prior rejoins at a 10%/round uniform rate.");

    const std::size_t hw_threads = util::Executor::global().max_threads();
    // The shard count is the batch structure (one upload batch per shard per
    // round), so it is pinned rather than derived from the host's thread
    // count: every machine benches the same fleet layout, and the slow-server
    // row sheds the same load everywhere.
    const std::size_t shards = 16;

    std::vector<Row> rows;
    {
        Row warmup;
        warmup.label = "10k";
        warmup.config.devices_per_round = 10000;
        warmup.config.num_shards = shards;
        warmup.config.num_threads = hw_threads;
        rows.push_back(warmup);
    }
    {
        Row deploy;
        deploy.label = "100k";
        deploy.config.devices_per_round = 100000;
        deploy.config.num_shards = shards;
        deploy.config.num_threads = hw_threads;
        rows.push_back(deploy);
    }
    {
        // The 100k fleet again, but broadcasting wire v2: the bootstrap
        // push is a full 8-bit-quantized frame, every re-push a delta
        // against it. Same fleet, same rounds — only the broadcast bytes
        // move, and they must move by at least 2x.
        Row v2;
        v2.label = "100k wire v2";
        v2.config.devices_per_round = 100000;
        v2.config.num_shards = shards;
        v2.config.num_threads = hw_threads;
        v2.config.wire.version = edgesim::kWireV2;
        v2.config.wire.quantized = true;
        v2.config.wire.quantization_bits = 8;
        v2.config.wire.delta = true;
        v2.wire_v2 = true;
        rows.push_back(v2);
    }
    {
        Row single;
        single.label = "100k x1 thread";
        single.config.devices_per_round = 100000;
        single.config.num_shards = shards;
        single.config.num_threads = 1;
        rows.push_back(single);
    }
    {
        Row chaos;
        chaos.label = "100k chaos 10%";
        chaos.config.devices_per_round = 100000;
        chaos.config.num_shards = shards;
        chaos.config.num_threads = hw_threads;
        chaos.config.faults = edgesim::FaultConfig::uniform(0.1);
        chaos.export_health = true;
        rows.push_back(chaos);
    }
    {
        // A tenth of the fleet churning every round, over a 10k-slot
        // reserved tail: devices leave, go silent, die, and REJOIN — the
        // round keeps closing, skipped slots are unscored rather than
        // failed, and rejoiners resume on a stale prior instead of
        // erroring. The membership SLO rules judge the suspect fraction
        // and guard against mass extinction.
        Row churn;
        churn.label = "100k churn 10%";
        churn.config.devices_per_round = 100000;
        churn.config.num_shards = shards;
        churn.config.num_threads = hw_threads;
        churn.config.membership.churn = edgesim::ChurnConfig::uniform(0.10);
        churn.config.membership.initial_members = 90000;
        churn.expect_churn = true;
        rows.push_back(churn);
    }
    {
        // A server that needs 20 virtual seconds per batch with a 2-deep
        // queue cannot admit every shard of a wide fleet: the overflow is
        // reported per device, and the run still completes every round.
        Row slow;
        slow.label = "100k slow server";
        slow.config.devices_per_round = 100000;
        slow.config.num_shards = shards;
        slow.config.num_threads = hw_threads;
        slow.config.server.queue_capacity = 2;
        slow.config.server.service_seconds_per_batch = 20.0;
        slow.expect_backpressure_fail = true;
        rows.push_back(slow);
    }
    {
        Row huge;
        huge.label = "1M";
        huge.config.devices_per_round = 1000000;
        huge.config.num_shards = shards;
        huge.config.num_threads = hw_threads;
        rows.push_back(huge);
    }

    util::Table table({"fleet", "rounds", "thr (dev-rnd/s)", "p50 s", "p99 s",
                       "p999 s", "B/dev/rnd", "bcast B/dev/rnd", "recovery",
                       "rejected", "slo"});
    bool slo_ok = true;
    double v1_broadcast_rate = -1.0;  // the "100k" row's bcast B/dev/rnd
    double v2_broadcast_rate = -1.0;  // the "100k wire v2" row's
    for (const Row& row : rows) {
        stats::Rng rng(2100);
        const edgesim::ScaleFleetReport report = edgesim::run_scale_fleet(row.config, rng);
        const edgesim::EngineReport& engine = report.engine;
        double p50 = 0.0, p99 = 0.0, p999 = 0.0;
        for (const edgesim::EngineRoundStats& round : engine.rounds) {
            p50 = std::max(p50, round.latency_p50_seconds);
            p99 = std::max(p99, round.latency_p99_seconds);
            p999 = std::max(p999, round.latency_p999_seconds);
        }
        // Broadcast bytes per device per round: the downlink budget the
        // wire format spends, isolated from uploads and server batches.
        const double broadcast_rate =
            engine.rounds.empty()
                ? 0.0
                : static_cast<double>(engine.total_broadcast_bytes) /
                      (static_cast<double>(row.config.devices_per_round) *
                       static_cast<double>(engine.rounds.size()));
        if (row.label == "100k") v1_broadcast_rate = broadcast_rate;
        if (row.wire_v2) v2_broadcast_rate = broadcast_rate;

        // Judge every row against the fleet SLOs plus the bandwidth rule
        // over the telemetry's broadcast_bytes column (v1 full frames land
        // in the warn band; v2 must clear it). The table shows the verdict
        // and the process exit code enforces the expectations (healthy rows
        // pass or warn; the slow server MUST fail on backpressure — if it
        // stops failing, the row no longer demos what it claims to).
        const health::SloReport slo = health::evaluate(
            health::Slo::fleet_with_bandwidth(/*warn=*/1024.0, /*fail=*/8192.0),
            engine.telemetry);
        if (!obs::metrics_enabled()) {
            // DREL_METRICS=0: the telemetry is empty by contract and every
            // rule passes vacuously — there is nothing to enforce.
        } else if (row.expect_backpressure_fail) {
            bool tripped = false;
            for (const health::SloResult& rule : slo.rules) {
                if (rule.name == "backpressure_rejection_rate" &&
                    rule.verdict == health::Verdict::kFail) {
                    tripped = true;
                }
            }
            if (!tripped) {
                std::cerr << "SLO expectation violated: row '" << row.label
                          << "' should trip backpressure_rejection_rate\n";
                slo_ok = false;
            }
        } else if (slo.verdict == health::Verdict::kFail) {
            std::cerr << "SLO expectation violated: healthy row '" << row.label
                      << "' failed its SLOs\n";
            slo_ok = false;
        }
        if (row.expect_churn && obs::metrics_enabled()) {
            // The demo claim, enforced: the fleet actually churned, dead
            // devices actually came back, and at least one rejoiner
            // resumed on an out-of-date prior — gracefully, with every
            // SLO (including the membership pair) holding above.
            using health::MembershipCol;
            const obs::RoundSeries& members = engine.telemetry.membership;
            if (members.num_rows() != engine.rounds.size() ||
                members.column_max(health::idx(MembershipCol::kRejoins)) == 0 ||
                members.column_max(health::idx(MembershipCol::kRejoinsStale)) == 0) {
                std::cerr << "churn expectation violated: row '" << row.label
                          << "' produced no stale-prior rejoins\n";
                slo_ok = false;
            }
        }
        if (row.export_health && obs::metrics_enabled()) {
            sidecar.set_health(engine.telemetry.to_json(&slo));
        }

        table.add_row({row.label, std::to_string(engine.rounds.size()),
                       util::Table::fmt(engine.device_rounds_per_second, 0),
                       util::Table::fmt(p50, 2), util::Table::fmt(p99, 2),
                       util::Table::fmt(p999, 2),
                       util::Table::fmt(engine.bytes_per_device_round(), 1),
                       util::Table::fmt(broadcast_rate, 1),
                       util::Table::fmt(report.mode_recovery_rate, 3),
                       std::to_string(engine.total_backpressure_rejected),
                       health::to_string(slo.verdict)});
    }
    table.print(std::cout);

    // The compression claim, enforced: wire v2 (8-bit + delta) must cut
    // broadcast bytes/device/round by at least 2x against the v1 row at
    // the same 100k scale.
    if (v1_broadcast_rate > 0.0 && v2_broadcast_rate >= 0.0 &&
        2.0 * v2_broadcast_rate > v1_broadcast_rate) {
        std::cerr << "wire-v2 expectation violated: broadcast bytes/device/round "
                  << v2_broadcast_rate << " is not 2x below the v1 row's "
                  << v1_broadcast_rate << "\n";
        slo_ok = false;
    }

    std::cout << "\nEvery row ran the full event loop (virtual clock, bounded "
                 "server queue); backpressure degrades devices, never the "
                 "run. Reports are bit-identical across thread counts; the "
                 "chaos row's health block lands in the metrics sidecar.\n";
    return slo_ok ? 0 : 1;
}
