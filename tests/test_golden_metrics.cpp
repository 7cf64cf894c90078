// Golden-file harness for the deterministic metrics snapshots.
//
// Each scenario runs a fixed-seed workload, takes the registry's
// deterministic snapshot (counters/gauges/histograms — never wall clock),
// and byte-compares its JSON against a checked-in golden under
// tests/golden/. A mismatch fails with a line-level diff naming the first
// divergent line, so a renamed or dropped metric is immediately readable.
//
// Regenerating goldens (after an intentional instrumentation change):
//
//     DREL_UPDATE_GOLDEN=1 ctest -R Golden
//
// rewrites every golden from the current run and passes; commit the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/em_dro.hpp"
#include "dro/ambiguity.hpp"
#include "edgesim/lifecycle.hpp"
#include "edgesim/server.hpp"
#include "edgesim/simulation.hpp"
#include "models/loss.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

using test_support::hex_bits;

std::string golden_path(const std::string& name) {
    return std::string(DREL_GOLDEN_DIR) + "/" + name + ".json";
}

bool update_goldens() {
    const char* env = std::getenv("DREL_UPDATE_GOLDEN");
    return env != nullptr && std::string(env) == "1";
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::stringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) lines.push_back(line);
    return lines;
}

/// Human-readable unified-ish diff: the first divergent line with a little
/// context on both sides. Enough to see "counter renamed" at a glance.
std::string first_diff(const std::string& expected, const std::string& actual) {
    const std::vector<std::string> want = split_lines(expected);
    const std::vector<std::string> got = split_lines(actual);
    std::ostringstream out;
    const std::size_t n = std::max(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string* w = i < want.size() ? &want[i] : nullptr;
        const std::string* g = i < got.size() ? &got[i] : nullptr;
        if (w != nullptr && g != nullptr && *w == *g) continue;
        out << "first difference at line " << (i + 1) << ":\n";
        for (std::size_t j = i >= 2 ? i - 2 : 0; j < i; ++j) {
            out << "    " << want[j] << "\n";
        }
        out << "  - " << (w != nullptr ? *w : "<end of golden>") << "\n";
        out << "  + " << (g != nullptr ? *g : "<end of snapshot>") << "\n";
        return out.str();
    }
    return "documents are line-identical (trailing whitespace?)";
}

void check_text_against_golden(const std::string& name, const std::string& actual) {
    const std::string path = golden_path(name);
    if (update_goldens()) {
        std::ofstream out(path, std::ios::trunc);
        out << actual << "\n";
        ASSERT_TRUE(out.good()) << "failed to write golden " << path;
        SUCCEED() << "golden regenerated: " << path;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " — regenerate with DREL_UPDATE_GOLDEN=1";
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string expected = buffer.str();
    if (!expected.empty() && expected.back() == '\n') expected.pop_back();
    EXPECT_EQ(expected, actual)
        << "metrics snapshot diverged from " << path << "\n"
        << first_diff(expected, actual)
        << "if the change is intentional, regenerate with DREL_UPDATE_GOLDEN=1";
}

/// The golden document: {"metrics": <the registry's deterministic snapshot>,
/// "schema_version": 1}.
void check_against_golden(const std::string& name) {
    obs::JsonValue::Object doc;
    doc.emplace("schema_version", std::uint64_t{1});
    doc.emplace("metrics", obs::Registry::global().deterministic_snapshot());
    check_text_against_golden(name, obs::JsonValue(std::move(doc)).dump());
}

class GoldenMetrics : public ::testing::Test {
 protected:
    void SetUp() override {
        if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
        obs::Registry::global().reset();
    }
};

// Full pipeline: contributors -> DPMM prior -> broadcast -> per-device
// EM-DRO training. Exercises every instrumented subsystem in one run.
TEST_F(GoldenMetrics, FleetSmall) {
    edgesim::SimulationConfig config = test_support::small_fleet_config();
    config.num_threads = 2;
    stats::Rng rng(4242);
    (void)edgesim::run_fleet_simulation(config, rng);
    check_against_golden("fleet_small");
}

// The same fleet under deterministic chaos (every fault rate at 0.5): pins
// the fault.injected.* / fault.degraded.* counter families and proves the
// degradation paths are as reproducible as the healthy ones. Runs on 2
// threads — the snapshot must be bit-identical to a serial run.
TEST_F(GoldenMetrics, FleetChaosSmall) {
    edgesim::SimulationConfig config = test_support::small_fleet_config();
    config.num_threads = 2;
    config.faults = edgesim::FaultConfig::uniform(0.5);
    stats::Rng rng(4242);
    (void)edgesim::run_fleet_simulation(config, rng);
    check_against_golden("fleet_chaos_small");
}

// The fleet-health telemetry block (per-round series + upload-latency
// histogram + default-SLO report) from a small chaos run of the sharded
// engine. The golden pins the partition-independent surface — to_json with
// include_partition = false — so the SAME bytes must come back at any
// thread or shard count; the test proves that before comparing.
TEST_F(GoldenMetrics, FleetHealthSmall) {
    const auto health_json = [](std::size_t num_threads, std::size_t num_shards) {
        edgesim::ScaleFleetConfig config;
        config.devices_per_round = 200;
        config.rounds = 3;
        config.num_threads = num_threads;
        config.num_shards = num_shards;
        config.faults = edgesim::FaultConfig::uniform(0.2);
        stats::Rng rng(4242);
        const edgesim::ScaleFleetReport report = edgesim::run_scale_fleet(config, rng);
        const health::SloReport slo =
            health::evaluate(health::Slo::fleet_default(), report.engine.telemetry);
        return report.engine.telemetry.to_json(&slo, /*include_partition=*/false).dump(2);
    };
    const std::string actual = health_json(2, 4);
    EXPECT_EQ(health_json(4, 8), actual) << "health block depends on the partition";
    EXPECT_EQ(health_json(1, 1), actual) << "health block depends on the schedule";
    check_text_against_golden("fleet_health_small", actual);
}

// The fleet under CHURN: a quarter-rate uniform churn plan over a 200-device
// fleet with a 40-slot reserved tail. Pins the membership series (liveness
// census + churn event counters per round) and the two membership SLO rules
// alongside the main health block — and, like FleetHealthSmall, proves the
// whole surface is partition-independent before comparing: the SAME bytes
// must come back at any thread or shard count.
TEST_F(GoldenMetrics, FleetChurnSmall) {
    const auto churn_json = [](std::size_t num_threads, std::size_t num_shards) {
        edgesim::ScaleFleetConfig config;
        config.devices_per_round = 200;
        config.rounds = 4;
        config.num_threads = num_threads;
        config.num_shards = num_shards;
        config.membership.churn = edgesim::ChurnConfig::uniform(0.25);
        config.membership.initial_members = 160;
        stats::Rng rng(4243);
        const edgesim::ScaleFleetReport report = edgesim::run_scale_fleet(config, rng);
        const health::SloReport slo =
            health::evaluate(health::Slo::fleet_default(), report.engine.telemetry);
        return report.engine.telemetry.to_json(&slo, /*include_partition=*/false).dump(2);
    };
    const std::string actual = churn_json(2, 4);
    for (const std::size_t threads : {1u, 4u, 8u}) {
        EXPECT_EQ(churn_json(threads, 4), actual) << "threads=" << threads;
    }
    for (const std::size_t shards : {1u, 3u, 8u, 40u}) {
        EXPECT_EQ(churn_json(2, shards), actual) << "shards=" << shards;
    }
    // The scenario must actually exercise the graceful-rejoin path: a
    // device that died, missed a rebroadcast, and came back stale.
    EXPECT_NE(actual.find("\"rejoins_stale\""), std::string::npos);
    EXPECT_NE(actual.find("\"suspect_fraction\""), std::string::npos);
    check_text_against_golden("fleet_churn_small", actual);
}

// The lifecycle under wire v2 (8-bit quantized + delta broadcasts): pins
// the full closed loop — Gibbs posterior refreshes, compressed
// rebroadcasts, the bandwidth SLO — as a byte-exact document. Accuracies
// are recorded as raw f64 bit patterns, so "bit-identical across 1/2/4/8
// threads and 1/3/8/40 shards" means exactly that.
TEST_F(GoldenMetrics, LifecycleWireV2Small) {
    const auto wire_v2_json = [](std::size_t num_threads, std::size_t num_shards) {
        edgesim::LifecycleConfig config;
        config.feature_dim = 5;
        config.initial_modes = 2;
        config.initial_contributors = 12;
        config.contributor_samples = 200;
        config.rounds = 4;
        config.devices_per_round = 48;
        config.edge_samples = 16;
        config.test_samples = 400;
        config.gibbs_sweeps = 40;
        config.novel_mode_round = 1;
        config.learner.em.max_outer_iterations = 6;
        config.learner.transfer_weight = 2.0;
        config.wire.version = edgesim::kWireV2;
        config.wire.quantized = true;
        config.wire.quantization_bits = 8;
        config.wire.delta = true;
        config.num_threads = num_threads;
        config.num_shards = num_shards;
        stats::Rng rng(4242);
        const edgesim::EngineReport report = edgesim::run_lifecycle(config, rng);

        obs::JsonValue::Array rounds_json;
        for (const auto& round : report.rounds) {
            obs::JsonValue::Object row;
            row.emplace("round", static_cast<std::uint64_t>(round.round));
            row.emplace("mean_accuracy_bits", hex_bits(round.mean_accuracy));
            row.emplace("novel_accuracy_bits", hex_bits(round.novel_mode_accuracy));
            row.emplace("prior_components",
                        static_cast<std::uint64_t>(round.prior_components));
            row.emplace("rebroadcast", round.rebroadcast);
            row.emplace("broadcast_bytes",
                        static_cast<std::uint64_t>(round.broadcast_bytes));
            rounds_json.emplace_back(std::move(row));
        }
        const health::SloReport slo = health::evaluate(
            health::Slo::fleet_with_bandwidth(/*warn=*/64.0, /*fail=*/4096.0),
            report.telemetry);
        obs::JsonValue::Object doc;
        doc.emplace("rounds", std::move(rounds_json));
        doc.emplace("total_broadcast_bytes",
                    static_cast<std::uint64_t>(report.total_broadcast_bytes));
        doc.emplace("total_upload_bytes",
                    static_cast<std::uint64_t>(report.total_upload_bytes));
        doc.emplace("telemetry",
                    report.telemetry.to_json(&slo, /*include_partition=*/false));
        return obs::JsonValue(std::move(doc)).dump(2);
    };
    const std::string actual = wire_v2_json(2, 8);
    for (const std::size_t threads : {1u, 4u, 8u}) {
        EXPECT_EQ(wire_v2_json(threads, 8), actual) << "threads=" << threads;
    }
    for (const std::size_t shards : {1u, 3u, 40u}) {
        EXPECT_EQ(wire_v2_json(2, shards), actual) << "shards=" << shards;
    }
    // The scenario must exercise the compressed-rebroadcast path and the
    // bandwidth SLO it feeds.
    EXPECT_NE(actual.find("\"broadcast_bytes_per_device\""), std::string::npos);
    check_text_against_golden("lifecycle_wire_v2_small", actual);
}

// The lifecycle at the default wire (v1): every serviced upload goes
// through the per-upload collapsed Gibbs refresh
// (DpmmGibbs::add_observation), a novel device type appears mid-run, and
// every device solves EM-DRO against the broadcast prior. This pins the
// paper path's report end to end — accuracies as raw f64 bit patterns,
// rebroadcast decisions, prior sizes, bytes and per-round outcomes. The
// same bytes must come back at any thread or shard count before the
// golden is compared.
TEST_F(GoldenMetrics, LifecycleBatchSmall) {
    const auto lifecycle_json = [](std::size_t num_threads, std::size_t num_shards) {
        edgesim::LifecycleConfig config;
        config.feature_dim = 5;
        config.initial_modes = 2;
        config.initial_contributors = 12;
        config.contributor_samples = 200;
        config.rounds = 5;
        config.devices_per_round = 16;
        config.edge_samples = 16;
        config.test_samples = 400;
        config.gibbs_sweeps = 40;
        config.novel_mode_round = 2;
        config.learner.em.max_outer_iterations = 6;
        config.learner.transfer_weight = 2.0;
        config.num_threads = num_threads;
        config.num_shards = num_shards;
        stats::Rng rng(4244);
        const edgesim::EngineReport report = edgesim::run_lifecycle(config, rng);

        const obs::RoundSeries& series = report.telemetry.series;
        const std::size_t upload_bytes_col = series.column_index("upload_bytes");
        obs::JsonValue::Array rounds_json;
        for (std::size_t r = 0; r < report.rounds.size(); ++r) {
            const edgesim::EngineRoundStats& round = report.rounds[r];
            std::map<std::string, std::uint64_t> reason_counts;
            for (const edgesim::DegradedReason reason : round.device_degraded) {
                ++reason_counts[test_support::degraded_reason_name(reason)];
            }
            obs::JsonValue::Object reasons_json;
            for (const auto& [name, count] : reason_counts) reasons_json.emplace(name, count);
            obs::JsonValue::Object row;
            row.emplace("round", static_cast<std::uint64_t>(round.round));
            row.emplace("mean_accuracy_bits", hex_bits(round.mean_accuracy));
            row.emplace("novel_accuracy_bits", hex_bits(round.novel_mode_accuracy));
            row.emplace("rebroadcast", round.rebroadcast);
            row.emplace("prior_components",
                        static_cast<std::uint64_t>(round.prior_components));
            row.emplace("broadcast_bytes",
                        static_cast<std::uint64_t>(round.broadcast_bytes));
            row.emplace("upload_bytes", series.at(r, upload_bytes_col));
            row.emplace("degraded", std::move(reasons_json));
            rounds_json.emplace_back(std::move(row));
        }
        obs::JsonValue::Object doc;
        doc.emplace("rounds", std::move(rounds_json));
        doc.emplace("total_broadcast_bytes",
                    static_cast<std::uint64_t>(report.total_broadcast_bytes));
        doc.emplace("total_upload_bytes",
                    static_cast<std::uint64_t>(report.total_upload_bytes));
        return obs::JsonValue(std::move(doc)).dump(2);
    };
    const std::string actual = lifecycle_json(1, 1);
    EXPECT_EQ(lifecycle_json(4, 1), actual) << "threads=4";
    EXPECT_EQ(lifecycle_json(1, 3), actual) << "shards=3";
    // Beyond the bootstrap push in round 0, the refresh must move the prior
    // far enough to rebroadcast at least once.
    std::size_t rebroadcasts = 0;
    for (std::size_t at = actual.find("\"rebroadcast\": true"); at != std::string::npos;
         at = actual.find("\"rebroadcast\": true", at + 1)) {
        ++rebroadcasts;
    }
    EXPECT_GE(rebroadcasts, 2u);
    check_text_against_golden("lifecycle_batch_small", actual);
}

// One EM-DRO solve against the oracle prior: pins the EM/DP/DRO/optimizer
// counters without the fleet machinery on top.
TEST_F(GoldenMetrics, EmSolveSmall) {
    const test_support::PopulationFixture f =
        test_support::make_population_fixture(/*seed=*/7, /*n_train=*/16, /*n_test=*/50);
    const auto loss = models::make_logistic_loss();
    const core::EmDroSolver solver(f.train, *loss, f.prior,
                                   dro::AmbiguitySet::wasserstein(0.1),
                                   /*transfer_weight=*/2.0);
    (void)solver.solve();
    check_against_golden("em_solve_small");
}

// The harness itself must fail loudly: a renamed counter shows up as a
// readable one-line diff, not a wall of JSON.
TEST_F(GoldenMetrics, DiffMessageNamesTheFirstDivergentLine) {
    const std::string expected = "{\n  \"a\": 1,\n  \"b\": 2\n}";
    const std::string actual = "{\n  \"a\": 1,\n  \"renamed\": 2\n}";
    const std::string message = first_diff(expected, actual);
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find("- "), std::string::npos);
    EXPECT_NE(message.find("+ "), std::string::npos);
    EXPECT_NE(message.find("\"renamed\""), std::string::npos);
}

}  // namespace
}  // namespace drel
