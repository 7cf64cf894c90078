// Schema validation for the bench metrics sidecar (obs::bench_sidecar_json,
// schema v3: counts plus an optional "health" fleet-telemetry block, no
// wall-clock section). The bench
// binaries themselves take minutes, so this test runs a small representative
// workload through the same library code and validates the exact document
// the benches write — for the sidecar names the experiment flow consumes
// (bench_fig7_fleet, bench_table2_methods, bench_fleet_scale).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "edgesim/server.hpp"
#include "edgesim/simulation.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "test_support.hpp"

namespace drel {
namespace {

/// Asserts the schema-v3 sidecar contract: required keys, value kinds, and
/// internal consistency (bucket array length); no wall-clock section.
void validate_sidecar(const obs::JsonValue& doc, const std::string& bench_name) {
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.at("schema_version").as_uint(), obs::kBenchSidecarSchemaVersion);
    EXPECT_EQ(doc.at("bench").as_string(), bench_name);

    const obs::JsonValue& deterministic = doc.at("deterministic");
    for (const char* section : {"counters", "gauges", "histograms"}) {
        ASSERT_TRUE(deterministic.as_object().count(section)) << section;
        ASSERT_TRUE(deterministic.at(section).is_object()) << section;
    }
    for (const auto& [name, value] : deterministic.at("counters").as_object()) {
        EXPECT_TRUE(value.is_uint()) << "counter " << name;
    }
    for (const auto& [name, value] : deterministic.at("gauges").as_object()) {
        EXPECT_TRUE(value.is_number()) << "gauge " << name;
    }
    for (const auto& [name, histogram] : deterministic.at("histograms").as_object()) {
        const auto& bounds = histogram.at("bounds").as_array();
        const auto& buckets = histogram.at("buckets").as_array();
        EXPECT_EQ(buckets.size(), bounds.size() + 1) << "histogram " << name;
        for (const auto& b : bounds) EXPECT_TRUE(b.is_uint()) << "histogram " << name;
        for (const auto& c : buckets) EXPECT_TRUE(c.is_uint()) << "histogram " << name;
        EXPECT_TRUE(histogram.at("count").is_uint()) << "histogram " << name;
        EXPECT_TRUE(histogram.at("sum").is_uint()) << "histogram " << name;
    }
    EXPECT_FALSE(doc.as_object().count("timing"));
}

void validate_histogram_snapshot(const obs::JsonValue& histogram, const char* what) {
    const auto& bounds = histogram.at("bounds").as_array();
    const auto& buckets = histogram.at("buckets").as_array();
    EXPECT_EQ(buckets.size(), bounds.size() + 1) << what;
    for (const auto& b : bounds) EXPECT_TRUE(b.is_uint()) << what;
    std::uint64_t bucket_total = 0;
    for (const auto& c : buckets) {
        ASSERT_TRUE(c.is_uint()) << what;
        bucket_total += c.as_uint();
    }
    EXPECT_EQ(bucket_total, histogram.at("count").as_uint()) << what;
}

/// Asserts the v2 "health" block contract: a rectangular integer series with
/// the fleet column names, well-formed histograms, an SLO report with a
/// known verdict per rule, and the partition sub-block.
void validate_health_block(const obs::JsonValue& health) {
    const obs::JsonValue& series = health.at("series");
    const auto& columns = series.at("columns").as_array();
    ASSERT_EQ(columns.size(), health::kFleetNumColumns);
    const obs::RoundSeries schema = health::make_fleet_series();
    for (std::size_t c = 0; c < columns.size(); ++c) {
        EXPECT_EQ(schema.column_index(columns[c].as_string()), c);
    }
    for (const auto& row : series.at("rows").as_array()) {
        ASSERT_EQ(row.as_array().size(), columns.size());
        for (const auto& value : row.as_array()) EXPECT_TRUE(value.is_uint());
    }

    validate_histogram_snapshot(health.at("upload_latency_ms"), "upload_latency_ms");

    const obs::JsonValue& slo = health.at("slo");
    const std::string verdict = slo.at("verdict").as_string();
    EXPECT_TRUE(verdict == "pass" || verdict == "warn" || verdict == "fail") << verdict;
    for (const auto& rule : slo.at("rules").as_array()) {
        EXPECT_TRUE(rule.at("name").is_string());
        EXPECT_TRUE(rule.at("observed").is_number());
        EXPECT_TRUE(rule.at("warn").is_number());
        EXPECT_TRUE(rule.at("fail").is_number());
        ASSERT_TRUE(rule.as_object().count("first_violating_round"));
    }

    const obs::JsonValue& partition = health.at("partition");
    for (const auto& n : partition.at("shard_devices").as_array()) {
        EXPECT_TRUE(n.is_uint());
    }
    validate_histogram_snapshot(partition.at("service_wait_ms"), "service_wait_ms");
}

class BenchSchema : public ::testing::Test {
 protected:
    static void SetUpTestSuite() {
        // One small end-to-end fleet run populates every metric family the
        // real benches touch (counters, gauges, histograms).
        obs::Registry::global().reset();
        edgesim::SimulationConfig config = test_support::small_fleet_config();
        config.num_threads = 2;
        stats::Rng rng(99);
        (void)edgesim::run_fleet_simulation(config, rng);
    }

    void SetUp() override {
        if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled (DREL_METRICS=0)";
    }
};

TEST_F(BenchSchema, Fig7FleetSidecarMatchesSchema) {
    const obs::JsonValue doc = obs::bench_sidecar_json("bench_fig7_fleet");
    validate_sidecar(doc, "bench_fig7_fleet");
    // A fleet workload must surface the headline counters and gauges the
    // downstream tooling keys on.
    const obs::JsonValue& deterministic = doc.at("deterministic");
    EXPECT_TRUE(deterministic.at("counters").as_object().count("fleet.devices_trained"));
    EXPECT_TRUE(deterministic.at("counters").as_object().count("em.solve_calls"));
    EXPECT_TRUE(deterministic.at("gauges").as_object().count("fleet.prior_components"));
}

TEST_F(BenchSchema, Table2MethodsSidecarMatchesSchema) {
    const obs::JsonValue doc = obs::bench_sidecar_json("bench_table2_methods");
    validate_sidecar(doc, "bench_table2_methods");
}

TEST_F(BenchSchema, Fig15ChaosSidecarSurfacesFaultCounters) {
    // A chaos workload must emit the fault.* families the chaos bench's
    // sidecar is keyed on, in the same schema as every other bench.
    edgesim::SimulationConfig config = test_support::small_fleet_config();
    config.run_ensemble = false;
    config.faults = edgesim::FaultConfig::uniform(1.0);
    stats::Rng rng(100);
    (void)edgesim::run_fleet_simulation(config, rng);
    const obs::JsonValue doc = obs::bench_sidecar_json("bench_fig15_chaos");
    validate_sidecar(doc, "bench_fig15_chaos");
    const obs::JsonValue& counters = doc.at("deterministic").at("counters");
    EXPECT_TRUE(counters.as_object().count("fault.injected.crash"));
    EXPECT_TRUE(counters.as_object().count("fault.degraded.crashed"));
}

TEST_F(BenchSchema, FleetScaleSidecarCarriesValidHealthBlock) {
    // The same path bench_fleet_scale uses: run the sharded engine, attach
    // the telemetry + SLO report as the sidecar's v2 health block.
    edgesim::ScaleFleetConfig config;
    config.devices_per_round = 200;
    config.rounds = 3;
    config.num_shards = 4;
    config.num_threads = 2;
    config.faults = edgesim::FaultConfig::uniform(0.1);
    stats::Rng rng(2100);
    const edgesim::ScaleFleetReport report = edgesim::run_scale_fleet(config, rng);

    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), report.engine.telemetry);
    const obs::JsonValue health_json = report.engine.telemetry.to_json(&slo);
    const obs::JsonValue doc = obs::bench_sidecar_json("bench_fleet_scale", &health_json);
    validate_sidecar(doc, "bench_fleet_scale");
    ASSERT_TRUE(doc.as_object().count("health"));
    validate_health_block(doc.at("health"));
    EXPECT_EQ(doc.at("health").at("series").at("rows").as_array().size(), config.rounds);
    // Survives a serialize/parse round trip like the rest of the document.
    const obs::JsonValue reparsed = obs::JsonValue::parse(doc.dump(2));
    EXPECT_EQ(reparsed.dump(0), doc.dump(0));
}

TEST_F(BenchSchema, SidecarSurvivesSerializeParseRoundTrip) {
    const obs::JsonValue doc = obs::bench_sidecar_json("bench_fig7_fleet");
    const obs::JsonValue reparsed = obs::JsonValue::parse(doc.dump(2));
    EXPECT_EQ(reparsed.dump(0), doc.dump(0));
    validate_sidecar(reparsed, "bench_fig7_fleet");
}

TEST_F(BenchSchema, WriteBenchSidecarProducesValidFile) {
    const std::string path = ::testing::TempDir() + "bench_schema_sidecar.json";
    ASSERT_TRUE(obs::write_bench_sidecar("bench_fig7_fleet", path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    validate_sidecar(obs::JsonValue::parse(buffer.str()), "bench_fig7_fleet");
    std::remove(path.c_str());
    // Unwritable destinations fail soft (warn + false), never throw: a
    // metrics problem must not kill a finished bench run.
    EXPECT_FALSE(obs::write_bench_sidecar("bench_fig7_fleet",
                                          "/nonexistent-dir/sidecar.json"));
}

}  // namespace
}  // namespace drel
