// Unit tests for the observability layer: the JSON module, the sharded
// metrics registry (determinism contract included), and the profiler's
// trace export. The end-to-end golden/diff coverage lives in
// test_golden_metrics.cpp; cross-thread-count equality of real workloads in
// test_concurrency.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"

namespace drel::obs {
namespace {

// -------------------------------------------------------------------- json

TEST(Json, DumpSortsObjectKeysDeterministically) {
    JsonValue::Object object;
    object["zeta"] = std::uint64_t{1};
    object["alpha"] = std::uint64_t{2};
    object["mid"] = std::uint64_t{3};
    const JsonValue doc{object};
    EXPECT_EQ(doc.dump(0), R"({"alpha":2,"mid":3,"zeta":1})");
}

TEST(Json, UintValuesRoundTripExactly) {
    const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
    JsonValue::Object object;
    object["count"] = big;
    const std::string text = JsonValue(object).dump(0);
    EXPECT_NE(text.find("18446744073709551615"), std::string::npos);
    const JsonValue parsed = JsonValue::parse(text);
    EXPECT_TRUE(parsed.at("count").is_uint());
    EXPECT_EQ(parsed.at("count").as_uint(), big);
}

TEST(Json, DoubleFormattingIsIntegralWhenPossible) {
    EXPECT_EQ(format_json_double(12.0), "12");
    EXPECT_EQ(format_json_double(-3.0), "-3");
    const std::string text = format_json_double(0.1);
    EXPECT_DOUBLE_EQ(std::stod(text), 0.1);
    EXPECT_THROW(format_json_double(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(Json, ParseRoundTripsNestedDocument) {
    const std::string text =
        R"({"array":[1,2.5,"three",true,null],"nested":{"k":"v"}})";
    const JsonValue doc = JsonValue::parse(text);
    ASSERT_TRUE(doc.is_object());
    const auto& array = doc.at("array").as_array();
    ASSERT_EQ(array.size(), 5u);
    EXPECT_EQ(array[0].as_uint(), 1u);
    EXPECT_DOUBLE_EQ(array[1].as_number(), 2.5);
    EXPECT_EQ(array[2].as_string(), "three");
    EXPECT_TRUE(array[3].as_bool());
    EXPECT_TRUE(array[4].is_null());
    EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
    EXPECT_EQ(JsonValue::parse(doc.dump(2)).dump(0), doc.dump(0));
    // The smallest double the writer can emit, a subnormal, reads back.
    const double tiny = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(JsonValue::parse(JsonValue(tiny).dump(0)).as_number(), tiny);
}

TEST(Json, ParserRejectsMalformedInput) {
    EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("[1,]"), std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("nul"), std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), std::invalid_argument);
    // Numbers follow JSON's grammar exactly; no prefix of a malformed token
    // is accepted.
    for (const char* bad : {"1.2.3", "1e", "1-2", "1..2", "2-", "+1", "01", ".5", "[1.]",
                            "{\"a\": 1.2.3}", "-", "1e+"}) {
        EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument) << bad;
    }
    EXPECT_THROW(JsonValue::parse("1e999"), std::invalid_argument);  // overflows a double
    EXPECT_EQ(JsonValue::parse("0").as_uint(), 0u);
    EXPECT_EQ(JsonValue::parse("-0.5e-3").as_number(), -0.5e-3);
    EXPECT_EQ(JsonValue::parse("1E+2").as_number(), 100.0);
}

TEST(Json, AccessorsThrowOnKindMismatch) {
    const JsonValue v{std::uint64_t{7}};
    EXPECT_THROW(v.as_string(), std::invalid_argument);
    EXPECT_THROW(v.as_object(), std::invalid_argument);
    EXPECT_THROW(v.at("missing"), std::invalid_argument);
    JsonValue::Object object;
    object["present"] = true;
    const JsonValue doc{object};
    EXPECT_TRUE(doc.as_object().count("present"));
    EXPECT_FALSE(doc.as_object().count("absent"));
    EXPECT_THROW(doc.at("absent"), std::invalid_argument);
}

// ----------------------------------------------------------------- metrics

TEST(MetricsDeterminism, CounterAggregatesExactlyAcrossThreads) {
    const ScopedMetricsEnabledForTesting enabled(true);
    Counter counter;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(counter.total(), kThreads * kPerThread);
    counter.reset();
    EXPECT_EQ(counter.total(), 0u);
}

TEST(Metrics, HistogramBucketsAreUpperInclusive) {
    const ScopedMetricsEnabledForTesting enabled(true);
    Histogram histogram({2, 4, 8});
    for (const std::uint64_t v : {1ull, 2ull, 3ull, 4ull, 8ull, 9ull, 100ull}) {
        histogram.observe(v);
    }
    const std::vector<std::uint64_t> counts = histogram.bucket_counts();
    ASSERT_EQ(counts.size(), 4u);          // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);              // 1, 2
    EXPECT_EQ(counts[1], 2u);              // 3, 4
    EXPECT_EQ(counts[2], 1u);              // 8
    EXPECT_EQ(counts[3], 2u);              // 9, 100
    EXPECT_EQ(histogram.count(), 7u);
    EXPECT_EQ(histogram.sum(), 1 + 2 + 3 + 4 + 8 + 9 + 100u);

    // The bucket is found by a bit scan on bounds that double from 1 and by
    // a binary search otherwise: on every bound set it must be the first
    // bound at or above the value, as std::lower_bound finds it.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << 14); ++v) values.push_back(v);
    for (int k = 14; k < 64; ++k) {
        const std::uint64_t power = std::uint64_t{1} << k;
        for (const std::uint64_t v : {power - 1, power, power + 1}) values.push_back(v);
    }
    for (const std::uint64_t v : {kMax - 1, kMax}) values.push_back(v);
    const std::vector<std::vector<std::uint64_t>> bound_sets = {
        log_spaced_bounds(1, std::uint64_t{1} << 20),
        log_spaced_bounds(1, kMax),
        {1, 2, 4, 8, 16, 32, 64},
        {2, 4, 8},
        {3, 10, 100},
        {1, 3, 4, 16},
        {1, 2, 4, 7, kMax},
        {},
    };
    for (const std::vector<std::uint64_t>& bounds : bound_sets) {
        HistogramSnapshot snapshot{bounds, std::vector<std::uint64_t>(bounds.size() + 1), 0, 0};
        for (const std::uint64_t v : values) {
            const auto expected = static_cast<std::size_t>(
                std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
            const std::uint64_t before = snapshot.buckets[expected];
            snapshot.observe(v);
            ASSERT_EQ(snapshot.buckets[expected], before + 1)
                << "value " << v << " with " << bounds.size() << " bounds";
        }
        EXPECT_EQ(snapshot.count, values.size());
    }
}

TEST(Metrics, RegistryHandlesAreStableAndNamed) {
    Registry registry;
    Counter& a = registry.counter("test.counter");
    Counter& b = registry.counter("test.counter");
    EXPECT_EQ(&a, &b);
    Histogram& h = registry.histogram("test.histogram", {1, 2});
    EXPECT_EQ(&h, &registry.histogram("test.histogram", {1, 2}));
    EXPECT_THROW(registry.histogram("test.histogram", {1, 2, 3}), std::invalid_argument);
}

TEST(Metrics, SnapshotIncludesOnlyTouchedMetrics) {
    const ScopedMetricsEnabledForTesting enabled(true);
    Registry registry;
    registry.counter("touched");
    registry.counter("untouched");
    registry.gauge("gauge.untouched");
    registry.counter("touched").add(3);
    registry.gauge("gauge.touched").set(1.5);
    registry.histogram("hist.touched", {10}).observe(4);
    registry.histogram("hist.untouched", {10});

    const JsonValue snapshot = registry.deterministic_snapshot();
    const auto& counters = snapshot.at("counters").as_object();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters.at("touched").as_uint(), 3u);
    EXPECT_EQ(snapshot.at("gauges").as_object().size(), 1u);
    const auto& histograms = snapshot.at("histograms").as_object();
    ASSERT_EQ(histograms.size(), 1u);
    EXPECT_EQ(histograms.at("hist.touched").at("count").as_uint(), 1u);

    // After reset the snapshot is empty again: pure function of the run.
    registry.reset();
    const JsonValue cleared = registry.deterministic_snapshot();
    EXPECT_TRUE(cleared.at("counters").as_object().empty());
    EXPECT_TRUE(cleared.at("gauges").as_object().empty());
    EXPECT_TRUE(cleared.at("histograms").as_object().empty());
}

TEST(Metrics, HistogramQuantileBoundIsNearestRankBucketUpperBound) {
    const ScopedMetricsEnabledForTesting enabled(true);
    Histogram histogram({10, 20, 40});
    // 4 observations: buckets [<=10]=2, [<=20]=1, [<=40]=1.
    for (const std::uint64_t v : {1ull, 10ull, 15ull, 33ull}) histogram.observe(v);
    EXPECT_EQ(histogram.snapshot().quantile_bound(0.0), 10u);    // rank 1 -> first bucket
    EXPECT_EQ(histogram.snapshot().quantile_bound(0.5), 10u);    // rank 2
    EXPECT_EQ(histogram.snapshot().quantile_bound(0.75), 20u);   // rank 3
    EXPECT_EQ(histogram.snapshot().quantile_bound(1.0), 40u);    // rank 4
    EXPECT_THROW(histogram.snapshot().quantile_bound(1.5), std::invalid_argument);
    EXPECT_THROW(histogram.snapshot().quantile_bound(-0.1), std::invalid_argument);

    // Values past the last bound land in the overflow bucket, which has no
    // upper bound: the sentinel tells the caller the quantile is unbounded.
    histogram.observe(1000);
    histogram.observe(1000);
    EXPECT_EQ(histogram.snapshot().quantile_bound(1.0), kHistogramOverflowBound);
    EXPECT_EQ(histogram.snapshot().quantile_bound(0.5), 20u);    // rank 3 of 6

    Histogram empty({10, 20});
    EXPECT_EQ(empty.snapshot().quantile_bound(0.99), 0u);
}

TEST(Metrics, HistogramSnapshotCopiesStateAndRoundTripsJson) {
    const ScopedMetricsEnabledForTesting enabled(true);
    Histogram histogram({2, 4});
    for (const std::uint64_t v : {1ull, 3ull, 9ull}) histogram.observe(v);
    const HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.bounds, histogram.bounds());
    EXPECT_EQ(snap.buckets, histogram.bucket_counts());
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.sum, 13u);
    EXPECT_EQ(snap.quantile_bound(0.5), 4u);  // rank 2 of 3 -> the <= 4 bucket
    // The snapshot is a value: mutating the live histogram does not move it.
    histogram.observe(1);
    EXPECT_EQ(snap.count, 3u);
    const JsonValue json = snap.to_json();
    EXPECT_EQ(json.at("count").as_uint(), 3u);
    EXPECT_EQ(json.at("buckets").as_array().size(), 3u);
}

TEST(Metrics, HistogramMergeEqualsPerValueObserve) {
    const ScopedMetricsEnabledForTesting enabled(true);
    const std::vector<std::uint64_t> bounds = {2, 4, 8, 16};
    const std::vector<std::uint64_t> values = {0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 1000, 4, 2};
    Histogram observed(bounds);
    for (const std::uint64_t v : values) observed.observe(v);

    // Two slices tallied on their own, merged in order on top of one live
    // observation: the same state as observing every value.
    Histogram merged(bounds);
    merged.observe(values[0]);
    const HistogramSnapshot empty = Histogram(bounds).snapshot();
    HistogramSnapshot front = empty;
    HistogramSnapshot back = empty;
    for (std::size_t i = 1; i < values.size(); ++i) (i < 6 ? front : back).observe(values[i]);
    merged.merge(front);
    merged.merge(back);
    EXPECT_EQ(merged.snapshot(), observed.snapshot());
    EXPECT_THROW(merged.merge(Histogram({2, 4}).snapshot()), std::invalid_argument);

    // clear() keeps the bounds and zeroes the tally.
    front.clear();
    EXPECT_EQ(front, empty);

    // DREL_METRICS=0: the bulk merge records nothing, like observe().
    {
        const ScopedMetricsEnabledForTesting disabled(false);
        merged.merge(back);
        Histogram off(bounds);
        off.merge(back);
        EXPECT_EQ(off.count(), 0u);
        EXPECT_EQ(off.sum(), 0u);
    }
    EXPECT_EQ(merged.snapshot(), observed.snapshot());
}

// -------------------------------------------------------------- timeseries

TEST(Timeseries, LogSpacedBoundsDoubleUpToAndPastHi) {
    EXPECT_EQ(log_spaced_bounds(1, 8), (std::vector<std::uint64_t>{1, 2, 4, 8}));
    EXPECT_EQ(log_spaced_bounds(4, 30), (std::vector<std::uint64_t>{4, 8, 16, 32}));
    EXPECT_EQ(log_spaced_bounds(5, 5), (std::vector<std::uint64_t>{5}));
    EXPECT_THROW(log_spaced_bounds(0, 8), std::invalid_argument);
    EXPECT_THROW(log_spaced_bounds(8, 4), std::invalid_argument);
}

namespace series_test {
constexpr const char* kColumns[] = {"round", "events", "bytes"};
}

TEST(Timeseries, RoundSeriesStoresFixedSchemaRows) {
    const ScopedMetricsEnabledForTesting enabled(true);
    RoundSeries series(series_test::kColumns, 3);
    EXPECT_EQ(series.num_columns(), 3u);
    EXPECT_EQ(series.num_rows(), 0u);
    series.append_row({0, 5, 100});
    series.append_row({1, 7, 50});
    ASSERT_EQ(series.num_rows(), 2u);
    EXPECT_EQ(series.at(1, 2), 50u);
    EXPECT_EQ(series.column_index("bytes"), 2u);
    EXPECT_EQ(series.column_index("events"), 1u);
    EXPECT_EQ(series.column_max(2), 100u);
    EXPECT_THROW(series.column_index("missing"), std::invalid_argument);
    EXPECT_THROW(series.at(2, 0), std::out_of_range);

    const JsonValue json = series.to_json();
    EXPECT_EQ(json.dump(0),
              R"({"columns":["round","events","bytes"],"rows":[[0,5,100],[1,7,50]]})");
}

TEST(Timeseries, RoundSeriesRejectsBadRowsAndEmptySchema) {
    const ScopedMetricsEnabledForTesting enabled(true);
    RoundSeries series(series_test::kColumns, 3);
    EXPECT_THROW(series.append_row({1, 2}), std::invalid_argument);
    EXPECT_THROW(series.append_row({1, 2, 3, 4}), std::invalid_argument);
    RoundSeries empty;
    EXPECT_THROW(empty.append_row({}), std::invalid_argument);
    EXPECT_EQ(empty.num_rows(), 0u);
}

TEST(Timeseries, FlightRecorderKeepsTheLastNEventsInOrder) {
    const ScopedMetricsEnabledForTesting enabled(true);
    FlightRecorder recorder(4);
    EXPECT_FALSE(recorder.buffer_allocated());
    for (std::uint32_t i = 0; i < 10; ++i) {
        recorder.record(i, static_cast<double>(i) * 0.5, "round_start", i % 3, i);
    }
    EXPECT_TRUE(recorder.buffer_allocated());
    EXPECT_EQ(recorder.size(), 4u);
    EXPECT_EQ(recorder.total_recorded(), 10u);
    const std::vector<FlightEvent> events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 6u + i);  // oldest retained first
        EXPECT_EQ(events[i].round, 6u + i);
    }

    const JsonValue json = recorder.to_json();
    EXPECT_EQ(json.at("capacity").as_uint(), 4u);
    EXPECT_EQ(json.at("total_recorded").as_uint(), 10u);
    ASSERT_EQ(json.at("events").as_array().size(), 4u);
    EXPECT_EQ(json.at("events").as_array()[0].at("kind").as_string(), "round_start");

    const std::string path = ::testing::TempDir() + "drel_flight_recorder_test.json";
    ASSERT_TRUE(recorder.dump(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(JsonValue::parse(buffer.str()).at("total_recorded").as_uint(), 10u);
    std::remove(path.c_str());
    EXPECT_FALSE(recorder.dump("/nonexistent-dir/flight.json"));

    EXPECT_THROW(FlightRecorder(0), std::invalid_argument);
}

TEST(Timeseries, DisabledMetricsRecordNothingAndAllocateNothing) {
    // The DREL_METRICS=0 fast path, forced in-process: every recording site
    // early-returns like Counter::add, leaving zero observable state — and
    // the flight recorder's ring is never even allocated.
    ScopedMetricsEnabledForTesting disabled(false);
    ASSERT_FALSE(metrics_enabled());

    RoundSeries series(series_test::kColumns, 3);
    series.append_row({1, 2, 3});
    EXPECT_EQ(series.num_rows(), 0u);

    FlightRecorder recorder(8);
    recorder.record(0, 0.0, "round_start", 0, 0);
    EXPECT_FALSE(recorder.buffer_allocated());
    EXPECT_EQ(recorder.total_recorded(), 0u);
    EXPECT_TRUE(recorder.events().empty());

    Histogram histogram({2, 4});
    histogram.observe(1);
    EXPECT_EQ(histogram.count(), 0u);

    Counter counter;
    counter.add(5);
    EXPECT_EQ(counter.total(), 0u);

    {
        // Scopes nest: the innermost override wins, then restores.
        ScopedMetricsEnabledForTesting enabled(true);
        ASSERT_TRUE(metrics_enabled());
        series.append_row({1, 2, 3});
        EXPECT_EQ(series.num_rows(), 1u);
    }
    ASSERT_FALSE(metrics_enabled());
    series.append_row({4, 5, 6});
    EXPECT_EQ(series.num_rows(), 1u);
}

// ------------------------------------------------------------------ health

TEST(Health, FleetSeriesSchemaIsAlignedWithColumnEnum) {
    const RoundSeries series = health::make_fleet_series();
    ASSERT_EQ(series.num_columns(), health::kFleetNumColumns);
    EXPECT_EQ(series.column_index("round"), health::idx(health::FleetCol::kRound));
    EXPECT_EQ(series.column_index("uploads_rejected"),
              health::idx(health::FleetCol::kUploadsRejected));
    EXPECT_EQ(series.column_index("latency_p99_ms"),
              health::idx(health::FleetCol::kLatencyP99Ms));
    EXPECT_EQ(series.column_index("queue_depth_at_close"),
              health::idx(health::FleetCol::kQueueDepthAtClose));
}

/// Builds a telemetry bundle with `rounds` series rows; `mutate(row, r)`
/// customizes each row before it is appended.
template <typename Fn>
health::FleetTelemetry make_telemetry(std::size_t rounds, Fn mutate) {
    health::FleetTelemetry telemetry;
    std::vector<std::uint64_t> row(health::kFleetNumColumns, 0);
    for (std::size_t r = 0; r < rounds; ++r) {
        row.assign(health::kFleetNumColumns, 0);
        row[health::idx(health::FleetCol::kRound)] = r;
        row[health::idx(health::FleetCol::kDevices)] = 100;
        row[health::idx(health::FleetCol::kUploadsAttempted)] = 100;
        mutate(row, r);
        telemetry.series.append_row(row);
    }
    return telemetry;
}

TEST(Health, RatioRuleFailsAndPinpointsFirstViolatingRound) {
    const ScopedMetricsEnabledForTesting enabled(true);
    // Rejections start at round 2 and cross the 5% fail line at round 3.
    const health::FleetTelemetry telemetry =
        make_telemetry(5, [](std::vector<std::uint64_t>& row, std::size_t r) {
            row[health::idx(health::FleetCol::kUploadsRejected)] =
                r >= 3 ? 20 : (r == 2 ? 1 : 0);
        });
    health::Slo slo;
    slo.round_rules.push_back(
        {"backpressure_rejection_rate", "uploads_rejected", "uploads_attempted", 0.01, 0.05});
    const health::SloReport report = health::evaluate(slo, telemetry);
    EXPECT_EQ(report.verdict, health::Verdict::kFail);
    ASSERT_EQ(report.rules.size(), 1u);
    EXPECT_DOUBLE_EQ(report.rules[0].observed, 0.2);
    EXPECT_EQ(report.rules[0].first_violating_round, 3u);  // fail round, not warn round

    // With a higher fail line the same series only warns — pinpointing the
    // first WARN round instead.
    slo.round_rules[0].fail = 0.5;
    const health::SloReport warned = health::evaluate(slo, telemetry);
    EXPECT_EQ(warned.verdict, health::Verdict::kWarn);
    EXPECT_EQ(warned.rules[0].first_violating_round, 2u);
}

TEST(Health, AbsoluteRuleAndVacuousPassSemantics) {
    const ScopedMetricsEnabledForTesting enabled(true);
    const health::FleetTelemetry telemetry =
        make_telemetry(3, [](std::vector<std::uint64_t>& row, std::size_t r) {
            row[health::idx(health::FleetCol::kQueueDepthAtClose)] = r == 1 ? 7 : 0;
        });
    health::Slo slo;
    slo.round_rules.push_back({"queue_depth_ceiling", "queue_depth_at_close", "", 4.0, 100.0});
    health::SloReport report = health::evaluate(slo, telemetry);
    EXPECT_EQ(report.verdict, health::Verdict::kWarn);
    EXPECT_DOUBLE_EQ(report.rules[0].observed, 7.0);
    EXPECT_EQ(report.rules[0].first_violating_round, 1u);

    // An empty series (e.g. a DREL_METRICS=0 run) passes vacuously.
    const health::FleetTelemetry empty;
    EXPECT_EQ(health::evaluate(slo, empty).verdict, health::Verdict::kPass);
    EXPECT_EQ(health::evaluate(health::Slo::fleet_default(), empty).verdict,
              health::Verdict::kPass);
}

TEST(Health, QuantileRuleJudgesLatencyHistogram) {
    const ScopedMetricsEnabledForTesting enabled(true);
    Histogram latency(log_spaced_bounds(1, 1 << 10));
    for (int i = 0; i < 99; ++i) latency.observe(100);  // -> bucket bound 128
    latency.observe(900);                               // tail -> bound 1024

    health::FleetTelemetry telemetry;
    telemetry.upload_latency_ms = latency.snapshot();
    health::Slo slo;
    slo.latency_rules.push_back({"upload_latency_p99", 0.99, 200, 2000});
    health::SloReport report = health::evaluate(slo, telemetry);
    EXPECT_EQ(report.verdict, health::Verdict::kPass);
    EXPECT_DOUBLE_EQ(report.rules[0].observed, 128.0);

    slo.latency_rules[0] = {"upload_latency_p999", 0.999, 64, 512};
    report = health::evaluate(slo, telemetry);
    EXPECT_EQ(report.verdict, health::Verdict::kFail);  // p99.9 -> 1024 >= 512
    EXPECT_DOUBLE_EQ(report.rules[0].observed, 1024.0);

    // A quantile landing in the overflow bucket is unbounded: always a fail.
    Histogram overflowing({4});
    overflowing.observe(1000);
    telemetry.upload_latency_ms = overflowing.snapshot();
    slo.latency_rules[0] = {"upload_latency_p99", 0.99, 1u << 30, 1u << 31};
    EXPECT_EQ(health::evaluate(slo, telemetry).verdict, health::Verdict::kFail);
}

TEST(Health, TelemetryJsonSeparatesPartitionScopedData) {
    health::FleetTelemetry telemetry =
        make_telemetry(2, [](std::vector<std::uint64_t>&, std::size_t) {});
    telemetry.shard_devices = {50, 50};
    const health::SloReport slo =
        health::evaluate(health::Slo::fleet_default(), telemetry);

    const JsonValue full = telemetry.to_json(&slo, /*include_partition=*/true);
    EXPECT_TRUE(full.as_object().count("partition"));
    EXPECT_EQ(full.at("partition").at("shard_devices").as_array().size(), 2u);
    EXPECT_EQ(full.at("slo").at("verdict").as_string(), "pass");

    // The byte-identity surface: no partition block, same everything else.
    const JsonValue main_only = telemetry.to_json(&slo, /*include_partition=*/false);
    EXPECT_FALSE(main_only.as_object().count("partition"));
    EXPECT_EQ(main_only.at("series").dump(0), full.at("series").dump(0));
}

// ------------------------------------------------------------------- trace

/// Events in the profiler's trace buffer.
std::size_t trace_event_count() {
    const JsonValue doc = JsonValue::parse(Profiler::global().trace_json());
    return doc.at("traceEvents").as_array().size();
}

TEST(Trace, SpansRecordOnlyWhenEnabled) {
    Profiler& profiler = Profiler::global();
    if (profiler.enabled()) GTEST_SKIP() << "needs a process whose profiler is still off";
    profiler.clear_trace();
    { DREL_PROFILE_SCOPE("disabled.span"); }
    EXPECT_EQ(trace_event_count(), 0u);

    const std::string path = ::testing::TempDir() + "drel_trace_test.json";
    profiler.enable_trace(path);
    {
        DREL_PROFILE_SCOPE("outer");
        DREL_PROFILE_SCOPE("inner");
    }
    const JsonValue doc = JsonValue::parse(profiler.trace_json());
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 2u);
    for (const JsonValue& event : events) {
        EXPECT_EQ(event.at("ph").as_string(), "X");
        EXPECT_EQ(event.at("cat").as_string(), "drel");
        EXPECT_TRUE(event.at("ts").is_number());
        EXPECT_TRUE(event.at("dur").is_number());
    }

    ASSERT_TRUE(profiler.flush_trace());
    EXPECT_EQ(trace_event_count(), 0u);  // flush clears the buffer
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(JsonValue::parse(buffer.str()).as_object().count("traceEvents"));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace drel::obs
