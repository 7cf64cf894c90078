// Phase profiler suite: nesting, exception safety, the disabled-mode
// contract, the determinism contract — merged phase COUNTS must be
// byte-identical at any thread count (timings are segregated and never
// compared) — and the trace export: one well-formed, properly nested event
// per frame, from any thread. Mirrors the metrics-registry determinism
// tests in test_obs.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/executor.hpp"

namespace {

using namespace drel;
using obs::JsonValue;
using obs::Profiler;

/// Zeroed phase counts for one test body, and no buffered trace events on
/// exit, so cases sharing a process never observe each other's frames.
/// Each case turns the profiler on itself; nothing turns it off again, so
/// the disabled-mode case needs a process of its own (ctest runs every
/// case in one).
class ProfilerTest : public ::testing::Test {
 protected:
    void SetUp() override { Profiler::global().reset(); }
    void TearDown() override {
        Profiler::global().clear_trace();
        Profiler::global().reset();
    }
};

TEST_F(ProfilerTest, NestedScopesBuildPaths) {
    Profiler::global().enable();
    {
        DREL_PROFILE_SCOPE("outer");
        for (int i = 0; i < 3; ++i) {
            DREL_PROFILE_SCOPE("inner");
        }
        DREL_PROFILE_SCOPE("sibling");
    }
    {
        DREL_PROFILE_SCOPE("outer");
    }

    const auto phases = Profiler::global().merged_phases();
    ASSERT_TRUE(phases.count("outer"));
    ASSERT_TRUE(phases.count("outer/inner"));
    ASSERT_TRUE(phases.count("outer/sibling"));
    EXPECT_EQ(phases.at("outer").count, 2u);
    EXPECT_EQ(phases.at("outer/inner").count, 3u);
    EXPECT_EQ(phases.at("outer/sibling").count, 1u);
    // Inclusive wall time flows upward: outer covers its children.
    EXPECT_GE(phases.at("outer").wall_ns, phases.at("outer/inner").wall_ns);
}

TEST_F(ProfilerTest, ExceptionUnwindPopsFrames) {
    Profiler::global().enable();
    try {
        DREL_PROFILE_SCOPE("throwing");
        {
            DREL_PROFILE_SCOPE("deep");
            throw std::runtime_error("unwind");
        }
    } catch (const std::runtime_error&) {
    }
    // After the unwind the stack must be back at the root: a new frame is
    // a top-level path, not a child of the phase that threw.
    {
        DREL_PROFILE_SCOPE("after");
    }

    const auto phases = Profiler::global().merged_phases();
    EXPECT_EQ(phases.at("throwing").count, 1u);
    EXPECT_EQ(phases.at("throwing/deep").count, 1u);
    ASSERT_TRUE(phases.count("after"));
    EXPECT_FALSE(phases.count("throwing/after"));
}

TEST_F(ProfilerTest, DisabledModeRecordsNothing) {
    if (Profiler::global().enabled()) GTEST_SKIP() << "the profiler is on in this process";

    constexpr int kFrames = 200000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kFrames; ++i) {
        DREL_PROFILE_SCOPE("disabled.hot");
    }
    const double ns_per_frame =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
            .count() /
        kFrames;

    EXPECT_TRUE(Profiler::global().merged_phases().empty());
    // One relaxed load + untaken branch. The bound is deliberately loose
    // (sanitizer builds, noisy CI) — it exists to catch an accidental
    // clock read or lock on the disabled path, which costs 10-100x more.
    EXPECT_LT(ns_per_frame, 1000.0);
}

TEST_F(ProfilerTest, ResetZeroesCountsAndTimes) {
    Profiler::global().enable();
    {
        DREL_PROFILE_SCOPE("transient");
    }
    ASSERT_EQ(Profiler::global().merged_phases().at("transient").count, 1u);
    Profiler::global().reset();
    EXPECT_TRUE(Profiler::global().merged_phases().empty());
}

TEST_F(ProfilerTest, DeterministicJsonSchema) {
    Profiler::global().enable();
    {
        DREL_PROFILE_SCOPE("schema.phase");
    }
    const JsonValue doc = Profiler::global().deterministic_snapshot();
    EXPECT_EQ(doc.at("phases").at("schema.phase").as_uint(), 1u);

    const JsonValue full = JsonValue::parse(Profiler::global().json());
    EXPECT_EQ(full.at("schema_version").as_uint(), obs::kProfileSchemaVersion);
    EXPECT_EQ(full.at("counts").at("schema.phase").as_uint(), 1u);
    EXPECT_TRUE(full.as_object().count("counts"));
    EXPECT_TRUE(full.as_object().count("timing"));
    const JsonValue& timing = full.at("timing").at("schema.phase");
    EXPECT_TRUE(timing.at("wall_seconds").is_number());
    EXPECT_TRUE(timing.at("self_wall_seconds").is_number());
}

/// Deterministic fan-out workload: counts depend only on indices, never on
/// which thread ran an iteration.
std::string run_workload_and_snapshot(std::size_t num_threads) {
    Profiler::global().reset();
    {
        DREL_PROFILE_SCOPE("mt.region");
        util::Executor::global().parallel_for(24, num_threads, [](std::size_t i) {
            DREL_PROFILE_SCOPE("mt.item");
            if (i % 3 == 0) {
                DREL_PROFILE_SCOPE("mt.special");
            }
        });
    }
    std::string snapshot = Profiler::global().deterministic_snapshot().dump();
    Profiler::global().reset();
    return snapshot;
}

TEST_F(ProfilerTest, MergedCountsBitIdenticalAcrossThreadCounts) {
    Profiler::global().enable();
    const std::string serial = run_workload_and_snapshot(1);

    // Worker-thread frames must land under the submitting thread's phase
    // path (executor context propagation), not at the root.
    const JsonValue doc = JsonValue::parse(serial);
    EXPECT_EQ(doc.at("phases").at("mt.region").as_uint(), 1u);
    EXPECT_EQ(doc.at("phases").at("mt.region/mt.item").as_uint(), 24u);
    EXPECT_EQ(doc.at("phases").at("mt.region/mt.item/mt.special").as_uint(), 8u);

    for (const std::size_t threads : {2u, 4u, 8u}) {
        EXPECT_EQ(run_workload_and_snapshot(threads), serial)
            << "deterministic snapshot diverged at " << threads << " threads";
    }
}

TEST_F(ProfilerTest, ScopeEmitsValidTraceSpans) {
    Profiler& profiler = Profiler::global();
    profiler.clear_trace();
    profiler.enable_trace(::testing::TempDir() + "drel_profiler_trace.json");
    {
        DREL_PROFILE_SCOPE("tv.outer");
        DREL_PROFILE_SCOPE("tv.inner");
    }

    // The trace document must be parseable by the strict obs::json parser
    // and contain exactly the spans the profiler counted.
    const JsonValue doc = JsonValue::parse(profiler.trace_json());
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 2u);
    std::vector<std::string> names;
    for (const JsonValue& event : events) {
        names.push_back(event.at("name").as_string());
        EXPECT_EQ(event.at("ph").as_string(), "X");
        EXPECT_TRUE(event.at("ts").is_number());
        EXPECT_TRUE(event.at("dur").is_number());
    }
    EXPECT_NE(std::find(names.begin(), names.end(), "tv.outer"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "tv.inner"), names.end());

    // Nesting: the inner frame closes first, and its span lies inside the
    // outer one's.
    const JsonValue& inner = events[0];
    const JsonValue& outer = events[1];
    ASSERT_EQ(inner.at("name").as_string(), "tv.inner");
    ASSERT_EQ(outer.at("name").as_string(), "tv.outer");
    EXPECT_GE(inner.at("ts").as_uint(), outer.at("ts").as_uint());
    EXPECT_LE(inner.at("ts").as_uint() + inner.at("dur").as_uint(),
              outer.at("ts").as_uint() + outer.at("dur").as_uint());

    const auto phases = Profiler::global().merged_phases();
    EXPECT_EQ(phases.at("tv.outer").count, 1u);
    EXPECT_EQ(phases.at("tv.outer/tv.inner").count, 1u);
}

TEST_F(ProfilerTest, ParallelScopesEmitOneTraceEventPerFrame) {
    // Pool workers append to the shared trace buffer concurrently (the
    // sanitizer builds run this): every frame must land exactly once,
    // tagged with the slot of the thread that ran it.
    constexpr std::size_t kItems = 64;
    Profiler& profiler = Profiler::global();
    profiler.clear_trace();
    profiler.enable_trace(::testing::TempDir() + "drel_profiler_mt_trace.json");
    std::vector<std::uint64_t> item_slots(kItems);
    util::Executor executor(4);
    {
        DREL_PROFILE_SCOPE("mt.trace.outer");
        executor.parallel_for(kItems, 4, [&item_slots](std::size_t i) {
            DREL_PROFILE_SCOPE("mt.trace.item");
            item_slots[i] = obs::detail::thread_slot();
        });
    }

    const JsonValue doc = JsonValue::parse(profiler.trace_json());
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), kItems + 1);
    std::multiset<std::uint64_t> expected_slots(item_slots.begin(), item_slots.end());
    expected_slots.insert(obs::detail::thread_slot());  // the outer frame's thread
    std::multiset<std::uint64_t> slots;
    std::size_t outer_events = 0;
    for (const JsonValue& event : events) {
        slots.insert(event.at("tid").as_uint());
        if (event.at("name").as_string() == "mt.trace.outer") ++outer_events;
    }
    EXPECT_EQ(outer_events, 1u);
    EXPECT_EQ(slots, expected_slots);
    EXPECT_LE(std::set<std::uint64_t>(slots.begin(), slots.end()).size(), 4u);
    EXPECT_EQ(profiler.merged_phases().at("mt.trace.outer/mt.trace.item").count, kItems);
}

}  // namespace
