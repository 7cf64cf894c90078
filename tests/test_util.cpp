#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "util/executor.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace drel {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
    const auto parts = util::split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
    const auto parts = util::split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
    const auto parts = util::split("hello", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, SplitEmptyString) {
    const auto parts = util::split("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(Strings, TrimBothEnds) {
    EXPECT_EQ(util::trim("  hello \t\n"), "hello");
    EXPECT_EQ(util::trim("hello"), "hello");
    EXPECT_EQ(util::trim("   "), "");
    EXPECT_EQ(util::trim(""), "");
}

TEST(Strings, ParseDoubleValid) {
    EXPECT_DOUBLE_EQ(util::parse_double("3.25"), 3.25);
    EXPECT_DOUBLE_EQ(util::parse_double(" -1e3 "), -1000.0);
    EXPECT_DOUBLE_EQ(util::parse_double("0"), 0.0);
}

TEST(Strings, ParseDoubleRejectsGarbage) {
    EXPECT_THROW(util::parse_double("abc"), std::invalid_argument);
    EXPECT_THROW(util::parse_double("1.5x"), std::invalid_argument);
    EXPECT_THROW(util::parse_double(""), std::invalid_argument);
}

TEST(Strings, StartsWith) {
    EXPECT_TRUE(util::starts_with("wasserstein", "wass"));
    EXPECT_FALSE(util::starts_with("kl", "wass"));
    EXPECT_TRUE(util::starts_with("x", ""));
}

// ------------------------------------------------------------------ table

TEST(Table, PrintAlignsColumns) {
    util::Table t({"method", "acc"});
    t.add_row({"local-erm", "0.71"});
    t.add_row({"em-dro", "0.84"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("method"), std::string::npos);
    EXPECT_NE(out.find("em-dro"), std::string::npos);
    EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
    util::Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
    EXPECT_THROW(util::Table({}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
    EXPECT_EQ(util::Table::fmt(0.123456, 3), "0.123");
    EXPECT_EQ(util::Table::fmt(2.0, 1), "2.0");
}

// -------------------------------------------------------------- stopwatch

TEST(Stopwatch, MeasuresElapsedTime) {
    util::Stopwatch watch;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
    EXPECT_GE(watch.elapsed_seconds(), 0.0);
    EXPECT_GE(watch.elapsed_millis(), watch.elapsed_seconds());  // ms >= s numerically
}

TEST(Stopwatch, ResetRestarts) {
    util::Stopwatch watch;
    watch.reset();
    EXPECT_LT(watch.elapsed_seconds(), 10.0);
}

// ---------------------------------------------------------------- logging

TEST(Logging, LevelFilterRoundTrip) {
    const auto original = util::log_level();
    util::set_log_level(util::LogLevel::kError);
    EXPECT_EQ(util::log_level(), util::LogLevel::kError);
    // Below-threshold line must be a no-op (no crash, no output assertion
    // needed — we only exercise the filter path).
    DREL_LOG_DEBUG("test") << "invisible";
    util::set_log_level(original);
}

TEST(Logging, StreamFormatsArbitraryTypes) {
    const auto original = util::log_level();
    util::set_log_level(util::LogLevel::kOff);
    DREL_LOG_ERROR("test") << "x=" << 42 << " y=" << 1.5;
    util::set_log_level(original);
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
    util::ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
    util::ThreadPool pool(2);
    auto future = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, RejectsZeroThreads) {
    EXPECT_THROW(util::ThreadPool pool(0), std::invalid_argument);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(1000, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackMatchesParallel) {
    std::vector<double> serial(500);
    std::vector<double> parallel(500);
    const auto body = [](std::size_t i) {
        return static_cast<double>(i) * 1.5 + static_cast<double>(i % 7);
    };
    util::parallel_for(500, 1, [&](std::size_t i) { serial[i] = body(i); });
    util::parallel_for(500, 6, [&](std::size_t i) { parallel[i] = body(i); });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, RethrowsBodyException) {
    EXPECT_THROW(util::parallel_for(10, 4,
                                    [](std::size_t i) {
                                        if (i == 5) throw std::logic_error("bad index");
                                    }),
                 std::logic_error);
}

TEST(ParallelFor, HandlesEmptyAndSingleton) {
    int calls = 0;
    util::parallel_for(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    util::parallel_for(1, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

// Regression for the old per-call-pool destruction-order race: a body that
// throws used to let ~ThreadPool join workers AFTER the loop's atomic
// counter and futures had been destroyed (stack-use-after-scope, visible
// under ASan/TSan). Repeat under a high runner count to give every
// interleaving a chance.
TEST(ParallelFor, ThrowingBodyUnderHighThreadCountIsLifetimeSafe) {
    for (int rep = 0; rep < 25; ++rep) {
        EXPECT_THROW(util::parallel_for(10000, 16,
                                        [](std::size_t i) {
                                            if (i == 37) throw std::logic_error("bad");
                                        }),
                     std::logic_error);
    }
}

TEST(ParallelFor, FirstExceptionCancelsRemainingIterations) {
    constexpr std::size_t kCount = 1000000;
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(util::parallel_for(kCount, 8,
                                    [&](std::size_t i) {
                                        if (i == 0) throw std::runtime_error("stop");
                                        executed.fetch_add(1, std::memory_order_relaxed);
                                    }),
                 std::runtime_error);
    // Cooperative cancellation: runners stop claiming once the failure flag
    // is up, so only a small prefix of the range can have executed.
    EXPECT_LT(executed.load(), kCount / 2);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock) {
    std::atomic<int> inner_calls{0};
    util::parallel_for(8, 4, [&](std::size_t) {
        util::parallel_for(100, 4, [&](std::size_t) {
            inner_calls.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_calls.load(), 800);
}

TEST(ParallelFor, ConcurrentCallersShareTheGlobalExecutor) {
    std::vector<std::thread> callers;
    std::vector<std::atomic<int>> counts(4);
    for (int c = 0; c < 4; ++c) {
        callers.emplace_back([&, c] {
            util::parallel_for(500, 4, [&](std::size_t) {
                counts[static_cast<std::size_t>(c)].fetch_add(1, std::memory_order_relaxed);
            });
        });
    }
    for (auto& t : callers) t.join();
    for (const auto& count : counts) EXPECT_EQ(count.load(), 500);
}

TEST(Executor, LocalInstanceRunsIndependentOfGlobal) {
    util::Executor executor(4);
    EXPECT_EQ(executor.max_threads(), 4u);
    std::atomic<int> counter{0};
    executor.parallel_for(257, 4, [&](std::size_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(counter.load(), 257);
}

TEST(Executor, SerialInstanceNeverSpawnsThreads) {
    util::Executor executor(1);
    const auto main_id = std::this_thread::get_id();
    executor.parallel_for(100, 8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), main_id);
    });
}

// ----------------------------------------------------- thread pool shutdown

TEST(ThreadPool, DrainPolicyRunsEverythingQueuedBeforeJoin) {
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    {
        util::ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
        }
    }  // destructor drains
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
    util::ThreadPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ManyProducersSubmitConcurrently) {
    util::ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::mutex futures_mutex;
    std::vector<std::future<void>> futures;
    std::vector<std::thread> producers;
    for (int p = 0; p < 8; ++p) {
        producers.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                auto f = pool.submit([&counter] { counter.fetch_add(1); });
                const std::lock_guard<std::mutex> lock(futures_mutex);
                futures.push_back(std::move(f));
            }
        });
    }
    for (auto& t : producers) t.join();
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 1600);
}

}  // namespace
}  // namespace drel
