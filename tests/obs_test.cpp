// Unit tests for the observability layer (src/obs/): log-linear histogram
// bucket math and quantiles, and the per-thread metrics registry (counter
// names, folding on thread exit, trace-ring wraparound, dump format).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace cpq::obs {
namespace {

// --- histogram bucket math ------------------------------------------------

TEST(LogHistogramTest, BucketBoundsContainValue) {
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> values = {0, 1, 31, 32, 33, 63, 64, 65,
                                       1000, 123456789, ~std::uint64_t{0}};
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng() >> (rng() % 64));
  }
  for (const std::uint64_t v : values) {
    const unsigned index = LogHistogram::bucket_index(v);
    ASSERT_LT(index, LogHistogram::kBuckets);
    EXPECT_LE(LogHistogram::bucket_low(index), v);
    EXPECT_GE(LogHistogram::bucket_high(index), v);
  }
}

TEST(LogHistogramTest, BucketsArePartition) {
  // Consecutive buckets tile the value range with no gap or overlap.
  for (unsigned i = 0; i + 1 < LogHistogram::kBuckets; ++i) {
    ASSERT_EQ(LogHistogram::bucket_high(i) + 1, LogHistogram::bucket_low(i + 1))
        << "between buckets " << i << " and " << i + 1;
  }
  EXPECT_EQ(LogHistogram::bucket_low(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_high(LogHistogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST(LogHistogramTest, RelativeErrorBounded) {
  // The representative of any value's bucket is within one sub-bucket width,
  // i.e. a relative error of 2^-kSubBucketBits (~3%).
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = (rng() >> (rng() % 32)) + 1;
    const unsigned index = LogHistogram::bucket_index(v);
    const double rep = static_cast<double>(LogHistogram::representative(index));
    const double err =
        std::abs(rep - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LE(err, 1.0 / LogHistogram::kSubBuckets)
        << "value " << v << " bucket " << index;
  }
}

// --- recording and quantiles ----------------------------------------------

TEST(LogHistogramTest, EmptyHistogram) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LogHistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets land in unit-width buckets, so quantiles are
  // exact nearest-rank there.
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min_value(), 1u);
  EXPECT_EQ(h.max_value(), 10u);
  EXPECT_EQ(h.quantile(0.50), 5u);   // ceil(0.5 * 10) = rank 5
  EXPECT_EQ(h.quantile(0.90), 9u);
  EXPECT_EQ(h.quantile(0.99), 10u);  // ceil(.99*10) = 10 -> exact max
  EXPECT_EQ(h.quantile(1.0), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(LogHistogramTest, QuantileWithinBucketError) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = std::ceil(q * 100000.0);
    const double got = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(got, exact, exact / LogHistogram::kSubBuckets + 1.0)
        << "q=" << q;
  }
  EXPECT_EQ(h.quantile(1.0), 100000u);
}

TEST(LogHistogramTest, QuantileClampedToObservedRange) {
  // A single huge sample: every quantile is that exact value, not a bucket
  // midpoint above or below it.
  LogHistogram h;
  h.record(123456789);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 123456789u) << "q=" << q;
  }
}

TEST(LogHistogramTest, MergeMatchesCombinedRecording) {
  LogHistogram a, b, combined;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() % 1000000;
    ((i % 2) ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min_value(), combined.min_value());
  EXPECT_EQ(a.max_value(), combined.max_value());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogramTest, AddScaledConvertsDomain) {
  // Tick-domain recording folded at 2.5 ns/tick: count is preserved, the
  // scaled min/max are exact, quantiles land within bucket error.
  LogHistogram ticks;
  for (std::uint64_t v = 100; v <= 1000; v += 10) ticks.record(v);
  LogHistogram ns;
  ns.add_scaled(ticks, 2.5);
  EXPECT_EQ(ns.count(), ticks.count());
  EXPECT_EQ(ns.min_value(), 250u);
  EXPECT_EQ(ns.max_value(), 2500u);
  const double p50 = static_cast<double>(ns.quantile(0.5));
  const double expect = 2.5 * static_cast<double>(ticks.quantile(0.5));
  EXPECT_NEAR(p50, expect, 2.0 * expect / LogHistogram::kSubBuckets + 1.0);
}

TEST(LogHistogramTest, ClearResets) {
  LogHistogram h;
  h.record(42);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
}

TEST(LogHistogramTest, PrintSummaryLine) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  h.print(stream, "test_hist");
  std::fclose(stream);
  const std::string text(buffer, size);
  std::free(buffer);
  EXPECT_NE(text.find("test_hist: n=10"), std::string::npos) << text;
  EXPECT_NE(text.find("p50=5"), std::string::npos) << text;
  EXPECT_NE(text.find("max=10"), std::string::npos) << text;
}

// --- metrics registry -----------------------------------------------------

TEST(MetricsRegistryTest, CountAndReset) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  count(Counter::kCasRetry);
  count(Counter::kCasRetry, 4);
  count(Counter::kEbrFree, 10);
  EXPECT_EQ(registry.total(Counter::kCasRetry), 5u);
  EXPECT_EQ(registry.total(Counter::kEbrFree), 10u);
  EXPECT_EQ(registry.total(Counter::kLockRetry), 0u);
  registry.reset();
  EXPECT_EQ(registry.total(Counter::kCasRetry), 0u);
}

TEST(MetricsRegistryTest, ThreadExitFoldsIntoRetiredTotals) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  // Sequential short-lived workers: each must claim a slice, record, and
  // fold into the retired accumulator on exit; nothing may be lost even
  // though the slice slots are recycled far more times than kMaxSlices.
  constexpr unsigned kThreads = MetricsRegistry::kMaxSlices + 44;
  for (unsigned t = 0; t < kThreads; ++t) {
    std::thread([] { count(Counter::kLockRetry, 2); }).join();
  }
  EXPECT_EQ(registry.total(Counter::kLockRetry), 2u * kThreads);
  registry.reset();
}

TEST(MetricsRegistryTest, ConcurrentCountersSumExactly) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kThreads; ++t) {
    team.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        count(Counter::kBackoffPause);
      }
    });
  }
  for (auto& thread : team) thread.join();
  EXPECT_EQ(registry.total(Counter::kBackoffPause), kThreads * kPerThread);
  registry.reset();
}

TEST(MetricsRegistryTest, DumpShowsCountersAndTraceRing) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  count(Counter::kCasRetry, 3);
  // Overfill the ring to exercise wraparound: only the newest kTraceCapacity
  // events survive, newest first.
  const unsigned total = MetricsRegistry::kTraceCapacity + 5;
  for (unsigned i = 1; i <= total; ++i) {
    trace(TraceOp::kInsert, 1000 + i);
  }
  trace(TraceOp::kDeleteHit, 9999);

  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  registry.dump(stream);
  std::fclose(stream);
  const std::string text(buffer, size);
  std::free(buffer);

  EXPECT_NE(text.find("[cpq-metrics] counters:"), std::string::npos);
  EXPECT_NE(text.find("cas_retry=3"), std::string::npos) << text;
  EXPECT_NE(text.find("sampled ops, newest first"), std::string::npos) << text;
  // Newest event leads the ring dump.
  const auto newest = text.find("delete_hit");
  const auto older = text.find("insert");
  ASSERT_NE(newest, std::string::npos) << text;
  ASSERT_NE(older, std::string::npos) << text;
  EXPECT_LT(newest, older) << text;
  EXPECT_NE(text.find("key=9999"), std::string::npos) << text;
  // The oldest overwritten events are gone.
  EXPECT_EQ(text.find("key=1001"), std::string::npos) << text;
  registry.reset();
}

TEST(MetricsRegistryTest, CounterNamesCoverEveryCounter) {
  for (unsigned c = 0; c < kNumCounters; ++c) {
    EXPECT_STRNE(counter_name(c), "?") << c;
  }
  EXPECT_STREQ(counter_name(kNumCounters), "?");
}

TEST(MetricsRegistryTest, CounterNamesMatchTheirEnumerators) {
  // The name table is positional: an enumerator added or removed without
  // its name shifts every later name onto the wrong counter (and leaves a
  // null at the end), which the exported counter_* records would carry.
  const std::pair<Counter, const char*> expected[] = {
      {Counter::kCasRetry, "cas_retry"},
      {Counter::kLockRetry, "lock_retry"},
      {Counter::kBackoffPause, "backoff_pause"},
      {Counter::kEbrRetire, "ebr_retire"},
      {Counter::kEbrFree, "ebr_free"},
      {Counter::kEbrAdvance, "ebr_advance"},
      {Counter::kServiceFlush, "service_flush"},
      {Counter::kServiceRefill, "service_refill"},
      {Counter::kServiceSteal, "service_steal"},
      {Counter::kServiceReject, "service_reject"},
      {Counter::kServiceShed, "service_shed"},
      {Counter::kServiceTierReject, "service_tier_reject"},
      {Counter::kServiceBreakerTrip, "service_breaker_trip"},
      {Counter::kServiceReroute, "service_reroute"},
  };
  ASSERT_EQ(std::size(expected), kNumCounters);
  for (const auto& [counter, name] : expected) {
    EXPECT_STREQ(counter_name(static_cast<unsigned>(counter)), name);
  }
}

TEST(MetricsRegistryTest, CellOpsAccumulateAndReset) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  EXPECT_EQ(registry.cell_ops(), 0u);
  registry.add_cell_ops(1000);
  registry.add_cell_ops(234);
  EXPECT_EQ(registry.cell_ops(), 1234u);
  registry.reset();
  EXPECT_EQ(registry.cell_ops(), 0u);
}

TEST(MetricsRegistryTest, TraceRingSurvivesThreadExit) {
  // The end-of-run exporters (--dump-traces, --trace-out) read the rings
  // after every worker joined; the sampled tail must not die with the
  // recording thread.
  auto& registry = MetricsRegistry::global();
  registry.reset();
  std::thread([] { trace(TraceOp::kInsert, 777); }).join();
  unsigned found = 0;
  registry.visit_trace_events(
      [&](unsigned, std::uint8_t op, std::uint64_t key, std::uint64_t) {
        if (op == static_cast<std::uint8_t>(TraceOp::kInsert) && key == 777) {
          ++found;
        }
      });
  EXPECT_EQ(found, 1u);
  registry.reset();
}

TEST(MetricsRegistryTest, VisitTraceEventsYieldsOldestFirstAfterWrap) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  const unsigned total = MetricsRegistry::kTraceCapacity + 7;
  for (unsigned i = 1; i <= total; ++i) {
    trace(TraceOp::kInsert, i);
  }
  std::vector<std::uint64_t> keys;
  registry.visit_trace_events(
      [&](unsigned, std::uint8_t, std::uint64_t key, std::uint64_t) {
        keys.push_back(key);
      });
  ASSERT_EQ(keys.size(), MetricsRegistry::kTraceCapacity);
  // Only the newest kTraceCapacity events survive, in recording order.
  EXPECT_EQ(keys.front(), total - MetricsRegistry::kTraceCapacity + 1);
  EXPECT_EQ(keys.back(), total);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  registry.reset();
}

// --- Chrome trace export ----------------------------------------------------

TEST(ChromeTraceTest, EmptyRegistryYieldsValidEmptyDocument) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  const std::size_t events = write_chrome_trace(stream, registry);
  std::fclose(stream);
  const std::string text(buffer, size);
  std::free(buffer);
  EXPECT_EQ(events, 0u);
  EXPECT_NE(text.find("{\"traceEvents\":["), std::string::npos) << text;
  EXPECT_NE(text.find("]"), std::string::npos) << text;
}

TEST(ChromeTraceTest, ExportsInstantEventsAndThreadNames) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  trace(TraceOp::kInsert, 101);
  trace(TraceOp::kDeleteHit, 202);
  trace(TraceOp::kDeleteEmpty, 0);

  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  ASSERT_NE(stream, nullptr);
  const std::size_t events = write_chrome_trace(stream, registry);
  std::fclose(stream);
  const std::string text(buffer, size);
  std::free(buffer);
  registry.reset();

  EXPECT_EQ(events, 3u);
  // Lane metadata plus one instant event per sampled op, Perfetto-style.
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"s\":\"t\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\":\"insert\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\":\"delete_hit\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"key\":101"), std::string::npos) << text;
  // Rebased to the earliest event: the first instant is at ts 0.
  EXPECT_NE(text.find("\"ts\":0.000"), std::string::npos) << text;
}

TEST(ChromeTraceTest, CalibrationIsPositiveAndSane) {
  const double ns_per_tick = tsc_clock().ns_per_tick();
  EXPECT_GT(ns_per_tick, 0.0);
  // TSC frequencies live between ~0.5 GHz and ~6 GHz; steady_clock fallback
  // is exactly 1 ns/tick. Either way the factor is within [0.1, 10].
  EXPECT_GT(ns_per_tick, 0.1);
  EXPECT_LT(ns_per_tick, 10.0);
}

}  // namespace
}  // namespace cpq::obs
