// Telemetry plane test suite (obs/timeseries.hpp + obs/slo.hpp +
// platform/clock.hpp): the shared TSC calibration, windowed histogram
// deltas, SLO grammar and burn-rate semantics, the sampled sojourn stamp
// table, and the TelemetryPlane itself — lifecycle, strict record
// monotonicity and delta conservation under multithreaded hammering, and
// the JSONL / Prometheus / flight-recorder exports. Runs under TSan in CI:
// the hammering tests double as race detectors for the hot-path feeds.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "platform/clock.hpp"
#include "platform/timing.hpp"

namespace cpq::obs {
namespace {

std::string drain(std::FILE* f) {
  std::string text;
  std::rewind(f);
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  return text;
}

// ---- platform/clock.hpp: the one shared calibration ----------------------

TEST(Clock, MonotonicNsAdvancesAndNeverRegresses) {
  const std::uint64_t a = monotonic_ns();
  std::uint64_t b = a;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = monotonic_ns();
    ASSERT_GE(now, b);
    b = now;
  }
  EXPECT_GE(monotonic_us(), a / 1000);
}

TEST(Clock, TscCalibrationMapsTicksOntoTheMonotonicTimeline) {
  const TscClock& clock = tsc_clock();
  ASSERT_GT(clock.ns_per_tick(), 0.0);
  // to_ns(fast_timestamp()) and monotonic_ns() read the same instant
  // through two paths; the affine TSC map must land within a loose bound
  // (the calibration is good to much better than 10 ms over a test run).
  const std::uint64_t via_tsc = clock.to_ns(fast_timestamp());
  const std::uint64_t direct = monotonic_ns();
  const std::uint64_t diff =
      via_tsc > direct ? via_tsc - direct : direct - via_tsc;
  EXPECT_LT(diff, 10'000'000u) << "tsc=" << via_tsc << " mono=" << direct;
  // The map itself is monotone in the tick argument.
  const std::uint64_t t0 = fast_timestamp();
  EXPECT_LE(clock.to_ns(t0), clock.to_ns(t0 + 1'000'000));
}

// ---- histogram windows ---------------------------------------------------

TEST(HistogramWindow, FromDeltaCoversExactlyTheWindow) {
  AtomicLogHistogram hist;
  std::array<std::uint64_t, LogHistogram::kBuckets> before{};
  std::array<std::uint64_t, LogHistogram::kBuckets> after{};

  for (int i = 0; i < 100; ++i) hist.record(1000);
  hist.load_buckets(before.data());

  // The window holds only what lands between the two snapshots.
  for (int i = 0; i < 90; ++i) hist.record(2000);
  for (int i = 0; i < 10; ++i) hist.record(64000);
  hist.load_buckets(after.data());

  const HistogramWindow w =
      HistogramWindow::from_delta(after.data(), before.data());
  EXPECT_EQ(w.count, 100u);
  // Bucket representatives quantize to ~3%; the pre-window 1000s must not
  // leak in, so p50 sits near 2000 and the tail near 64000.
  EXPECT_NEAR(static_cast<double>(w.p50), 2000.0, 2000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(w.p99), 64000.0, 64000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(w.max), 64000.0, 64000.0 * 0.05);

  const HistogramWindow empty =
      HistogramWindow::from_delta(after.data(), after.data());
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0u);
}

TEST(HistogramWindow, ConcurrentRecordersConserveTheTotalCount) {
  AtomicLogHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<std::uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- SLO grammar ---------------------------------------------------------

TEST(SloSpec, ParsesWellFormedObjectiveLists) {
  const auto one = parse_slo_spec("p99_sojourn_us<500");
  ASSERT_TRUE(one.has_value());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0].metric, "p99_sojourn_us");
  EXPECT_TRUE((*one)[0].less_than);
  EXPECT_DOUBLE_EQ((*one)[0].threshold, 500.0);
  EXPECT_EQ((*one)[0].to_string(), "p99_sojourn_us<500");

  const auto many =
      parse_slo_spec("shed_pct<1,delivered_per_s>10000,in_flight<1e6");
  ASSERT_TRUE(many.has_value());
  ASSERT_EQ(many->size(), 3u);
  EXPECT_FALSE((*many)[1].less_than);
  EXPECT_DOUBLE_EQ((*many)[2].threshold, 1e6);
}

TEST(SloSpec, RejectsEveryMalformedClause) {
  EXPECT_FALSE(parse_slo_spec("").has_value());
  EXPECT_FALSE(parse_slo_spec(",").has_value());
  EXPECT_FALSE(parse_slo_spec("p99_sojourn_us").has_value());       // no cmp
  EXPECT_FALSE(parse_slo_spec("p99_sojourn_us<>5").has_value());    // both
  EXPECT_FALSE(parse_slo_spec("p99_sojourn_us<").has_value());      // no num
  EXPECT_FALSE(parse_slo_spec("p99_sojourn_us<5x").has_value());    // trail
  EXPECT_FALSE(parse_slo_spec("p99_sojourn_us<nan").has_value());
  EXPECT_FALSE(parse_slo_spec("bogus_metric<5").has_value());
  EXPECT_FALSE(parse_slo_spec("shed_pct<1,").has_value());
  EXPECT_FALSE(parse_slo_spec("shed_pct<1,,shed_pct<2").has_value());
  // The objective count is bounded (the breach mask is 32 bits).
  std::string too_many = "shed_pct<1";
  for (int i = 0; i < 32; ++i) too_many += ",shed_pct<1";
  EXPECT_FALSE(parse_slo_spec(too_many).has_value());
}

TEST(SloTracker, MultiWindowBurnGatesBreachEntryAndExit) {
  SloTracker tracker;
  auto spec = parse_slo_spec("p99_latency_us<100");
  ASSERT_TRUE(spec.has_value());
  tracker.configure(*spec);
  ASSERT_TRUE(tracker.configured());
  ASSERT_EQ(tracker.size(), 1u);

  std::uint64_t t = 1'000'000;
  const auto step = [&](double value) {
    const auto lookup =
        [&](const std::string&) -> std::optional<double> { return value; };
    const std::uint32_t mask = tracker.evaluate(lookup, t);
    t += 1'000'000;
    return mask;
  };

  // Meeting the objective: no violations, no burn, no breach.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(step(50.0), 0u);
  EXPECT_EQ(tracker.state(0).bad, 0u);
  EXPECT_FALSE(tracker.state(0).breached);
  EXPECT_EQ(tracker.breach_ns(0, t), 0u);

  // One violating sample: with a 1% error budget a single bad sample in
  // both windows already exceeds the alert burn, opening an episode.
  EXPECT_EQ(step(500.0), 1u);
  EXPECT_EQ(tracker.state(0).bad, 1u);
  EXPECT_TRUE(tracker.state(0).breached);
  EXPECT_EQ(tracker.state(0).episodes, 1u);
  EXPECT_GT(tracker.state(0).burn_fast, SloTracker::kAlertBurn);
  // A still-open episode accrues breach time against `now`.
  EXPECT_GT(tracker.breach_ns(0, t + 5'000'000), 0u);

  // Good samples flush the fast window first: after kFastWindow clean
  // evaluations the episode closes even though the slow window still
  // remembers the spike.
  for (unsigned i = 0; i < SloTracker::kFastWindow; ++i) step(50.0);
  EXPECT_FALSE(tracker.state(0).breached);
  EXPECT_EQ(tracker.state(0).episodes, 1u);
  const std::uint64_t settled = tracker.breach_ns(0, t);
  EXPECT_GT(settled, 0u);
  // Closed episodes stop accruing.
  EXPECT_EQ(tracker.breach_ns(0, t + 1'000'000'000), settled);
}

TEST(SloTracker, UnavailableMetricsAreNeverViolations) {
  SloTracker tracker;
  auto spec = parse_slo_spec("rank_p90<10");
  ASSERT_TRUE(spec.has_value());
  tracker.configure(*spec);
  const auto absent =
      [](const std::string&) -> std::optional<double> { return std::nullopt; };
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tracker.evaluate(absent, 1000), 0u);
  }
  EXPECT_EQ(tracker.state(0).samples, 0u);
  EXPECT_EQ(tracker.state(0).bad, 0u);
  EXPECT_EQ(tracker.state(0).unavailable, 5u);
  EXPECT_FALSE(tracker.state(0).breached);
}

TEST(SloTracker, GreaterThanObjectivesFireOnLowValues) {
  SloTracker tracker;
  auto spec = parse_slo_spec("delivered_per_s>1000");
  ASSERT_TRUE(spec.has_value());
  tracker.configure(*spec);
  const auto at = [&](double v) {
    return tracker.evaluate(
        [&](const std::string&) -> std::optional<double> { return v; },
        1000);
  };
  EXPECT_EQ(at(5000.0), 0u);
  EXPECT_EQ(at(10.0), 1u);
  EXPECT_EQ(at(1000.0), 1u);  // strict: exactly the threshold violates
  EXPECT_EQ(tracker.state(0).bad, 2u);
}

// ---- sojourn stamp table -------------------------------------------------

TEST(SojournStampTable, SamplesMatchesAndDropsOverwrites) {
  timeseries_detail::SojournStampTable table;
  EXPECT_TRUE(table.sampled(0));
  EXPECT_TRUE(table.sampled(64));
  EXPECT_FALSE(table.sampled(1));
  EXPECT_FALSE(table.sampled(63));

  table.submit(64, 12345);
  const auto tick = table.match(64);
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(*tick, 12345u);
  // The match consumed the slot.
  EXPECT_FALSE(table.match(64).has_value());

  // Unmatched ids miss cleanly.
  EXPECT_FALSE(table.match(128).has_value());

  // reset() clears every stamped slot.
  table.submit(192, 777);
  table.reset();
  EXPECT_FALSE(table.match(192).has_value());
}

// ---- the plane: lifecycle ------------------------------------------------

TEST(TelemetryPlane, LifecycleIsIdempotentAndGated) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  EXPECT_FALSE(plane.active());
  EXPECT_EQ(plane.sample_count(), 0u);

  EXPECT_FALSE(plane.start(0.0));   // hz <= 0 never starts
  EXPECT_FALSE(plane.start(-5.0));
  EXPECT_FALSE(plane.active());

  ASSERT_TRUE(plane.start(100.0));
  EXPECT_TRUE(plane.active());
  EXPECT_FALSE(plane.start(100.0));  // already running

  plane.stop();
  EXPECT_FALSE(plane.active());
  // stop() always takes a final sample, so even an instant run has one
  // record covering its tail; a second stop() is a no-op.
  const std::uint64_t after_stop = plane.sample_count();
  EXPECT_GE(after_stop, 1u);
  plane.stop();
  EXPECT_EQ(plane.sample_count(), after_stop);

  plane.reset();
  EXPECT_EQ(plane.sample_count(), 0u);
}

TEST(TelemetryPlane, FeedsAreInertWhileInactive) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  // None of these may touch the ring or crash without a running sampler.
  plane.record_latency_ns(1000);
  plane.record_latency_ticks(1000);
  plane.record_sojourn_ns(1000);
  plane.note_submit(64, 1);
  plane.note_delivery(64, 2);
  ASSERT_TRUE(plane.start(50.0));
  plane.stop();
  // The inert feeds above must not have leaked into the started window.
  std::uint64_t latency_count = 0;
  plane.visit_records([&](const TelemetryRecord& r) {
    latency_count += r.latency.count;
    latency_count += r.sojourn.count;
  });
  EXPECT_EQ(latency_count, 0u);
  plane.reset();
}

// ---- the plane: hammering, monotonicity, conservation --------------------

TEST(TelemetryPlane, HammeredFeedsConserveDeltasAndStayMonotonic) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();

  const auto totals_before = MetricsRegistry::global().totals();
  constexpr unsigned kCounterIdx = static_cast<unsigned>(Counter::kCasRetry);

  ASSERT_TRUE(plane.start(2000.0));

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  // Workers park after their loop instead of exiting: a thread exit folds
  // its metrics slice into the retired totals, and sampling concurrently
  // with that fold would make this conservation check racy rather than
  // exact. Holding the threads until stop() keeps every totals() read the
  // sampler takes on stable slices.
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&plane, &done, &release, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        plane.record_latency_ns(500 + (i & 1023));
        plane.record_sojourn_ns(1500 + (i & 511));
        count(Counter::kCasRetry);
        // Exercise the sampled stamp path with matching ids.
        const std::uint64_t id = (static_cast<std::uint64_t>(t) * kPerThread
                                  + i) * 64;
        plane.note_submit(id, 100);
        plane.note_delivery(id, 200);
      }
      done.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (done.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  plane.stop();
  release.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  const auto totals_after = MetricsRegistry::global().totals();
  const std::uint64_t counter_expected =
      totals_after[kCounterIdx] - totals_before[kCounterIdx];
  ASSERT_EQ(counter_expected,
            static_cast<std::uint64_t>(kThreads) * kPerThread);

  std::uint64_t prev_seq = 0, prev_t = 0;
  bool first = true;
  std::uint64_t latency_sum = 0, sojourn_sum = 0, counter_sum = 0;
  std::uint64_t records = 0;
  plane.visit_records([&](const TelemetryRecord& r) {
    if (!first) {
      // The validators depend on STRICT monotonicity of both fields.
      EXPECT_GT(r.seq, prev_seq);
      EXPECT_GT(r.t_ns, prev_t);
    }
    EXPECT_GT(r.interval_ns, 0u);
    EXPECT_EQ(r.t_ns - prev_t, first ? r.t_ns : r.interval_ns);
    prev_seq = r.seq;
    prev_t = r.t_ns;
    first = false;
    latency_sum += r.latency.count;
    sojourn_sum += r.sojourn.count;
    counter_sum += r.counters[kCounterIdx];
    ++records;
  });
  ASSERT_GT(records, 0u);
  EXPECT_EQ(plane.sample_count(), records);  // nothing overwritten
  EXPECT_EQ(plane.dropped(), 0u);

  // Conservation: with no ring overwrite, the windowed deltas partition
  // the run exactly — every fed value lands in exactly one record.
  EXPECT_EQ(latency_sum, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // The sojourn window is fed twice here: every direct record_sojourn_ns
  // call (exactly kThreads * kPerThread), plus one sample per matched
  // submit/delivery stamp pair. Stamps share open-addressed slots, so
  // cross-thread collisions drop some of the latter (by design) — the sum
  // is at least the direct feed and at most double it.
  EXPECT_GE(sojourn_sum, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(sojourn_sum, 2u * static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(counter_sum, counter_expected);

  plane.reset();
}

TEST(TelemetryPlane, RingOverwriteCountsDroppedRecords) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  // Capacity floors at 64; sample at 10 kHz until the ring has provably
  // wrapped (deadline-bounded so a starved CI box cannot hang the test).
  ASSERT_TRUE(plane.start(10000.0, 64));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (plane.sample_count() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  plane.stop();
  EXPECT_GE(plane.sample_count(), 100u);
  EXPECT_GT(plane.dropped(), 0u);
  // The retained window is the newest `capacity` records, still strictly
  // ordered.
  std::uint64_t retained = 0, prev_seq = 0;
  bool first = true;
  plane.visit_records([&](const TelemetryRecord& r) {
    if (!first) {
      EXPECT_GT(r.seq, prev_seq);
    }
    prev_seq = r.seq;
    first = false;
    ++retained;
  });
  EXPECT_EQ(retained, 64u);
  plane.reset();
}

// ---- gauge providers and SLO integration ---------------------------------

TEST(TelemetryPlane, ProvidersFeedGaugesRatesAndSloMask) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  auto spec = parse_slo_spec("in_flight<10,p99_latency_us<1e9");
  ASSERT_TRUE(spec.has_value());
  plane.set_slo(*spec);

  std::atomic<std::uint64_t> delivered{0};
  ASSERT_TRUE(plane.start(500.0));
  {
    ScopedTelemetryProvider provider([&](GaugeSet& g) {
      g.set("delivered", static_cast<double>(
                             delivered.load(std::memory_order_relaxed)));
      g.set("in_flight", 25.0);  // always violating the first objective
    });
    const std::uint64_t base = plane.sample_count();
    for (int i = 0; i < 5000; ++i) {
      delivered.fetch_add(1, std::memory_order_relaxed);
      plane.record_latency_ns(800);
    }
    // Rates derive from gauge deltas, so at least two samples must land
    // with the provider registered (deadline-bounded wait, not a fixed
    // sleep, to survive starved CI boxes).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (plane.sample_count() < base + 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    plane.stop();
  }

  bool saw_gauge = false, saw_rate = false;
  std::uint32_t mask_union = 0;
  plane.visit_records([&](const TelemetryRecord& r) {
    if (const auto v = r.gauges.find("in_flight")) {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(*v, 25.0);
    }
    if (std::isfinite(r.delivered_per_s)) saw_rate = true;
    mask_union |= r.slo_breached;
  });
  EXPECT_TRUE(saw_gauge);
  // delivered moved 0 -> 5000 across the sampled window, so at least one
  // record derives a finite positive rate from the gauge delta.
  EXPECT_TRUE(saw_rate);
  // Objective 0 (in_flight<10) violates on every sample; objective 1
  // (p99_latency_us < 1e9 us) always holds, so its bit stays clear.
  EXPECT_EQ(mask_union, 1u);

  ASSERT_TRUE(plane.slo_configured());
  plane.with_slo([](const SloTracker& slo) {
    ASSERT_EQ(slo.size(), 2u);
    EXPECT_GT(slo.state(0).bad, 0u);
    EXPECT_EQ(slo.state(0).bad, slo.state(0).samples);
    EXPECT_EQ(slo.state(1).bad, 0u);
    EXPECT_TRUE(slo.state(0).breached);
  });
  plane.reset();
  EXPECT_FALSE(plane.slo_configured());
}

TEST(TelemetryPlane, ScopedProviderSkipsRegistrationWhileInactive) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  {
    // Constructed before start(): must not register (inactive runs pay
    // nothing), so its gauge never shows up.
    ScopedTelemetryProvider early(
        [](GaugeSet& g) { g.set("early_gauge", 1.0); });
    ASSERT_TRUE(plane.start(200.0));
    plane.stop();
  }
  plane.visit_records([&](const TelemetryRecord& r) {
    EXPECT_FALSE(r.gauges.find("early_gauge").has_value());
  });
  plane.reset();
}

// ---- exports -------------------------------------------------------------

TEST(TelemetryPlane, JsonlExportIsSchemaV4WithNullsForMissingRates) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  ASSERT_TRUE(plane.start(1000.0));
  for (int i = 0; i < 100; ++i) plane.record_latency_ns(700);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  plane.stop();

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const std::size_t lines = plane.write_jsonl(f);
  EXPECT_EQ(lines, plane.sample_count());
  const std::string text = drain(f);
  std::fclose(f);

  EXPECT_NE(text.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"telemetry\""), std::string::npos);
  EXPECT_NE(text.find("\"latency\":{\"count\":"), std::string::npos);
  EXPECT_NE(text.find("\"rates\":{\"delivered_per_s\":"), std::string::npos);
  EXPECT_NE(text.find("\"counters\":{"), std::string::npos);
  // No gauges registered: every rate must be null, and NaN must never
  // appear in any numeric position.
  EXPECT_NE(text.find("\"delivered_per_s\":null"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text.substr(0, 400);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  // One object per line: every line starts with '{' and ends with '}'.
  std::size_t start = 0, checked = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      EXPECT_EQ(text[start], '{');
      EXPECT_EQ(text[end - 1], '}');
      ++checked;
    }
    start = end + 1;
  }
  EXPECT_EQ(checked, lines);
  plane.reset();
}

TEST(TelemetryPlane, PrometheusExportCarriesTotalsAndSloSeries) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();
  auto spec = parse_slo_spec("p99_latency_us<1");
  ASSERT_TRUE(spec.has_value());
  plane.set_slo(*spec);
  ASSERT_TRUE(plane.start(500.0));
  for (int i = 0; i < 100; ++i) plane.record_latency_ns(5'000'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  plane.stop();

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  plane.write_prometheus(f);
  const std::string text = drain(f);
  std::fclose(f);

  EXPECT_NE(text.find("cpq_telemetry_samples_total"), std::string::npos);
  EXPECT_NE(text.find("cpq_telemetry_dropped_total"), std::string::npos);
  EXPECT_NE(text.find("cpq_counter_total{counter=\""), std::string::npos);
  EXPECT_NE(text.find("cpq_slo_bad_samples_total{objective="),
            std::string::npos);
  EXPECT_NE(text.find("cpq_slo_breach_episodes_total{objective="),
            std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  plane.reset();
}

TEST(TelemetryPlane, DumpRecentWritesTheFlightRecorderTail) {
  TelemetryPlane& plane = TelemetryPlane::global();
  plane.reset();

  // Inactive plane with no records: dump_recent stays silent so stall
  // dumps from non-telemetry runs do not grow noise.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  plane.dump_recent(f);
  EXPECT_EQ(drain(f).size(), 0u);
  std::fclose(f);

  ASSERT_TRUE(plane.start(1000.0));
  for (int i = 0; i < 100; ++i) plane.record_latency_ns(900);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  plane.stop();

  f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  plane.dump_recent(f, 4);
  const std::string text = drain(f);
  std::fclose(f);
  EXPECT_NE(text.find("[cpq-telemetry]"), std::string::npos);
  EXPECT_NE(text.find("seq="), std::string::npos);
  plane.reset();
}

}  // namespace
}  // namespace cpq::obs
