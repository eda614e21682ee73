// Chaos-campaign coverage, compiled with CPQ_FAULT_INJECTION: the schedule
// parser, the site-filtered injection seams, drain-under-fault conservation,
// close() racing injected submits, a short end-to-end campaign, and the JSON
// schema round-trip for the chaos metrics.
//
// ODR: links cpq_queues + cpq_bench_io only — never cpq_bench_framework,
// whose registry.cpp instantiates the same queue templates without injection
// (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_framework/json_out.hpp"
#include "queues/globallock.hpp"
#include "service/priority_service.hpp"
#include "validation/chaos.hpp"
#include "validation/chaos_campaign.hpp"
#include "validation/checked_queue.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::validation {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using Lock = GlobalLockQueue<K, V>;
using Service = service::PriorityService<Lock>;

// Every test must leave the process-global injection state clean.
struct InjectionGuard {
  ~InjectionGuard() { fault_injection_configure(0, 42); }
};

// ----------------------------------------------------------------- parser

TEST(ChaosSchedule, ParsesWorkloadKeysAndScenarios) {
  const std::string text =
      "# a comment\n"
      "duration_s 1.5\n"
      "baseline_s 0.3\n"
      "arrival_hz 1000  # trailing comment\n"
      "producers 3\n"
      "consumers 2\n"
      "shards 8\n"
      "policy tiered\n"
      "ttl_us 50000\n"
      "breaker_trip_us 2000\n"
      "window_ms 50\n"
      "recovery_factor 3\n"
      "rank_bound 4096\n"
      "\n"
      "scenario convoy start=0.4 dur=0.2 kind=stall_shard shard=3 "
      "stall_us=7000\n"
      "scenario kill start=0.8 dur=0.2 kind=kill_shard shard=1\n"
      "scenario spins start=1.1 dur=0.2 kind=inject site=spinlock "
      "ppm=40000\n";
  ChaosSchedule schedule;
  std::string error;
  ASSERT_TRUE(parse_chaos_schedule(text, schedule, error)) << error;
  EXPECT_DOUBLE_EQ(schedule.duration_s, 1.5);
  EXPECT_EQ(schedule.producers, 3u);
  EXPECT_EQ(schedule.shards, 8u);
  EXPECT_EQ(schedule.policy, "tiered");
  EXPECT_EQ(schedule.ttl_us, 50'000u);
  ASSERT_EQ(schedule.scenarios.size(), 3u);
  EXPECT_EQ(schedule.scenarios[0].kind, ChaosFaultKind::kStallShard);
  EXPECT_EQ(schedule.scenarios[0].shard, 3u);
  EXPECT_EQ(schedule.scenarios[0].effective_stall_us(), 7000u);
  EXPECT_EQ(schedule.scenarios[1].effective_stall_us(), 50'000u);  // default
  EXPECT_EQ(schedule.scenarios[2].site, "spinlock");
  EXPECT_EQ(schedule.scenarios[2].ppm, 40'000u);
}

TEST(ChaosSchedule, ParsesHotspotKeying) {
  ChaosSchedule schedule;
  std::string error;
  ASSERT_TRUE(parse_chaos_schedule(
      "key_space 65536\nhot_ops 0.9\nhot_keys 0.1\n", schedule, error))
      << error;
  EXPECT_EQ(schedule.key_space, 65'536u);
  EXPECT_DOUBLE_EQ(schedule.hot_ops, 0.9);
  EXPECT_DOUBLE_EQ(schedule.hot_keys, 0.1);
  // Defaults: uniform keying (hotspot disabled).
  ChaosSchedule plain;
  ASSERT_TRUE(parse_chaos_schedule("duration_s 1.0\n", plain, error)) << error;
  EXPECT_DOUBLE_EQ(plain.hot_ops, 0.0);
  EXPECT_DOUBLE_EQ(plain.hot_keys, 0.0);
}

TEST(ChaosSchedule, RejectsBadHotspotConfig) {
  ChaosSchedule schedule;
  std::string error;
  EXPECT_FALSE(parse_chaos_schedule("hot_ops 1.5\n", schedule, error));
  EXPECT_FALSE(parse_chaos_schedule("hot_keys -0.1\n", schedule, error));
  // hot_ops without a hot range is meaningless: reject, don't silently
  // fall back to uniform.
  EXPECT_FALSE(
      parse_chaos_schedule("hot_ops 0.9\nhot_keys 0\n", schedule, error));
  EXPECT_NE(error.find("hot_keys"), std::string::npos) << error;
}

// Keys come from a KeyConfig (2^bits wide), and a producer needs a rate.
TEST(ChaosSchedule, RejectsKeySpaceOffPowersOfTwoAndIdleArrivals) {
  ChaosSchedule schedule;
  std::string error;
  EXPECT_TRUE(parse_chaos_schedule("key_space 1048576\n", schedule, error))
      << error;
  EXPECT_FALSE(parse_chaos_schedule("key_space 1000000\n", schedule, error));
  EXPECT_NE(error.find("key_space"), std::string::npos) << error;
  EXPECT_FALSE(parse_chaos_schedule("key_space 1\n", schedule, error));
  EXPECT_FALSE(parse_chaos_schedule("arrival_hz 0\n", schedule, error));
  EXPECT_NE(error.find("arrival_hz"), std::string::npos) << error;
}

TEST(ChaosSchedule, InjectThrowDefaultsToTheSubmitSeam) {
  ChaosSchedule schedule;
  std::string error;
  ASSERT_TRUE(parse_chaos_schedule(
      "baseline_s 0.1\nscenario boom start=0.2 dur=0.1 kind=inject_throw\n",
      schedule, error))
      << error;
  ASSERT_EQ(schedule.scenarios.size(), 1u);
  EXPECT_EQ(schedule.scenarios[0].site, "service/submit");
  EXPECT_EQ(schedule.scenarios[0].ppm, 2'000u);  // kThrow default
}

TEST(ChaosSchedule, RejectsMalformedInput) {
  ChaosSchedule schedule;
  std::string error;
  EXPECT_FALSE(parse_chaos_schedule("frobnicate 3\n", schedule, error));
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  EXPECT_FALSE(parse_chaos_schedule("duration_s\n", schedule, error));
  EXPECT_FALSE(
      parse_chaos_schedule("policy block\n", schedule, error));  // would hang
  EXPECT_FALSE(parse_chaos_schedule(
      "scenario x start=0.5 dur=0.1\n", schedule, error));  // no kind
  EXPECT_FALSE(parse_chaos_schedule(
      "scenario x start=0.5 dur=0.1 kind=warp\n", schedule, error));
  EXPECT_FALSE(parse_chaos_schedule(
      "scenario x start=0.1 dur=0.1 kind=inject\n", schedule,
      error));  // starts inside the 0.4 s default baseline
  EXPECT_FALSE(parse_chaos_schedule(
      "scenario x start=1.9 dur=0.5 kind=inject\n", schedule,
      error));  // clears past duration_s: no recovery window
  EXPECT_FALSE(parse_chaos_schedule(
      "shards 2\nscenario x start=0.5 dur=0.1 kind=stall_shard shard=5\n",
      schedule, error));  // shard out of range
}

// ------------------------------------------------------------ site filter

TEST(ChaosInjection, SiteFilterRestrictsFiring) {
  InjectionGuard guard;
  fault_injection_configure(1'000'000, 7, FaultAction::kDelay,
                            "service/submit");
  const std::uint64_t before = fault_injections_fired();
  CPQ_INJECT("queue/linden/pop");  // filtered out
  EXPECT_EQ(fault_injections_fired(), before);
  CPQ_INJECT("service/submit");  // matches
  EXPECT_EQ(fault_injections_fired(), before + 1);
  // Substring semantics: a broader filter matches both service seams.
  fault_injection_configure(1'000'000, 7, FaultAction::kDelay, "service/");
  CPQ_INJECT("service/delete_min");
  EXPECT_EQ(fault_injections_fired(), before + 2);
}

TEST(ChaosInjection, ThrowActionRaisesInjectedFaultOnMatchingSiteOnly) {
  InjectionGuard guard;
  fault_injection_configure(1'000'000, 7, FaultAction::kThrow,
                            "service/submit");
  EXPECT_NO_THROW(CPQ_INJECT("queue/mound/push"));
  EXPECT_THROW(CPQ_INJECT("service/submit"), InjectedFault);
}

// ---------------------------------------------------- drain under faults

std::unique_ptr<Service> make_service(unsigned threads,
                                      service::ServiceConfig cfg) {
  return std::make_unique<Service>(threads, cfg, [threads](unsigned) {
    return std::make_unique<Lock>(threads);
  });
}

// Throwing submit faults while producers race close(): every *accepted*
// task must still be delivered or drained, and the injected exceptions must
// surface as clean rejections, not lost tasks. The kThrow seam sits at the
// top of submit() before any state change, so a throw never half-accepts.
TEST(ChaosDrain, CloseAndDrainUnderThrowingSubmitsConserves) {
  InjectionGuard guard;
  constexpr unsigned kProducers = 3;
  service::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.insert_batch = 4;
  CheckedQueue<Service> checked(kProducers, make_service(kProducers, cfg));
  Service& service = checked.inner();

  fault_injection_configure(50'000, 11, FaultAction::kThrow,
                            "service/submit");
  std::atomic<std::uint64_t> faults{0};
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kProducers; ++t) {
    team.emplace_back([&, t] {
      auto handle = checked.get_handle(t);
      for (std::uint64_t i = 0; i < 10'000; ++i) {
        const std::uint64_t id = bench::detail::item_id(t, i);
        try {
          handle.try_submit(i & 1023, id);
        } catch (const InjectedFault&) {
          faults.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(service.close());
  for (auto& t : team) t.join();
  fault_injection_configure(0, 11);

  const ReconcileReport report = checked.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(faults.load(), 0u) << "throw seam never fired";
}

// Delay faults across every seam (queue internals included) while the
// service drains through close(): the watchdog-free variant relies on the
// ctest timeout to catch a deadlock; conservation catches everything else.
TEST(ChaosDrain, DrainUnderDelayFaultsEverywhereConserves) {
  InjectionGuard guard;
  constexpr unsigned kWorkers = 4;
  service::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.insert_batch = 4;
  cfg.delete_batch = 4;
  cfg.ttl_us = 500;  // shedding active under fault delays
  CheckedQueue<Service> checked(kWorkers, make_service(kWorkers, cfg));
  Service& service = checked.inner();
  std::atomic<std::uint64_t> shed{0};
  service.set_shed_sink(
      [&shed](K, V) { shed.fetch_add(1, std::memory_order_relaxed); });

  fault_injection_configure(5'000, 13, FaultAction::kDelay);
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kWorkers; ++t) {
    team.emplace_back([&, t] {
      auto handle = checked.get_handle(t);
      if (t % 2 == 0) {
        for (std::uint64_t i = 0; i < 4'000; ++i) {
          handle.try_submit(i & 511, bench::detail::item_id(t, i));
        }
      } else {
        K key;
        V value;
        for (std::uint64_t i = 0; i < 4'000; ++i) {
          handle.delete_min(key, value);
        }
      }
    });
  }
  for (auto& t : team) t.join();
  service.close();
  fault_injection_configure(0, 13);

  const ReconcileReport report = checked.reconcile();
  EXPECT_EQ(report.duplicated, 0u) << report.to_string();
  EXPECT_EQ(report.fabricated, 0u) << report.to_string();
  EXPECT_EQ(report.lost, shed.load()) << report.to_string();
}

// ----------------------------------------------------- end-to-end campaign

TEST(ChaosCampaign, ShortCampaignRunsGreen) {
  InjectionGuard guard;
  ChaosSchedule schedule;
  std::string error;
  ASSERT_TRUE(parse_chaos_schedule(
      "duration_s 0.9\n"
      "baseline_s 0.2\n"
      "arrival_hz 4000\n"
      "producers 1\n"
      "consumers 1\n"
      "shards 2\n"
      "ttl_us 100000\n"
      "breaker_trip_us 1500\n"
      "window_ms 25\n"
      "recovery_factor 3\n"
      "recovery_floor_ms 5\n"
      "scenario stall start=0.3 dur=0.15 kind=stall_shard shard=0 "
      "stall_us=3000\n"
      "scenario boom start=0.6 dur=0.15 kind=inject_throw ppm=5000\n",
      schedule, error))
      << error;
  const ChaosCampaignResult result = run_chaos_campaign(
      schedule, /*seed=*/42,
      [](unsigned) { return std::make_unique<Lock>(2); });
  print_chaos_result(stderr, result);
  EXPECT_TRUE(result.conservation_ok) << result.conservation;
  EXPECT_GT(result.submitted, 0u);
  EXPECT_GT(result.delivered, 0u);
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const ChaosScenarioOutcome& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.applied) << outcome.name;
    EXPECT_GE(outcome.recovery_ms, 0.0)
        << outcome.name << " never recovered";
  }
  EXPECT_TRUE(result.ok());
}

// Same campaign shape with 90% of submissions squeezed into the bottom
// 0.4% of a small keyspace: every delete_min contends on the hot range
// while the stall fires, and conservation + recovery must still hold.
TEST(ChaosCampaign, HotspotKeyedCampaignConservesUnderSkew) {
  InjectionGuard guard;
  ChaosSchedule schedule;
  std::string error;
  ASSERT_TRUE(parse_chaos_schedule(
      "duration_s 0.9\n"
      "baseline_s 0.2\n"
      "arrival_hz 4000\n"
      "producers 1\n"
      "consumers 1\n"
      "key_space 65536\n"
      "hot_ops 0.9\n"
      "hot_keys 0.004\n"
      "shards 2\n"
      "ttl_us 100000\n"
      "breaker_trip_us 1500\n"
      "window_ms 25\n"
      "recovery_factor 3\n"
      "recovery_floor_ms 5\n"
      "scenario hot-stall start=0.3 dur=0.15 kind=stall_shard shard=0 "
      "stall_us=3000\n",
      schedule, error))
      << error;
  const ChaosCampaignResult result = run_chaos_campaign(
      schedule, /*seed=*/43,
      [](unsigned) { return std::make_unique<Lock>(2); });
  print_chaos_result(stderr, result);
  EXPECT_TRUE(result.conservation_ok) << result.conservation;
  EXPECT_GT(result.submitted, 0u);
  EXPECT_GT(result.delivered, 0u);
  EXPECT_TRUE(result.ok());
}

// -------------------------------------------------- JSON schema round-trip

TEST(ChaosJson, ChaosMetricsRoundTripThroughTheSchema) {
  for (const char* metric :
       {"chaos_baseline_p99_ms", "chaos_recovery_ms:shard-kill",
        "chaos_conservation_ok", "chaos_rank_violations_outside"}) {
    bench::JsonRecord record;
    record.experiment = "chaos_basic_campaign";
    record.queue = "mq";
    record.metric = metric;
    record.threads = 4;
    record.mean = 17.25;
    record.reps = 1;
    record.status = "ok";
    bench::JsonRecord parsed;
    ASSERT_TRUE(bench::parse_json_record(bench::to_json_line(record), parsed))
        << metric;
    EXPECT_EQ(parsed, record) << metric;
  }
  // A never-recovered scenario is emitted as status=failed with mean -1.
  bench::JsonRecord failed;
  failed.experiment = "chaos_basic_campaign";
  failed.queue = "glock";
  failed.metric = "chaos_recovery_ms:kill";
  failed.threads = 4;
  failed.mean = -1.0;
  failed.reps = 1;
  failed.status = "failed";
  bench::JsonRecord parsed;
  ASSERT_TRUE(bench::parse_json_record(bench::to_json_line(failed), parsed));
  EXPECT_EQ(parsed, failed);
}

}  // namespace
}  // namespace cpq::validation
