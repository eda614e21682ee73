// Overload-resilience coverage: the building blocks in service/resilience.hpp
// (DeadlinePool, TierMap/tier_admitted, CircuitBreaker), their integration
// into PriorityService (deadline shedding, tiered admission,
// breaker-driven rerouting), close() idempotence under concurrent inserts,
// the shed-aware open-loop bench, and stall-dump filename uniqueness.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "queues/globallock.hpp"
#include "service/priority_service.hpp"
#include "service/resilience.hpp"
#include "service/service_bench.hpp"
#include "validation/checked_queue.hpp"
#include "validation/watchdog.hpp"

namespace cpq::service {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using Lock = GlobalLockQueue<K, V>;

std::unique_ptr<PriorityService<Lock>> make_lock_service(
    unsigned threads, const ServiceConfig& cfg) {
  return std::make_unique<PriorityService<Lock>>(
      threads, cfg, [&](unsigned) { return std::make_unique<Lock>(threads); });
}

// ---------------------------------------------------------------- pool

using Pool = DeadlinePool<V>;
constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;

TEST(DeadlinePool, AcquireTakeRoundTrips) {
  Pool pool(4);
  Pool::Cache cache;
  std::uint32_t slot = kNoSlot;
  ASSERT_TRUE(pool.acquire(cache, 777, 123456, slot));
  ASSERT_NE(slot, kNoSlot);
  const auto entry = pool.take(cache, slot);
  EXPECT_EQ(entry.value, 777u);
  EXPECT_EQ(entry.deadline_us, 123456u);
  EXPECT_EQ(pool.exhausted(), 0u);
}

// Exhaustion counts only when the caller's cache and the shared list are
// both empty: slots parked in another handle's cache are unavailable until
// that cache gives them back.
TEST(DeadlinePool, ExhaustsAtCapacityAndRecyclesFreedSlots) {
  Pool pool(2);
  Pool::Cache mine;
  Pool::Cache other;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  ASSERT_TRUE(pool.acquire(mine, 1, 10, a));
  ASSERT_TRUE(pool.acquire(mine, 2, 20, b));
  EXPECT_FALSE(pool.acquire(mine, 3, 30, c));
  EXPECT_EQ(pool.exhausted(), 1u);
  EXPECT_EQ(pool.take(mine, a).value, 1u);
  EXPECT_FALSE(pool.acquire(other, 3, 30, c));
  EXPECT_EQ(pool.exhausted(), 2u);
  ASSERT_TRUE(pool.acquire(mine, 4, 40, c));
  EXPECT_EQ(pool.take(mine, c).value, 4u);
  EXPECT_EQ(pool.take(mine, b).value, 2u);
  pool.release(mine);
  ASSERT_TRUE(pool.acquire(other, 5, 50, a));
  ASSERT_TRUE(pool.acquire(other, 6, 60, b));
  EXPECT_EQ(pool.exhausted(), 2u);
}

// A service handle is moved after it has pooled slots (a vector of
// handles grows); the moved-from handle is still destroyed, so its cache
// must have handed the indices over or they would return twice.
TEST(DeadlinePool, MovedCacheHandsItsSlotsOver) {
  Pool pool(2 * Pool::kBatch);
  Pool::Cache from;
  std::uint32_t slot = 0;
  ASSERT_TRUE(pool.acquire(from, 1, 1, slot));
  pool.take(from, slot);
  Pool::Cache to(std::move(from));
  EXPECT_EQ(from.count, 0u);
  pool.release(from);
  pool.release(to);
  Pool::Cache fresh;
  std::set<std::uint32_t> seen;
  std::size_t acquired = 0;
  while (pool.acquire(fresh, 2, 2, slot)) {
    seen.insert(slot);
    ++acquired;
  }
  EXPECT_EQ(acquired, pool.capacity());
  EXPECT_EQ(seen.size(), pool.capacity());
  EXPECT_EQ(pool.exhausted(), 1u);
}

TEST(DeadlinePool, ConcurrentAcquireTakeNeverDuplicatesSlots) {
  Pool pool(16);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> team;
  for (unsigned t = 0; t < 4; ++t) {
    team.emplace_back([&, t] {
      Pool::Cache cache;
      std::uint32_t slots[4];
      while (!stop.load(std::memory_order_relaxed)) {
        unsigned held = 0;
        for (unsigned i = 0; i < 4; ++i) {
          if (pool.acquire(cache, t * 100 + i, i, slots[held])) ++held;
        }
        for (unsigned i = 0; i < held; ++i) {
          const auto entry = pool.take(cache, slots[i]);
          // The slot content must be what *this* thread wrote: a duplicated
          // slot hand-out would tear these.
          EXPECT_EQ(entry.value / 100, t);
          EXPECT_EQ(entry.deadline_us, entry.value % 100);
        }
        ops.fetch_add(held, std::memory_order_relaxed);
      }
      pool.release(cache);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : team) t.join();
  EXPECT_GT(ops.load(), 0u);
}

// The service's shape: one thread only acquires, another only takes, so
// every slot crosses threads through the shared list. A ring of kBatch
// entries stands in for the queue (its release/acquire pair orders each
// slot's writes before its reads) and bounds the slots in transit. The
// caches then hold at most kBatch + 2 * kBatch - 1 indices, so with
// capacity 4 * kBatch the shared list never runs dry.
TEST(DeadlinePool, CachesMoveSlotsBetweenThreadsWithoutExhaustion) {
  constexpr std::size_t kRing = Pool::kBatch;
  constexpr std::uint64_t kTasks = 200'000;
  Pool pool(4 * Pool::kBatch);
  std::uint32_t ring[kRing] = {};
  std::atomic<std::uint64_t> head{0};  // next to take
  std::atomic<std::uint64_t> tail{0};  // next to fill
  std::atomic<std::uint64_t> torn{0};
  std::atomic<bool> refused{false};  // the producer's acquire failed
  std::thread consumer([&] {
    Pool::Cache cache;
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      while (tail.load(std::memory_order_acquire) == i) {
        if (refused.load()) break;
        std::this_thread::yield();
      }
      if (tail.load(std::memory_order_acquire) == i) break;
      const auto entry = pool.take(cache, ring[i % kRing]);
      head.store(i + 1, std::memory_order_release);
      if (entry.value != i || entry.deadline_us != 3 * i + 1) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
    pool.release(cache);
  });
  Pool::Cache cache;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    while (i - head.load(std::memory_order_acquire) == kRing) {
      std::this_thread::yield();
    }
    std::uint32_t slot = 0;
    if (!pool.acquire(cache, i, 3 * i + 1, slot)) {
      refused.store(true);
      break;
    }
    ring[i % kRing] = slot;
    tail.store(i + 1, std::memory_order_release);
  }
  pool.release(cache);
  consumer.join();
  EXPECT_FALSE(refused.load());
  EXPECT_EQ(pool.exhausted(), 0u);
  EXPECT_EQ(torn.load(), 0u);
}

// ---------------------------------------------------------------- tiers

TEST(TierMap, UniformSplitAndLookup) {
  const TierMap map = TierMap::uniform(4, 400);
  EXPECT_EQ(map.tiers(), 4u);
  EXPECT_EQ(map.tier_of(0), 0u);
  EXPECT_EQ(map.tier_of(99), 0u);
  EXPECT_EQ(map.tier_of(100), 1u);
  EXPECT_EQ(map.tier_of(250), 2u);
  EXPECT_EQ(map.tier_of(399), 3u);
  EXPECT_EQ(map.tier_of(5000), 3u);  // beyond key_space: lowest priority
}

TEST(TierMap, FewerThanTwoTiersDegeneratesToSingleTier) {
  EXPECT_EQ(TierMap::uniform(0, 100).tiers(), 1u);
  EXPECT_EQ(TierMap::uniform(1, 100).tiers(), 1u);
}

TEST(TierAdmitted, GraduatedThresholds) {
  // capacity 100, 4 tiers: allowances 100 / 75 / 50 / 25.
  EXPECT_TRUE(tier_admitted(99, 100, 0, 4));
  EXPECT_FALSE(tier_admitted(100, 100, 0, 4));
  EXPECT_TRUE(tier_admitted(74, 100, 1, 4));
  EXPECT_FALSE(tier_admitted(75, 100, 1, 4));
  EXPECT_TRUE(tier_admitted(49, 100, 2, 4));
  EXPECT_FALSE(tier_admitted(50, 100, 2, 4));
  EXPECT_TRUE(tier_admitted(24, 100, 3, 4));
  EXPECT_FALSE(tier_admitted(25, 100, 3, 4));
  // Out-of-range tier clamps to the lowest priority.
  EXPECT_FALSE(tier_admitted(25, 100, 9, 4));
  // Single tier: plain capacity check.
  EXPECT_TRUE(tier_admitted(99, 100, 0, 1));
  EXPECT_FALSE(tier_admitted(100, 100, 0, 1));
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreaker, DisabledAlwaysAllows) {
  CircuitBreaker breaker;
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_FALSE(breaker.record(0, 1'000'000));
  EXPECT_TRUE(breaker.allow(1'000'000));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, TripsAfterConsecutiveSlowBatches) {
  CircuitBreaker breaker;
  breaker.configure(/*trip_us=*/100, /*consecutive=*/2, /*cooldown_us=*/1000);
  EXPECT_FALSE(breaker.record(0, 500));   // first slow batch: streak 1
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.record(10, 500));   // second: trips
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow(500));       // cooling down
  EXPECT_TRUE(breaker.allow(1500));       // probe admitted
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreaker, FastBatchResetsSlowStreak) {
  CircuitBreaker breaker;
  breaker.configure(100, 2, 1000);
  EXPECT_FALSE(breaker.record(0, 500));
  EXPECT_FALSE(breaker.record(10, 5));  // fast: streak resets
  EXPECT_FALSE(breaker.record(20, 500));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnFastReopensOnSlow) {
  CircuitBreaker breaker;
  breaker.configure(100, 1, 1000);
  ASSERT_TRUE(breaker.record(0, 500));
  ASSERT_TRUE(breaker.allow(2000));  // probe
  EXPECT_FALSE(breaker.record(2100, 5));  // fast probe: closed again
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.record(2200, 500));  // trip again
  ASSERT_TRUE(breaker.allow(3300));
  EXPECT_TRUE(breaker.record(3400, 500));  // slow probe: reopens
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 3u);
}

TEST(CircuitBreaker, OnlyOneProbeWinsTheHalfOpenToken) {
  CircuitBreaker breaker;
  breaker.configure(100, 1, 1000);
  ASSERT_TRUE(breaker.record(0, 500));
  unsigned admitted = 0;
  for (unsigned i = 0; i < 8; ++i) {
    if (breaker.allow(1500)) ++admitted;
  }
  EXPECT_EQ(admitted, 1u);
}

// ------------------------------------------------------- deadline shedding

TEST(ServiceResilience, ExpiredTasksAreShedAtPopAndCounted) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.delete_batch = 1;
  cfg.ttl_us = 1;  // everything expires almost immediately
  auto service = make_lock_service(1, cfg);
  std::vector<std::pair<K, V>> shed;
  service->set_shed_sink(
      [&shed](K key, V value) { shed.emplace_back(key, value); });
  auto handle = service->get_handle(0);
  for (K key = 1; key <= 8; ++key) handle.insert(key, key + 100);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  K key;
  V value;
  EXPECT_FALSE(handle.delete_min(key, value));  // all expired
  EXPECT_EQ(shed.size(), 8u);
  for (const auto& [k, v] : shed) EXPECT_EQ(v, k + 100);
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.shed_deadline, 8u);
  EXPECT_EQ(stats.delivered, 0u);
}

TEST(ServiceResilience, UnexpiredTasksSurviveTheTtl) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.ttl_us = 60'000'000;  // one minute: nothing expires in-test
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  for (K key : {5u, 3u, 9u}) handle.insert(key, key);
  K key;
  V value;
  std::vector<K> popped;
  while (handle.delete_min(key, value)) popped.push_back(key);
  EXPECT_EQ(popped, (std::vector<K>{3, 5, 9}));
  EXPECT_EQ(service->stats().shed_deadline, 0u);
}

TEST(ServiceResilience, PoolExhaustionFallsBackToNoDeadlineWithoutLoss) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.ttl_us = 1;
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  // An unbounded one-thread window derives 64 Ki + 2 * 32 = 65,600 deadline
  // slots; the tasks past them must travel untagged.
  constexpr K kTasks = 66'000;
  for (K key = 1; key <= kTasks; ++key) handle.insert(key, key);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  K key;
  V value;
  std::uint64_t delivered = 0;
  for (;;) {
    if (handle.delete_min(key, value)) {
      ++delivered;
    } else if (handle.last_pop_shed() == 0) {
      break;  // empty, not busy shedding the expired backlog
    }
  }
  const ServiceStats stats = service->stats();
  EXPECT_GT(stats.pool_exhausted, 0u);
  // Tagged tasks shed, untagged tasks delivered — but nothing vanished.
  EXPECT_EQ(delivered + stats.shed_deadline, kTasks);
}

TEST(ServiceResilience, DeadlinePoolCoversAFullBoundedWindow) {
  // A bounded window derives max_in_flight + 2 * 32 slots per thread, so a
  // full window split over two handles, each parking slots in its cache,
  // still tags every task: all of them expire and shed, none travels
  // untagged to be delivered.
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.max_in_flight = 1000;
  cfg.policy = AdmissionPolicy::kReject;
  cfg.ttl_us = 1;
  auto service = make_lock_service(2, cfg);
  {
    auto even = service->get_handle(0);
    auto odd = service->get_handle(1);
    for (K key = 0; key < 1000; ++key) {
      ASSERT_TRUE((key % 2 == 0 ? even : odd).try_submit(key, key));
    }
    EXPECT_FALSE(even.try_submit(1000, 1000));  // the window is full
    even.flush();
    odd.flush();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto consumer = service->get_handle(0);
  K key;
  V value;
  std::uint64_t delivered = 0;
  for (;;) {
    if (consumer.delete_min(key, value)) {
      ++delivered;
    } else if (consumer.last_pop_shed() == 0) {
      break;
    }
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.pool_exhausted, 0u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stats.shed_deadline, 1000u);
}

// ------------------------------------------------------- tiered admission

TEST(ServiceResilience, TieredAdmissionRefusesLowPriorityFirst) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.max_in_flight = 8;
  cfg.policy = AdmissionPolicy::kTiered;
  cfg.tiers = 2;
  cfg.tier_key_space = 100;  // keys < 50 are tier 0, >= 50 tier 1
  auto service = make_lock_service(1, cfg);
  auto handle = service->get_handle(0);
  // Fill half the window: tier 1 (allowance 4) is now refused, tier 0 is not.
  for (K key = 0; key < 4; ++key) ASSERT_TRUE(handle.try_submit(key, key));
  EXPECT_FALSE(handle.try_submit(90, 90));
  EXPECT_TRUE(handle.try_submit(1, 1));
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.tier_rejected, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

// --------------------------------------------------------------- breaker

TEST(ServiceResilience, StalledShardTripsBreakerAndReroutes) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.insert_batch = 4;
  cfg.delete_batch = 4;
  cfg.breaker_trip_us = 500;
  cfg.breaker_consecutive = 1;
  cfg.breaker_cooldown_us = 60'000'000;  // stays open for the whole test
  auto service = make_lock_service(1, cfg);
  service->chaos_stall_shard(0, 2'000);  // every shard-0 batch takes >= 2 ms
  auto handle = service->get_handle(0);
  // Two-choice routing will hit shard 0 quickly; after the first slow flush
  // the breaker opens and later flushes steer to shard 1.
  for (K key = 0; key < 64; ++key) handle.insert(key, key);
  handle.flush();
  const ServiceStats stats = service->stats();
  EXPECT_GT(stats.breaker_trips, 0u);
  EXPECT_GT(stats.reroutes, 0u);
  EXPECT_TRUE(stats.shards[0].breaker_open);
  // The stalled shard still drains: the breaker only steers routing, the
  // emptiness sweep visits every shard.
  service->chaos_stall_shard(0, 0);
  K key;
  V value;
  std::uint64_t delivered = 0;
  while (handle.delete_min(key, value)) ++delivered;
  EXPECT_EQ(delivered, 64u);
}

// ------------------------------------------------------------- close()

TEST(ServiceResilience, CloseIsIdempotent) {
  auto service = make_lock_service(1, {});
  EXPECT_FALSE(service->closed());
  EXPECT_TRUE(service->close());   // this call transitioned it
  EXPECT_TRUE(service->closed());
  EXPECT_FALSE(service->close());  // already closed
  EXPECT_TRUE(service->closed());
}

TEST(ServiceResilience, ConcurrentClosersElectExactlyOneWinner) {
  for (unsigned round = 0; round < 20; ++round) {
    auto service = make_lock_service(4, {});
    std::atomic<unsigned> winners{0};
    std::vector<std::thread> team;
    for (unsigned t = 0; t < 4; ++t) {
      team.emplace_back([&] {
        if (service->close()) winners.fetch_add(1);
      });
    }
    for (auto& t : team) t.join();
    EXPECT_EQ(winners.load(), 1u);
  }
}

TEST(ServiceResilience, CloseRacingInsertsLosesNoAcceptedTask) {
  // Submitters hammer try_submit while another thread closes the service:
  // every accepted task must come back out of delete_min + drain, and
  // post-close submissions must be refused, not dropped. (The TSan CI job
  // runs this test; the plain run still catches count mismatches.)
  constexpr unsigned kSubmitters = 3;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.insert_batch = 4;
  auto service = make_lock_service(kSubmitters, cfg);
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    team.emplace_back([&, t] {
      auto handle = service->get_handle(t);
      for (std::uint64_t i = 0; i < 20'000; ++i) {
        if (handle.try_submit(i, (std::uint64_t{t} << 32) | i)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Handle destructor flushes any buffered accepted tasks.
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(service->close());
  for (auto& t : team) t.join();
  std::uint64_t recovered = 0;
  recovered += service->drain([](K, V) {});
  EXPECT_EQ(recovered, accepted.load());
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, accepted.load());
}

// ------------------------------------------------------------ bench glue

TEST(ServiceBench, SojournHistogramIsPopulated) {
  ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.05;
  cfg.arrivals = workloads::ArrivalConfig::poisson(5000.0);
  cfg.pin_threads = false;
  cfg.watchdog_s = 0.0;
  auto result = run_open_loop_service(
      [](unsigned threads, std::uint64_t) {
        return std::make_unique<Lock>(threads);
      },
      cfg);
  EXPECT_GT(result.delivered, 0u);
  EXPECT_GT(result.sojourn_ns.count(), 0u);
  EXPECT_GT(result.sojourn_ns.quantile(0.99), 0.0);
}

TEST(ServiceBench, CheckedRunWithSheddingStaysConservation) {
  ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.05;
  cfg.arrivals = workloads::ArrivalConfig::poisson(20000.0);
  cfg.pin_threads = false;
  cfg.watchdog_s = 0.0;
  cfg.checked = true;
  cfg.service.ttl_us = 200;  // aggressive shedding under the offered load
  auto result = run_open_loop_service(
      [](unsigned threads, std::uint64_t) {
        return std::make_unique<Lock>(threads);
      },
      cfg);
  EXPECT_TRUE(result.conservation_ok) << result.conservation_report;
  EXPECT_EQ(result.shed, result.stats.shed_deadline);
}

// ----------------------------------------------------------- stall dumps

TEST(StallDump, PathsAreUniqueAndCarryThePid) {
  const std::string pid = std::to_string(validation::stall_dump_pid());
  std::set<std::string> paths;
  for (unsigned i = 0; i < 100; ++i) {
    const std::string path = validation::stall_dump_path("/tmp", "bench-1");
    EXPECT_NE(path.find("/tmp/stall_bench-1_" + pid + "_"), std::string::npos)
        << path;
    paths.insert(path);
  }
  EXPECT_EQ(paths.size(), 100u);
}

TEST(StallDump, ConcurrentCallersNeverCollide) {
  std::vector<std::vector<std::string>> per_thread(4);
  std::vector<std::thread> team;
  for (unsigned t = 0; t < 4; ++t) {
    team.emplace_back([&, t] {
      for (unsigned i = 0; i < 200; ++i) {
        per_thread[t].push_back(validation::stall_dump_path("/tmp", "x"));
      }
    });
  }
  for (auto& t : team) t.join();
  std::set<std::string> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 800u);
}

TEST(StallDump, LabelIsSanitizedForTheFilesystem) {
  const std::string path =
      validation::stall_dump_path("/tmp", "a/b c\t*?");
  EXPECT_NE(path.find("/tmp/stall_a_b_c__"), std::string::npos) << path;
  const std::string empty = validation::stall_dump_path("/tmp", "");
  EXPECT_NE(empty.find("/tmp/stall_unnamed_"), std::string::npos) << empty;
}

}  // namespace
}  // namespace cpq::service
