// Unit tests for the PriorityService dispatch layer: delivery and ordering
// under batching, the rate gate on batching, admission control (reject and
// blocking backpressure), close()/drain() shutdown, per-shard and per-thread
// counters, and the open-loop service bench harness (including its
// CheckedQueue mode). The batching and bookkeeping cases run over two shard
// types: a strict global-lock heap, and mq-eng, whose handles have insertion
// and deletion buffers of their own that the service must not strand tasks
// in.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "queues/globallock.hpp"
#include "queues/multiqueue.hpp"
#include "queues/multiqueue_eng.hpp"
#include "service/priority_service.hpp"
#include "service/service_bench.hpp"
#include "validation/checked_queue.hpp"

namespace cpq::service {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using Lock = GlobalLockQueue<K, V>;
using MqEng = EngMultiQueue<K, V>;

// A batching gate no submission rate can lift: count-only batching, for the
// cases that assert exactly when an insert_batch-sized buffer publishes.
constexpr std::uint64_t kCountOnly = std::numeric_limits<std::uint64_t>::max();

template <typename Q>
std::unique_ptr<PriorityService<Q>> make_service(unsigned threads,
                                                 const ServiceConfig& cfg) {
  return std::make_unique<PriorityService<Q>>(
      threads, cfg, [&](unsigned) { return std::make_unique<Q>(threads); });
}

// Runs `body(std::type_identity<Q>{})` once per shard type: the global-lock
// heap, then mq-eng with its default MqEngConfig (16-slot insertion buffer).
template <typename Body>
void for_each_shard_type(Body&& body) {
  {
    SCOPED_TRACE("glock shards");
    body(std::type_identity<Lock>{});
  }
  {
    SCOPED_TRACE("mq-eng shards");
    body(std::type_identity<MqEng>{});
  }
}

TEST(PriorityService, SingleShardUnbatchedIsStrictlyOrdered) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.delete_batch = 1;
  auto service = make_service<Lock>(1, cfg);
  auto handle = service->get_handle(0);
  for (K key : {9u, 3u, 7u, 1u, 5u}) handle.insert(key, key * 10);
  K key;
  V value;
  std::vector<K> popped;
  while (handle.delete_min(key, value)) {
    EXPECT_EQ(value, key * 10);
    popped.push_back(key);
  }
  EXPECT_EQ(popped, (std::vector<K>{1, 3, 5, 7, 9}));
}

TEST(PriorityService, BufferedInsertsPublishOnBatchOrExplicitFlush) {
  for_each_shard_type([](auto shard) {
    using Q = typename decltype(shard)::type;
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.insert_batch = 4;
    cfg.batch_gap_ns = kCountOnly;
    auto service = make_service<Q>(2, cfg);
    auto producer = service->get_handle(0);
    auto consumer = service->get_handle(1);

    producer.insert(1, 1);
    producer.insert(2, 2);
    EXPECT_EQ(producer.buffered_inserts(), 2u);
    K key;
    V value;
    // Buffered tasks are invisible to other handles until a flush.
    EXPECT_FALSE(consumer.delete_min(key, value));

    producer.insert(3, 3);
    producer.insert(4, 4);  // batch full: auto-flush
    EXPECT_EQ(producer.buffered_inserts(), 0u);
    // A flushed batch is visible to every other handle at once — it must
    // not wait in a shard handle's own insertion buffer.
    EXPECT_TRUE(consumer.delete_min(key, value));
    EXPECT_EQ(key, 1u);

    producer.insert(5, 5);
    producer.flush();
    EXPECT_EQ(producer.buffered_inserts(), 0u);
    std::size_t rest = 0;
    while (consumer.delete_min(key, value)) ++rest;
    EXPECT_EQ(rest, 4u);
  });
}

// The default gate: a producer slower than one task per batch_gap_ns (here
// one per >= 100 us, 50x the 2 us default) publishes every task, so no task
// waits in its buffer for submissions that are not coming.
TEST(PriorityService, SlowProducerPublishesEveryTaskAtOnce) {
  for_each_shard_type([](auto shard) {
    using Q = typename decltype(shard)::type;
    auto service = make_service<Q>(2, ServiceConfig{});
    auto producer = service->get_handle(0);
    auto consumer = service->get_handle(1);
    K key;
    V value;

    // A fresh handle counts as saturated: the first task is buffered.
    producer.insert(1, 1);
    EXPECT_EQ(producer.buffered_inserts(), 1u);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    // The first measured gap lifts the mean over the gate: both publish.
    producer.insert(2, 2);
    EXPECT_EQ(producer.buffered_inserts(), 0u);
    for (K want : {1u, 2u}) {
      ASSERT_TRUE(consumer.delete_min(key, value));
      EXPECT_EQ(key, want);
    }

    for (K next = 3; next < 8; ++next) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      producer.insert(next, next);
      EXPECT_EQ(producer.buffered_inserts(), 0u);
      ASSERT_TRUE(consumer.delete_min(key, value));
      EXPECT_EQ(key, next);
    }
    EXPECT_EQ(service->stats().flushes, 6u);
  });
}

// Back-to-back submissions stay far below a 1 ms gate and fill the buffer;
// one submission after a 10 ms pause lifts the mean over it (a pause of
// 8 * batch_gap_ns is enough on its own) and flushes every buffered task.
// On a fresh handle the first measured gap starts the average, so a 2 ms
// gap is enough there.
TEST(PriorityService, PauseLiftsGateAndFlushesBuffer) {
  for_each_shard_type([](auto shard) {
    using Q = typename decltype(shard)::type;
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.insert_batch = 64;
    cfg.batch_gap_ns = 1'000'000;
    auto service = make_service<Q>(3, cfg);
    auto producer = service->get_handle(0);
    auto consumer = service->get_handle(1);
    K key;
    V value;

    for (K k = 1; k <= 10; ++k) producer.insert(k, k);
    EXPECT_EQ(producer.buffered_inserts(), 10u);
    EXPECT_FALSE(consumer.delete_min(key, value));

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    producer.insert(11, 11);
    EXPECT_EQ(producer.buffered_inserts(), 0u);
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.flushes, 1u);
    EXPECT_DOUBLE_EQ(stats.mean_insert_fill, 11.0);
    for (K want = 1; want <= 11; ++want) {
      ASSERT_TRUE(consumer.delete_min(key, value));
      EXPECT_EQ(key, want);
    }

    auto fresh = service->get_handle(2);
    fresh.insert(12, 12);
    EXPECT_EQ(fresh.buffered_inserts(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    fresh.insert(13, 13);
    EXPECT_EQ(fresh.buffered_inserts(), 0u);
    for (K want : {12u, 13u}) {
      ASSERT_TRUE(consumer.delete_min(key, value));
      EXPECT_EQ(key, want);
    }
  });
}

TEST(PriorityService, ZeroGapPublishesEverySubmission) {
  for_each_shard_type([](auto shard) {
    using Q = typename decltype(shard)::type;
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.batch_gap_ns = 0;
    auto service = make_service<Q>(2, cfg);
    auto producer = service->get_handle(0);
    auto consumer = service->get_handle(1);
    K key;
    V value;
    for (K k = 1; k <= 20; ++k) {
      producer.insert(k, k);
      EXPECT_EQ(producer.buffered_inserts(), 0u);
      ASSERT_TRUE(consumer.delete_min(key, value));
      EXPECT_EQ(key, k);
    }
    EXPECT_EQ(service->stats().flushes, 20u);
  });
}

// A refill takes one delete_batch from an mq-eng heap and nothing more: the
// rest of that heap stays poppable by every other consumer instead of
// waiting in the first consumer's shard-handle buffer.
TEST(PriorityService, RefillLeavesRestOfHeapVisible) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 16;
  cfg.delete_batch = 8;
  cfg.batch_gap_ns = kCountOnly;
  auto service = make_service<MqEng>(3, cfg);
  auto producer = service->get_handle(0);
  auto a = service->get_handle(1);
  auto b = service->get_handle(2);
  for (K k = 1; k <= 16; ++k) producer.insert(k, k);
  producer.flush();
  K key;
  V value;
  ASSERT_TRUE(a.delete_min(key, value));
  EXPECT_EQ(a.buffered_deletes(), 7u);
  std::size_t popped = 0;
  while (b.delete_min(key, value)) ++popped;
  EXPECT_EQ(popped, 8u);
}

// Service-wide counters and per-shard tallies live in per-thread-id slots.
// Four threads on two thread ids (two handles per slot) mix try_submit and
// delete_min; once every handle is gone and the rest is drained, the summed
// slots must account for every call exactly. Each thread tells its own
// flushes and refills from its handle's buffer levels: an accepted submit
// that leaves the insertion buffer empty flushed, a hit from an empty
// deletion buffer refilled once, a miss that empties the insertion buffer
// flushed, and teardown flushes once if either buffer holds a task. Under
// kReject every refusal is a plain one; under kTiered with only lower-tier
// keys the window never fills, so every refusal comes from the tier gate.
TEST(PriorityService, PerThreadCountersSumExactly) {
  for_each_shard_type([](auto shard_type) {
    using Q = typename decltype(shard_type)::type;
    for (const AdmissionPolicy policy :
         {AdmissionPolicy::kReject, AdmissionPolicy::kTiered}) {
      SCOPED_TRACE(policy == AdmissionPolicy::kReject ? "kReject" : "kTiered");
      constexpr unsigned kThreads = 4;
      ServiceConfig cfg;
      cfg.shards = 2;
      cfg.max_in_flight = 32;
      cfg.policy = policy;
      cfg.tiers = 2;
      cfg.tier_key_space = 2000;  // keys >= 1000 are the lower tier
      auto service = make_service<Q>(2, cfg);
      std::atomic<std::uint64_t> accepted{0};
      std::atomic<std::uint64_t> refused{0};
      std::atomic<std::uint64_t> delivered{0};
      std::atomic<std::uint64_t> flushes{0};
      std::atomic<std::uint64_t> refills{0};
      std::atomic<std::uint64_t> spilled{0};
      run_team(kThreads, [&](unsigned tid) {
        auto handle = service->get_handle(tid % 2);
        Xoroshiro128 rng(thread_seed(0xc0de, tid));
        std::uint64_t ok = 0;
        std::uint64_t no = 0;
        std::uint64_t got = 0;
        std::uint64_t flushed = 0;
        std::uint64_t refilled = 0;
        for (std::uint64_t i = 0; i < 20000; ++i) {
          const bool had_inserts = handle.buffered_inserts() > 0;
          if (rng.next_below(100) < 70) {
            const K k = 1000 + rng.next_below(1000);
            if (handle.try_submit(k, (std::uint64_t{tid} << 32) | i)) {
              ++ok;
              flushed += handle.buffered_inserts() == 0;
            } else {
              ++no;
            }
          } else {
            const bool had_deletes = handle.buffered_deletes() > 0;
            K k;
            V v;
            if (handle.delete_min(k, v)) {
              ++got;
              refilled += !had_deletes;
            }
            flushed += had_inserts && handle.buffered_inserts() == 0;
          }
        }
        const std::size_t left = handle.buffered_deletes();
        flushed += handle.buffered_inserts() + left > 0;
        accepted.fetch_add(ok);
        refused.fetch_add(no);
        delivered.fetch_add(got);
        flushes.fetch_add(flushed);
        refills.fetch_add(refilled);
        spilled.fetch_add(left);
      });
      const ServiceStats before = service->stats();
      std::uint64_t shard_enqueued = 0;
      std::uint64_t shard_dequeued = 0;
      std::uint64_t shard_flushes = 0;
      std::uint64_t shard_refills = 0;
      for (const ShardStats& shard : before.shards) {
        shard_enqueued += shard.enqueued;
        shard_dequeued += shard.dequeued;
        shard_flushes += shard.flushes;
        shard_refills += shard.refills;
      }
      // Teardown spills pass through a shard twice: popped, then flushed.
      EXPECT_EQ(shard_enqueued, accepted.load() + spilled.load());
      EXPECT_EQ(shard_dequeued, delivered.load() + spilled.load());
      EXPECT_EQ(shard_flushes, flushes.load());
      EXPECT_EQ(shard_refills, refills.load());

      const std::size_t drained = service->drain([](K, V) {});
      const ServiceStats stats = service->stats();
      EXPECT_GT(refused.load(), 0u);
      EXPECT_EQ(stats.submitted, accepted.load());
      EXPECT_EQ(stats.delivered, delivered.load());
      EXPECT_EQ(stats.submitted, stats.delivered + drained);
      EXPECT_EQ(stats.rejected, refused.load());
      EXPECT_EQ(stats.tier_rejected,
                policy == AdmissionPolicy::kTiered ? refused.load() : 0u);
      EXPECT_EQ(service->in_flight(), 0u);
      // Drained empty, every shard has given back exactly what it took, and
      // its load hint reads zero: a pop that overtakes its flush's count
      // may drive the hint below zero for a moment, but not at quiescence.
      for (const ShardStats& shard : stats.shards) {
        EXPECT_EQ(shard.enqueued, shard.dequeued);
        EXPECT_EQ(shard.approx_size, 0u);
      }
    }
  });
}

// The hold model on one handle: pop a task, then submit its successor into
// a full kBlock window. The delivered task's slot must be returned before
// the submission waits for one; a handle that returned slots only when its
// deletion buffer drains would wait on itself forever. A stuck insert is
// freed by close(), so a regression fails here instead of hanging.
TEST(PriorityService, HoldModelSubmitNeverWaitsOnItsOwnDeliveries) {
  for_each_shard_type([](auto shard) {
    using Q = typename decltype(shard)::type;
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.insert_batch = 4;  // one flush, so one mq-eng heap holds all four
    cfg.delete_batch = 4;
    cfg.batch_gap_ns = kCountOnly;
    cfg.max_in_flight = 4;
    cfg.policy = AdmissionPolicy::kBlock;
    auto service = make_service<Q>(1, cfg);
    auto handle = service->get_handle(0);
    for (K k = 1; k <= 4; ++k) ASSERT_TRUE(handle.insert(k, k));
    K key;
    V value;
    ASSERT_TRUE(handle.delete_min(key, value));
    EXPECT_EQ(key, 1u);
    ASSERT_EQ(handle.buffered_deletes(), 3u);

    std::atomic<bool> returned{false};
    bool accepted = false;
    std::thread submitter([&] {
      accepted = handle.insert(5, 5);
      returned.store(true);
    });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!returned.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool in_time = returned.load();
    if (!in_time) service->close();
    submitter.join();
    EXPECT_TRUE(in_time) << "insert waited on the handle's own delivery";
    EXPECT_TRUE(accepted);
    EXPECT_EQ(service->in_flight(), 4u);
  });
}

// Without a bound the service keeps no shared in-flight counter:
// in_flight() is accepted minus delivered, shed and drained tasks, summed
// from the per-thread slots.
TEST(PriorityService, UnboundedInFlightIsSummedFromThreadCounters) {
  for_each_shard_type([](auto shard) {
    using Q = typename decltype(shard)::type;
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.insert_batch = 1;
    cfg.delete_batch = 1;
    auto service = make_service<Q>(2, cfg);
    {
      auto producer = service->get_handle(0);
      auto consumer = service->get_handle(1);
      for (K k = 1; k <= 5; ++k) ASSERT_TRUE(producer.insert(k, k));
      EXPECT_EQ(service->in_flight(), 5u);
      K key;
      V value;
      ASSERT_TRUE(consumer.delete_min(key, value));
      ASSERT_TRUE(consumer.delete_min(key, value));
      EXPECT_EQ(service->in_flight(), 3u);
    }
    EXPECT_EQ(service->in_flight(), 3u);
    EXPECT_EQ(service->drain([](K, V) {}), 3u);
    EXPECT_EQ(service->in_flight(), 0u);
  });
}

// A bounded window returns a consumer's slots per drained deletion buffer,
// so in_flight() may lead by what a handle delivered from a buffer it has
// not finished (at most delete_batch - 1), and is exact once the buffer
// drains, once the handle submits, and once it is destroyed.
TEST(PriorityService, BoundedInFlightIsExactOutsidePartlyConsumedBuffers) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.delete_batch = 4;
  cfg.max_in_flight = 64;
  auto service = make_service<Lock>(2, cfg);
  auto producer = service->get_handle(0);
  K key;
  V value;
  for (K k = 1; k <= 10; ++k) ASSERT_TRUE(producer.insert(k, k));
  EXPECT_EQ(service->in_flight(), 10u);
  {
    auto consumer = service->get_handle(1);
    ASSERT_TRUE(consumer.delete_min(key, value));
    ASSERT_EQ(consumer.buffered_deletes(), 3u);
    EXPECT_GE(service->in_flight(), 9u);
    EXPECT_LE(service->in_flight(), 9u + 3u);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(consumer.delete_min(key, value));
    ASSERT_EQ(consumer.buffered_deletes(), 0u);
    EXPECT_EQ(service->in_flight(), 6u);  // the buffer drained

    ASSERT_TRUE(consumer.delete_min(key, value));
    ASSERT_EQ(consumer.buffered_deletes(), 3u);
    ASSERT_TRUE(consumer.insert(11, 11));
    EXPECT_EQ(service->in_flight(), 6u);  // its submit returned the slot
    ASSERT_TRUE(consumer.delete_min(key, value));
    ASSERT_EQ(consumer.buffered_deletes(), 2u);
  }  // teardown returns the delivery and spills the other two back
  EXPECT_EQ(service->in_flight(), 5u);
  EXPECT_EQ(service->drain([](K, V) {}), 5u);
  EXPECT_EQ(service->in_flight(), 0u);
}

// Expired tasks leave the window like delivered ones, bounded or not.
TEST(PriorityService, ShedTasksLeaveTheInFlightCount) {
  for (const std::size_t bound : {std::size_t{0}, std::size_t{64}}) {
    SCOPED_TRACE(bound == 0 ? "unbounded" : "bounded");
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.insert_batch = 1;
    cfg.delete_batch = 4;
    cfg.max_in_flight = bound;
    cfg.ttl_us = 1000;
    auto service = make_service<Lock>(1, cfg);
    auto handle = service->get_handle(0);
    for (K k = 1; k <= 6; ++k) ASSERT_TRUE(handle.insert(k, k));
    EXPECT_EQ(service->in_flight(), 6u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    K key;
    V value;
    EXPECT_FALSE(handle.delete_min(key, value));
    EXPECT_EQ(handle.last_pop_shed(), 6u);
    EXPECT_EQ(service->stats().shed_deadline, 6u);
    EXPECT_EQ(service->in_flight(), 0u);
  }
}

// A move returns the source's held slots once and leaves the source inert:
// were its destructor to return them again, the window's count would wrap
// below zero.
TEST(PriorityService, MovedHandleReturnsHeldSlotsOnce) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.delete_batch = 4;
  cfg.max_in_flight = 16;
  auto service = make_service<Lock>(1, cfg);
  K key;
  V value;
  {
    auto source = service->get_handle(0);
    for (K k = 1; k <= 8; ++k) ASSERT_TRUE(source.insert(k, k));
    ASSERT_TRUE(source.delete_min(key, value));
    ASSERT_EQ(source.buffered_deletes(), 3u);
    {
      auto moved = std::move(source);
      EXPECT_EQ(service->in_flight(), 7u);  // returned by the move
      EXPECT_EQ(source.buffered_deletes(), 0u);
      ASSERT_EQ(moved.buffered_deletes(), 3u);
      ASSERT_TRUE(moved.delete_min(key, value));
      EXPECT_EQ(key, 2u);
    }
    EXPECT_EQ(service->in_flight(), 6u);
  }  // the moved-from source tears nothing down
  EXPECT_EQ(service->in_flight(), 6u);
  EXPECT_EQ(service->drain([](K, V) {}), 6u);
  EXPECT_EQ(service->in_flight(), 0u);
}

TEST(PriorityService, RejectPolicyBoundsInFlightWork) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.delete_batch = 1;
  cfg.max_in_flight = 2;
  cfg.policy = AdmissionPolicy::kReject;
  auto service = make_service<Lock>(1, cfg);
  auto handle = service->get_handle(0);
  EXPECT_TRUE(handle.try_submit(1, 1));
  EXPECT_TRUE(handle.try_submit(2, 2));
  EXPECT_FALSE(handle.try_submit(3, 3));  // bound hit
  EXPECT_EQ(service->in_flight(), 2u);

  K key;
  V value;
  ASSERT_TRUE(handle.delete_min(key, value));
  EXPECT_TRUE(handle.try_submit(3, 3));  // slot released by the delivery
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 3u);
}

TEST(PriorityService, CloseRejectsNewWorkButKeepsAcceptedDeliverable) {
  ServiceConfig cfg;
  cfg.shards = 2;
  auto service = make_service<Lock>(1, cfg);
  auto handle = service->get_handle(0);
  handle.insert(1, 10);
  handle.insert(2, 20);
  service->close();
  EXPECT_TRUE(service->closed());
  EXPECT_FALSE(handle.try_submit(3, 30));
  K key;
  V value;
  EXPECT_TRUE(handle.delete_min(key, value));
  EXPECT_TRUE(handle.delete_min(key, value));
  EXPECT_FALSE(handle.delete_min(key, value));
  EXPECT_EQ(service->stats().rejected, 1u);
}

// The acceptance-critical shutdown property: producers blocked on the
// admission bound (backpressure), concurrent consumers, then close() +
// handle teardown + drain() — every accepted task is delivered or drained,
// none dropped, none duplicated (values are unique per task).
TEST(PriorityService, BackpressureDrainShutdownDropsNoTask) {
  constexpr unsigned kProducers = 2;
  constexpr unsigned kConsumers = 2;
  constexpr unsigned kThreads = kProducers + kConsumers;
  constexpr std::uint64_t kPerProducer = 5000;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.insert_batch = 4;
  cfg.delete_batch = 4;
  cfg.max_in_flight = 64;  // far below the offered total: submitters block
  cfg.policy = AdmissionPolicy::kBlock;
  auto service = make_service<Lock>(kThreads, cfg);

  std::atomic<unsigned> producers_done{0};
  std::vector<char> seen(kThreads * kPerProducer, 0);
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> duplicate{false};

  auto mark = [&](V value) {
    if (seen[value]) duplicate.store(true);
    seen[value] = 1;
    delivered.fetch_add(1, std::memory_order_relaxed);
  };

  run_team(kThreads, [&](unsigned tid) {
    if (tid < kProducers) {
      {
        auto handle = service->get_handle(tid);
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          handle.insert(i % 97, tid * kPerProducer + i);
        }
      }  // handle destruction flushes the insertion buffer
      producers_done.fetch_add(1, std::memory_order_release);
    } else {
      auto handle = service->get_handle(tid);
      K key;
      V value;
      unsigned misses = 0;
      while (misses < 64) {
        if (handle.delete_min(key, value)) {
          mark(value);
          misses = 0;
        } else if (producers_done.load(std::memory_order_acquire) ==
                   kProducers) {
          ++misses;
        }
      }
    }
  });

  service->close();
  const std::size_t drained = service->drain([&](K, V value) { mark(value); });

  EXPECT_FALSE(duplicate.load()) << "a task was delivered twice";
  EXPECT_EQ(delivered.load(), kProducers * kPerProducer)
      << "a task was dropped (drained " << drained << ")";
  EXPECT_EQ(service->in_flight(), 0u);
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(PriorityService, CloseWakesBlockedSubmitters) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.insert_batch = 1;
  cfg.max_in_flight = 1;
  cfg.policy = AdmissionPolicy::kBlock;
  auto service = make_service<Lock>(2, cfg);
  auto warm = service->get_handle(0);
  warm.insert(1, 1);  // takes the only slot

  std::atomic<bool> returned{false};
  std::thread blocked([&] {
    auto handle = service->get_handle(1);
    EXPECT_FALSE(handle.try_submit(2, 2));  // blocks until close()
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  service->close();
  blocked.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(service->stats().rejected, 1u);
}

TEST(PriorityService, StatsAccountForEveryFlushedAndPoppedTask) {
  for_each_shard_type([](auto shard_type) {
    using Q = typename decltype(shard_type)::type;
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.insert_batch = 8;
    cfg.delete_batch = 8;
    cfg.batch_gap_ns = kCountOnly;
    auto service = make_service<Q>(1, cfg);
    {
      auto handle = service->get_handle(0);
      Xoroshiro128 rng(7);
      for (std::uint64_t i = 0; i < 1000; ++i) {
        handle.insert(rng.next_below(1u << 20), i);
      }
      handle.flush();
      K key;
      V value;
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(handle.delete_min(key, value));
      }
    }  // destructor spills the prefetched remainder back into the shards

    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.submitted, 1000u);
    EXPECT_EQ(stats.delivered, 500u);
    EXPECT_EQ(service->shard_count(), 4u);
    ASSERT_EQ(stats.shards.size(), 4u);
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::size_t sized = 0;
    for (const ShardStats& shard : stats.shards) {
      enqueued += shard.enqueued;
      dequeued += shard.dequeued;
      sized += shard.approx_size;
    }
    // Every submitted task was flushed into some shard, plus the destructor
    // spill re-enqueued what sat in the deletion buffer; the per-batch
    // bookkeeping still counts every task.
    EXPECT_GE(enqueued, 1000u);
    EXPECT_EQ(enqueued - dequeued, 500u);  // what is still stored
    EXPECT_EQ(sized, 500u);
    // 125 full batches, then the teardown spill as one more batch.
    EXPECT_EQ(stats.flushes, 1000u / 8 + 1);
    EXPECT_GT(stats.mean_insert_fill, 1.0);
    EXPECT_GT(stats.mean_delete_fill, 1.0);

    std::size_t drained = 0;
    service->drain([&](K, V) { ++drained; });
    EXPECT_EQ(drained, 500u);
  });
}

TEST(PriorityService, TwoChoiceRoutingSpreadsLoadAcrossShards) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.insert_batch = 4;
  auto service = make_service<Lock>(1, cfg);
  auto handle = service->get_handle(0);
  Xoroshiro128 rng(21);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    handle.insert(rng.next_below(1u << 30), i);
  }
  handle.flush();
  for (const ShardStats& shard : service->stats().shards) {
    // Two-choice flushing keeps every shard within a small factor of the
    // 1000-task fair share; a broken router starves at least one shard.
    EXPECT_GT(shard.enqueued, 250u);
  }
}

TEST(PriorityService, WrappedInCheckedQueueConservesTasks) {
  constexpr unsigned kThreads = 4;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.insert_batch = 4;
  cfg.delete_batch = 4;
  using Service = PriorityService<MultiQueue<K, V>>;
  validation::CheckedQueue<Service> checked(
      kThreads,
      std::make_unique<Service>(kThreads, cfg, [&](unsigned shard) {
        return std::make_unique<MultiQueue<K, V>>(kThreads, 4, shard + 1);
      }));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = checked.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x5eed, tid));
    for (std::uint64_t i = 0; i < 4000; ++i) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 12),
                      (static_cast<V>(tid + 1) << 32) | i);
      } else {
        K key;
        V value;
        handle.delete_min(key, value);
      }
    }
  });

  const validation::ReconcileReport report = checked.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.inserted, 0u);
}

// ---- the open-loop bench harness -----------------------------------------

ServiceBenchConfig tiny_bench() {
  ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.02;
  cfg.prefill = 500;
  cfg.seed = 11;
  cfg.pin_threads = false;
  return cfg;
}

TEST(ServiceBench, RawAndServiceRunsDeliverTasks) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  const ServiceBenchConfig cfg = tiny_bench();
  const ServiceBenchResult raw = run_open_loop_raw(factory, cfg);
  EXPECT_GT(raw.submitted, 0u);
  EXPECT_GT(raw.delivered, 0u);
  EXPECT_GT(raw.offered_per_s, 0.0);

  const ServiceBenchResult service = run_open_loop_service(factory, cfg);
  EXPECT_GT(service.submitted, 0u);
  EXPECT_GT(service.delivered, 0u);
  EXPECT_GE(service.stats.flushes, 1u);
  // Shutdown accounting: everything accepted (prefill included — it goes
  // through the same handle path) was delivered or recovered by the drain.
  EXPECT_EQ(service.stats.submitted,
            service.stats.delivered + service.drained);
}

TEST(ServiceBench, CheckedModeReportsConservation) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  ServiceBenchConfig cfg = tiny_bench();
  cfg.checked = true;
  const ServiceBenchResult raw = run_open_loop_raw(factory, cfg);
  EXPECT_TRUE(raw.conservation_ok) << raw.conservation_report;
  const ServiceBenchResult service = run_open_loop_service(factory, cfg);
  EXPECT_TRUE(service.conservation_ok) << service.conservation_report;
  EXPECT_GT(service.delivered, 0u);
}

TEST(ServiceBench, PoissonArrivalsThrottleOfferedLoad) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  ServiceBenchConfig cfg = tiny_bench();
  cfg.duration_s = 0.05;
  // ~500 arrivals in the window vs millions raw.
  cfg.arrivals = workloads::ArrivalConfig::poisson(10000.0);
  const ServiceBenchResult throttled = run_open_loop_service(factory, cfg);
  EXPECT_GT(throttled.submitted, 0u);
  // Open loop: the offered rate tracks the schedule, not the queue. Allow
  // generous jitter for a 1-core container.
  EXPECT_LT(throttled.offered_per_s, 10.0 * cfg.arrivals.mean_hz());
}

// The admission policy acts on the driver's producers: a back-to-back
// producer fills a 32-slot window (no consumer drains it, so the outcome
// does not hang on scheduling) and is then turned away, not parked. close()
// may reject the one submission a parked producer holds at the end, so the
// reject count must exceed the producer count.
ServiceBenchConfig full_window_bench(AdmissionPolicy policy) {
  ServiceBenchConfig cfg = tiny_bench();
  cfg.consumers = 0;
  cfg.prefill = 0;
  cfg.checked = true;
  cfg.service.max_in_flight = 32;
  cfg.service.policy = policy;
  return cfg;
}

TEST(ServiceBench, RejectPolicyTurnsProducersAwayAtTheWindow) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  const ServiceBenchConfig cfg = full_window_bench(AdmissionPolicy::kReject);
  const ServiceBenchResult result = run_open_loop_service(factory, cfg);
  EXPECT_GT(result.stats.rejected, cfg.producers);
  EXPECT_EQ(result.stats.submitted, cfg.service.max_in_flight);
  EXPECT_TRUE(result.conservation_ok) << result.conservation_report;
}

TEST(ServiceBench, TieredPolicyRejectsLowTiersAtTheWindow) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  const ServiceBenchConfig cfg = full_window_bench(AdmissionPolicy::kTiered);
  const ServiceBenchResult result = run_open_loop_service(factory, cfg);
  EXPECT_GT(result.stats.tier_rejected, 0u);
  EXPECT_TRUE(result.conservation_ok) << result.conservation_report;
}

TEST(ServiceBench, QualityReplayScoresServiceRelaxation) {
  auto factory = [](unsigned threads, std::uint64_t) {
    return std::make_unique<Lock>(threads);
  };
  ServiceBenchConfig cfg = tiny_bench();
  cfg.service.shards = 4;
  cfg.service.insert_batch = 16;
  cfg.service.delete_batch = 16;
  const ServiceBenchResult result = run_open_loop_service(factory, cfg);
  EXPECT_GT(result.deletions, 0u);
  EXPECT_GE(result.median_rank_error, 0.0);
  EXPECT_GE(result.max_rank_error, 0u);
}

}  // namespace
}  // namespace cpq::service
