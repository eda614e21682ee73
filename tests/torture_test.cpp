// Torture tests: every roster queue under fault injection, audited by the
// CheckedQueue conservation adaptor, plus self-tests proving the validation
// layer itself detects what it claims to detect.
//
// This binary is the only target compiled with CPQ_FAULT_INJECTION=1 (see
// tests/CMakeLists.txt). It deliberately links cpq_queues, the queue-free
// cpq_bench_io (the quality replay) and gtest — not cpq_bench_framework,
// whose registry.cpp instantiates the same queue templates without
// injection, which would be an ODR violation. The closed-loop harness the
// watchdog death test drives is header-only.
//
// Injection rate: CPQ_INJECT_PPM if set, else 1000 firings per million hook
// crossings — high enough that a 24k-operation run injects hundreds of
// delays into claim/publish/epoch windows, low enough to finish in seconds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_framework/harness.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "queues/cbpq.hpp"
#include "queues/flat_combining.hpp"
#include "queues/globallock.hpp"
#include "queues/hunt_heap.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/klsm/standalone.hpp"
#include "queues/linden.hpp"
#include "queues/mound.hpp"
#include "queues/multiqueue.hpp"
#include "queues/multiqueue_eng.hpp"
#include "queues/shavit_lotan.hpp"
#include "queues/spraylist.hpp"
#include "queues/sundell_tsigas.hpp"
#include "seq/dary_heap.hpp"
#include "seq/pairing_heap.hpp"
#include "service/priority_service.hpp"
#include "validation/checked_queue.hpp"
#include "validation/fault_injection.hpp"
#include "validation/watchdog.hpp"

namespace cpq {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using MqPairing = MultiQueue<K, V, seq::PairingHeap<K, V>>;
using MqDary = MultiQueue<K, V, seq::DaryHeap<K, V, 4>>;
using MqEng = EngMultiQueue<K, V>;

// Engineered-variant configs mirroring the registry's mq-eng-s1 / mq-eng-b0
// / mq-eng entries (registry.cpp can't be linked here — ODR, see header).
MqEngConfig eng_config(unsigned stickiness, unsigned buffer) {
  MqEngConfig cfg;
  cfg.stickiness = stickiness;
  cfg.ins_buffer = buffer;
  cfg.del_buffer = buffer;
  return cfg;
}

std::uint32_t torture_ppm() {
  if (const char* env = std::getenv("CPQ_INJECT_PPM")) {
    return static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 1000;
}

template <typename Q>
std::unique_ptr<Q> make_queue(unsigned threads);

template <>
std::unique_ptr<GlobalLockQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<GlobalLockQueue<K, V>>(threads);
}
template <>
std::unique_ptr<LindenQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<LindenQueue<K, V>>(threads);
}
template <>
std::unique_ptr<HuntHeap<K, V>> make_queue(unsigned threads) {
  return std::make_unique<HuntHeap<K, V>>(threads, 1u << 18);
}
template <>
std::unique_ptr<SprayList<K, V>> make_queue(unsigned threads) {
  return std::make_unique<SprayList<K, V>>(threads);
}
template <>
std::unique_ptr<MultiQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<MultiQueue<K, V>>(threads, 4);
}
template <>
std::unique_ptr<MqPairing> make_queue(unsigned threads) {
  return std::make_unique<MqPairing>(threads, 4);
}
template <>
std::unique_ptr<MqDary> make_queue(unsigned threads) {
  return std::make_unique<MqDary>(threads, 4);
}
template <>
std::unique_ptr<MqEng> make_queue(unsigned threads) {
  // The combined mq-eng configuration: buffers and sticky rounds together
  // cross every new seam (flush, refill, spill) in one typed run.
  return std::make_unique<MqEng>(threads, eng_config(8, 16));
}
template <>
std::unique_ptr<KLsmQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<KLsmQueue<K, V>>(threads, 128);
}
template <>
std::unique_ptr<DlsmQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<DlsmQueue<K, V>>(threads);
}
template <>
std::unique_ptr<SlsmQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<SlsmQueue<K, V>>(threads, 128);
}
template <>
std::unique_ptr<ShavitLotanQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<ShavitLotanQueue<K, V>>(threads);
}
template <>
std::unique_ptr<SundellTsigasQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<SundellTsigasQueue<K, V>>(threads);
}
template <>
std::unique_ptr<Mound<K, V>> make_queue(unsigned threads) {
  return std::make_unique<Mound<K, V>>(threads);
}
template <>
std::unique_ptr<ChunkBasedQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<ChunkBasedQueue<K, V>>(threads);
}
template <>
std::unique_ptr<FcPriorityQueue<K, V>> make_queue(unsigned threads) {
  return std::make_unique<FcPriorityQueue<K, V>>(threads);
}

using QueueTypes =
    ::testing::Types<GlobalLockQueue<K, V>, LindenQueue<K, V>, HuntHeap<K, V>,
                     SprayList<K, V>, MultiQueue<K, V>, MqPairing, MqDary,
                     MqEng, KLsmQueue<K, V>, DlsmQueue<K, V>, SlsmQueue<K, V>,
                     ShavitLotanQueue<K, V>, SundellTsigasQueue<K, V>,
                     Mound<K, V>, ChunkBasedQueue<K, V>,
                     FcPriorityQueue<K, V>>;

constexpr V value_of(unsigned tid, std::uint64_t i) {
  return (static_cast<V>(tid + 1) << 32) | i;
}

template <typename Q>
class TortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    validation::fault_injection_configure(torture_ppm(), 0x7041);
  }
  void TearDown() override { validation::fault_injection_configure(0, 42); }
};

TYPED_TEST_SUITE(TortureTest, QueueTypes);

// Contended 60/40 mix over a narrow key range, with every claim/publish/epoch
// seam stretched by injection. The checked adaptor audits exactly-once
// delivery; any lost, duplicated, or fabricated item fails the test with the
// full reconciliation report.
TYPED_TEST(TortureTest, ContendedMixedWorkloadConservesItems) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 6000;
  validation::CheckedQueue<TypeParam> queue(kThreads,
                                            make_queue<TypeParam>(kThreads));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x7041, tid));
    std::uint64_t inserted = 0;
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
      } else {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.inserted, 0u);
}

// Split roles maximize the insert-vs-delete races (publication vs claim):
// two producers flood, two consumers drain concurrently.
TYPED_TEST(TortureTest, SplitProducersConsumersConserveItems) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerProducer = 8000;
  validation::CheckedQueue<TypeParam> queue(kThreads,
                                            make_queue<TypeParam>(kThreads));

  std::atomic<std::uint64_t> consumed{0};
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    if (tid < 2) {
      Xoroshiro128 rng(thread_seed(0x7042, tid));
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        handle.insert(rng.next_below(1u << 12), value_of(tid, i));
      }
    } else {
      unsigned misses = 0;
      while (consumed.load(std::memory_order_relaxed) < 2 * kPerProducer &&
             misses < 5000) {
        K k;
        V v;
        if (handle.delete_min(k, v)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          misses = 0;
        } else {
          ++misses;
        }
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, 2 * kPerProducer);
}

// ---- engineered MultiQueue: every variant and buffer seam ----------------

// The typed suite above covers the combined mq-eng configuration; these
// cover the single-refinement variants (registry's mq-eng-s1, mq-eng-b0)
// plus the conservation edges specific to thread-local buffering: items
// parked in an unflushed insertion buffer, a partially-served deletion
// batch at handle teardown, and the new flush/refill/spill seams stretched
// by injection.
class EngMqTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    validation::fault_injection_configure(torture_ppm(), 0x7045);
  }
  void TearDown() override { validation::fault_injection_configure(0, 42); }

  void contended_mix(const MqEngConfig& cfg, std::uint64_t seed) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOpsPerThread = 6000;
    validation::CheckedQueue<MqEng> queue(
        kThreads, std::make_unique<MqEng>(kThreads, cfg));
    run_team(kThreads, [&](unsigned tid) {
      auto handle = queue.get_handle(tid);
      Xoroshiro128 rng(thread_seed(seed, tid));
      std::uint64_t inserted = 0;
      for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
        if (rng.next_below(100) < 60) {
          handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
        } else {
          K k;
          V v;
          handle.delete_min(k, v);
        }
      }
    });
    const validation::ReconcileReport report = queue.reconcile();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.inserted, 0u);
  }
};

TEST_F(EngMqTortureTest, BufferedOnlyConservesItems) {
  contended_mix(eng_config(/*stickiness=*/1, /*buffer=*/16), 0x7046);
}

TEST_F(EngMqTortureTest, StickyOnlyConservesItems) {
  contended_mix(eng_config(/*stickiness=*/8, /*buffer=*/0), 0x7047);
}

TEST_F(EngMqTortureTest, TinyBuffersMaximizeFlushSeamCrossings) {
  // Buffer capacity 1 flushes/refills on every op — the worst case for the
  // new lock seams — with a single local queue per thread for contention.
  MqEngConfig cfg = eng_config(/*stickiness=*/2, /*buffer=*/1);
  cfg.c = 1;
  contended_mix(cfg, 0x7048);
}

// Close/drain with NON-EMPTY thread buffers: fewer insertions than the
// buffer capacity means nothing was ever flushed to the shared queues —
// every item must reach reconcile()'s drain via the handle-teardown spill.
TEST_F(EngMqTortureTest, UnflushedInsertionBuffersSpillAtTeardown) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 7;  // < ins_buffer = 16
  validation::CheckedQueue<MqEng> queue(
      kThreads, std::make_unique<MqEng>(kThreads, eng_config(8, 16)));
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      handle.insert(1000 * tid + i, value_of(tid, i));
    }
  });
  // Handles are gone: every never-flushed item must now sit in the shared
  // queues, placed there by the teardown spill.
  EXPECT_EQ(queue.inner().unsafe_size(), kThreads * kPerThread);
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, kThreads * kPerThread);
  EXPECT_EQ(report.drained, kThreads * kPerThread);
}

// A deletion batch abandoned half-served: the handle pops one item of a
// 16-item refill and is destroyed; the other 15 must be spilled back, not
// lost with the handle.
TEST_F(EngMqTortureTest, PartialDeletionBatchSpillsAtTeardown) {
  constexpr std::uint64_t kItems = 64;
  validation::CheckedQueue<MqEng> queue(
      1, std::make_unique<MqEng>(1, eng_config(8, 16)));
  {
    auto handle = queue.get_handle(0);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      handle.insert(i, value_of(0, i));
    }
    K k;
    V v;
    ASSERT_TRUE(handle.delete_min(k, v));  // refills a batch, serves one
  }
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.inserted, kItems);
  EXPECT_EQ(report.deleted, 1u);
  EXPECT_EQ(report.drained, kItems - 1);
}

// The engineered seams themselves (buffer flush, batch refill, teardown
// spill) under targeted high-rate delay injection — the site filter focuses
// every firing on the mq_eng.* hooks; the unfiltered spinlock delays are
// already covered by the typed TortureTest runs above.
TEST_F(EngMqTortureTest, InjectedLockAndBufferSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7049,
                                        validation::FaultAction::kDelay,
                                        "mq_eng");
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix(eng_config(/*stickiness=*/4, /*buffer=*/4), 0x704A);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "mq_eng.* injection seams compiled in but never crossed";
}

// ---- k-LSM merge path: copy-merge-claim and pooled blocks ---------------

// The typed suite covers the k-LSM under uniform injection; this fixture
// focuses every firing on the merge path's own seams — block.claim /
// block.drain (the claim-move transfers), slsm.merge_copy (a merge copied
// outside the SLSM insert lock), slsm.publish / dlsm.publish (array
// replacement while merges run),
// arena.alloc (the pooled block storage), and the DLSM staging word's
// dlsm.stage / dlsm.flush_claim / dlsm.steal — at a 5% rate, the same
// targeted pattern EngMqTortureTest uses for the buffer seams.
class KLsmTortureTest : public ::testing::Test {
 protected:
  void TearDown() override { validation::fault_injection_configure(0, 42); }

  // 60/40 insert/delete on every thread, or with `split` two producers and
  // two consumers: the consumers' own LSMs stay empty, so their deletions
  // spy on the producers' DLSMs and staged items. Consumers keep deleting
  // until both producers are done, so the two sides always overlap.
  template <typename Q>
  void contended_mix(std::uint64_t seed, std::uint64_t relaxation,
                     bool split = false) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOpsPerThread = 6000;
    validation::CheckedQueue<Q> queue(
        kThreads, std::make_unique<Q>(kThreads, relaxation));
    std::atomic<unsigned> producers_left{kThreads / 2};
    run_team(kThreads, [&](unsigned tid) {
      auto handle = queue.get_handle(tid);
      Xoroshiro128 rng(thread_seed(seed, tid));
      const bool producer = split && tid < kThreads / 2;
      std::uint64_t inserted = 0;
      for (std::uint64_t op = 0;
           op < kOpsPerThread ||
           (split && !producer &&
            producers_left.load(std::memory_order_acquire) > 0);
           ++op) {
        if (split ? producer : rng.next_below(100) < 60) {
          handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
        } else {
          K k;
          V v;
          handle.delete_min(k, v);
        }
      }
      if (producer) producers_left.fetch_sub(1, std::memory_order_release);
    });
    const validation::ReconcileReport report = queue.reconcile();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.inserted, 0u);
  }
};

TEST_F(KLsmTortureTest, InjectedClaimAndDrainSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7050,
                                        validation::FaultAction::kDelay,
                                        "block.");
  const std::uint64_t before = validation::fault_injections_fired();
  // Small k maximizes merge-cascade crossings per op.
  contended_mix<KLsmQueue<K, V>>(0x7051, /*relaxation=*/16);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "block.claim/block.drain seams compiled in but never crossed";
}

TEST_F(KLsmTortureTest, InjectedPublishSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7052,
                                        validation::FaultAction::kDelay,
                                        "lsm.publish");  // slsm + dlsm
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix<KLsmQueue<K, V>>(0x7053, /*relaxation=*/64);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "slsm.publish/dlsm.publish seams compiled in but never crossed";
}

TEST_F(KLsmTortureTest, InjectedArenaSeamStaysConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7054,
                                        validation::FaultAction::kDelay,
                                        "arena.");
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix<KLsmQueue<K, V>>(0x7055, /*relaxation=*/128);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "arena.alloc seam compiled in but never crossed";
}

// The DLSM staging word: every insert sets a ready bit (dlsm.stage), every
// flush swaps in the next epoch (dlsm.flush_claim), every spy clears all
// ready bits with one CAS (dlsm.steal), and array publication races spies
// (dlsm.publish). Each seam gets its own run so each is shown to fire. k = 0
// sends every insert down the overflow path (stage, flush, publish, SLSM
// batch), so the producers' staged items are exposed to the consumers'
// spies once per insert rather than once per spy of a whole k-item DLSM.
TEST_F(KLsmTortureTest, InjectedDlsmStagingSeamsStayConservative) {
  const char* const seams[] = {"dlsm.stage", "dlsm.flush_claim", "dlsm.steal",
                               "dlsm.publish"};
  std::uint64_t seed = 0x7060;
  for (const char* seam : seams) {
    SCOPED_TRACE(seam);
    validation::fault_injection_configure(/*ppm=*/50'000, seed++,
                                          validation::FaultAction::kDelay,
                                          seam);
    const std::uint64_t before = validation::fault_injections_fired();
    contended_mix<KLsmQueue<K, V>>(seed++, /*relaxation=*/0,
                                   /*split=*/true);
    EXPECT_GT(validation::fault_injections_fired(), before)
        << seam << " seam compiled in but never crossed";
  }
}

// SLSM merges copy outside the insert lock: slsm.merge_copy stretches the
// window between a reserved pair's copy and its splice, so deleters claim
// from the pair and other inserters publish around it.
TEST_F(KLsmTortureTest, InjectedMergeCopySeamStaysConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7058,
                                        validation::FaultAction::kDelay,
                                        "slsm.merge_copy");
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix<KLsmQueue<K, V>>(0x7059, /*relaxation=*/16);
  contended_mix<SlsmQueue<K, V>>(0x705A, /*relaxation=*/16);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "slsm.merge_copy seam compiled in but never crossed";
}

// While merges are in flight the SLSM's array can fill: a reserved pair is
// carried until its splice, and the blocks after it restart the capacities
// from the top. Five merges held at slsm.merge_copy, each behind a run of
// blocks of 128 down to 2 slots, fill all 48 entries; one more insert must
// wait outside the lock until a splice frees an entry, publish after it,
// and every item must come out once.
TEST_F(KLsmTortureTest, FullSlsmArrayWaitsForASplice) {
  using SlsmT = klsm_detail::Slsm<K, V>;
  constexpr std::uint32_t kMaxBlocks =
      klsm_detail::SlsmArray<K, V>::kMaxBlocks;
  validation::fault_injection_configure(1'000'000, 0x7060,
                                        validation::FaultAction::kHold,
                                        "slsm.merge_copy");
  SlsmT slsm(16);
  V next = 0;
  const auto batch = [&next](std::uint32_t n) {
    std::vector<std::pair<K, V>> items;
    for (std::uint32_t i = 0; i < n; ++i, ++next) items.emplace_back(next, next);
    return items;
  };
  const auto array_count = [&slsm] {
    mm::EbrDomain::Guard guard;
    return slsm.current_array()->count;
  };
  std::vector<std::thread> threads;
  struct ReleaseAll {
    std::vector<std::thread>& threads;
    ~ReleaseAll() {
      validation::fault_injection_configure(0, 42);
      for (std::thread& thread : threads) thread.join();
    }
  } release{threads};
  for (std::uint32_t run = 0; run < 5; ++run) {
    for (std::uint32_t n = 128; n >= 1; n /= 2) slsm.insert_batch(batch(n));
    // A second one-slot block collides with the first: its inserter
    // reserves and publishes the pair, copies it and is held.
    const std::pair<K, V> one = batch(1)[0];
    threads.emplace_back([&slsm, one] { slsm.insert(one.first, one.second); });
    while (validation::fault_injection_held() < run + 1) {
      std::this_thread::yield();
    }
  }
  for (std::uint32_t n = 128; n >= 32; n /= 2) slsm.insert_batch(batch(n));
  ASSERT_EQ(array_count(), kMaxBlocks);

  std::atomic<bool> inserted{false};
  threads.emplace_back([&slsm, &inserted, items = batch(16)]() mutable {
    slsm.insert_batch(std::move(items));
    inserted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(inserted.load()) << "an insert into a full array returned";
  EXPECT_EQ(array_count(), kMaxBlocks);

  // One splice frees an entry; that merger's next cascade step is held.
  validation::fault_injection_release(1);
  for (int ms = 0; ms < 10'000 && !inserted.load(); ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(inserted.load()) << "the waiting insert never published";
  EXPECT_LE(array_count(), kMaxBlocks);

  validation::fault_injection_configure(0, 42);
  for (std::thread& thread : threads) thread.join();
  threads.clear();
  Xoroshiro128 rng(0xF011);
  SlsmT::View view;
  std::vector<bool> seen(next, false);
  std::uint64_t delivered = 0;
  K key;
  V value;
  while (slsm.delete_min(key, value, rng, view)) {
    ASSERT_LT(value, next);
    EXPECT_FALSE(seen[value]) << "value " << value << " twice";
    seen[value] = true;
    ++delivered;
  }
  EXPECT_EQ(delivered, next) << "items lost";
}

// slsm.carry stretches the window between reading the replaced array's
// range ends and storing them in the next array, while deleters recompute
// and claim from those ranges.
TEST_F(KLsmTortureTest, InjectedCarrySeamStaysConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7063,
                                        validation::FaultAction::kDelay,
                                        "slsm.carry");
  const std::uint64_t before = validation::fault_injections_fired();
  contended_mix<KLsmQueue<K, V>>(0x7064, /*relaxation=*/16);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "slsm.carry seam compiled in but never crossed";
}

// A publication that carries the ranges over reads the replaced array's
// range ends, checks its new block against X, the largest key at them, and
// stores them (slsm.carry between the last two). Held there while a deleter
// recomputes those ranges over larger keys, it must store the ends it read:
// ends paired with an older X would put the new block's key below k+1
// candidates. The published ranges must keep the bound: every live item in
// them has at most k strictly smaller live items, by a full scan.
TEST_F(KLsmTortureTest, CarryHeldWhileADeleterRecomputesKeepsTheBound) {
  using SlsmT = klsm_detail::Slsm<K, V>;
  constexpr std::uint64_t k = 4;
  SlsmT slsm(k);
  std::vector<std::pair<K, V>> items;
  for (K key = 0; key < 64; ++key) items.emplace_back(key, key);
  slsm.insert_batch(std::move(items));
  // Claim the k+1 candidates, keys 0..k; their ranges stay drained until a
  // deleter recomputes them.
  Xoroshiro128 rng(0x7062);
  SlsmT::View view;
  K key;
  V value;
  for (std::uint64_t i = 0; i <= k; ++i) {
    ASSERT_TRUE(slsm.delete_min(key, value, rng, view));
    ASSERT_LE(key, k);
  }
  validation::fault_injection_configure(1'000'000, 0x7061,
                                        validation::FaultAction::kHold,
                                        "slsm.carry");
  // One item at X + 1: its block starts above X, so the ranges are carried.
  std::thread inserter([&slsm] { slsm.insert(k + 1, 1000); });
  struct Release {
    std::thread& thread;
    ~Release() {
      validation::fault_injection_configure(0, 42);
      if (thread.joinable()) thread.join();
    }
  } release{inserter};
  while (validation::fault_injection_held() < 1) std::this_thread::yield();
  {
    // The deleter finds its view drained and recomputes: keys k+1..2k+1.
    mm::EbrDomain::Guard guard;
    SlsmT::Candidate candidate;
    ASSERT_TRUE(slsm.peek_candidate(view, candidate, rng));
    ASSERT_GT(candidate.key, k);
  }
  validation::fault_injection_configure(0, 42);
  inserter.join();

  mm::EbrDomain::Guard guard;
  const klsm_detail::SlsmArray<K, V>& array = *slsm.current_array();
  ASSERT_EQ(array.count, 2u);
  std::vector<K> live;
  for (std::uint32_t i = 0; i < array.count; ++i) {
    const auto& block = *array.blocks[i];
    for (std::uint32_t s = block.first_live(); s < block.slot_count();
         s = block.next_live(s + 1, block.slot_count())) {
      live.push_back(block.slot(s).first);
    }
  }
  std::sort(live.begin(), live.end());
  for (std::uint32_t i = 0; i < array.count; ++i) {
    const auto& block = *array.blocks[i];
    const std::uint32_t end = array.pivot_end[i].load();
    for (std::uint32_t s = block.next_live(0, end); s < end;
         s = block.next_live(s + 1, end)) {
      const K candidate = block.slot(s).first;
      EXPECT_LE(std::lower_bound(live.begin(), live.end(), candidate) -
                    live.begin(),
                static_cast<std::ptrdiff_t>(k))
          << "candidate " << candidate << " in block " << i;
    }
  }
}

TEST_F(KLsmTortureTest, StandaloneComponentsUnderMergeSeamInjection) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7056,
                                        validation::FaultAction::kDelay,
                                        "block.");
  contended_mix<SlsmQueue<K, V>>(0x7057, /*relaxation=*/16);
}

// ---- flat-combining queue: combiner handoff seams ------------------------

// The typed suite runs the fc queue under uniform injection; this focuses
// on the publication-record handshake (fc.publish between payload write and
// the pending store, fc.combine stretching the combining session).
class FcTortureTest : public ::testing::Test {
 protected:
  void TearDown() override { validation::fault_injection_configure(0, 42); }
};

TEST_F(FcTortureTest, CombinerHandoffSeamsStayConservative) {
  validation::fault_injection_configure(/*ppm=*/50'000, /*seed=*/0x7058,
                                        validation::FaultAction::kDelay,
                                        "fc.");
  const std::uint64_t before = validation::fault_injections_fired();
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 6000;
  validation::CheckedQueue<FcPriorityQueue<K, V>> queue(
      kThreads, std::make_unique<FcPriorityQueue<K, V>>(kThreads));
  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(thread_seed(0x7059, tid));
    std::uint64_t inserted = 0;
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      if (rng.next_below(100) < 60) {
        handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
      } else {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "fc.publish/fc.combine seams compiled in but never crossed";
}

// ---- the PriorityService layer over every roster queue -------------------

// The dispatch engine (sharding, insertion/deletion buffers, admission
// control) must preserve exactly-once delivery on top of *any* shard queue,
// with every queue-internal seam stretched by injection. The CheckedQueue
// audit wraps the whole service, so a task lost in a buffer, dropped in a
// flush, or double-delivered by a refill fails with the full report.
template <typename Q>
std::unique_ptr<service::PriorityService<Q>> make_service(
    unsigned threads, const service::ServiceConfig& cfg) {
  return std::make_unique<service::PriorityService<Q>>(
      threads, cfg, [&](unsigned) { return make_queue<Q>(threads); });
}

template <typename Q>
class ServiceTortureTest : public TortureTest<Q> {};

TYPED_TEST_SUITE(ServiceTortureTest, QueueTypes);

// The two insertion publication paths: the default rate gate, which under
// injected delays mostly publishes one task per flush, and count-only
// batching, which keeps the multi-task flush under audit. The third setting
// is the default gate with a TTL nothing reaches: every task then carries a
// deadline slot from its producer's slot cache to its consumer's, so the
// caches' cross-thread hand-off is audited too, with nothing shed.
struct ServiceTortureSetting {
  std::uint64_t batch_gap_ns;
  std::uint64_t ttl_us;
};
const ServiceTortureSetting kServiceSettings[] = {
    {service::ServiceConfig{}.batch_gap_ns, 0},
    {std::numeric_limits<std::uint64_t>::max(), 0},
    {service::ServiceConfig{}.batch_gap_ns, 60'000'000},
};

TYPED_TEST(ServiceTortureTest, DispatchConservesTasksUnderInjection) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 4000;
  for (const ServiceTortureSetting& setting : kServiceSettings) {
    SCOPED_TRACE(testing::Message() << "batch_gap_ns=" << setting.batch_gap_ns
                                    << " ttl_us=" << setting.ttl_us);
    service::ServiceConfig scfg;
    scfg.shards = 2;
    scfg.insert_batch = 4;
    scfg.delete_batch = 4;
    scfg.batch_gap_ns = setting.batch_gap_ns;
    scfg.ttl_us = setting.ttl_us;
    using Service = service::PriorityService<TypeParam>;
    validation::CheckedQueue<Service> queue(
        kThreads, make_service<TypeParam>(kThreads, scfg));

    run_team(kThreads, [&](unsigned tid) {
      auto handle = queue.get_handle(tid);
      Xoroshiro128 rng(thread_seed(0x7043, tid));
      std::uint64_t inserted = 0;
      for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
        if (rng.next_below(100) < 60) {
          handle.insert(rng.next_below(1u << 10), value_of(tid, inserted++));
        } else {
          K k;
          V v;
          handle.delete_min(k, v);
        }
      }
    });

    const validation::ReconcileReport report = queue.reconcile();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.inserted, 0u);
    EXPECT_EQ(queue.inner().stats().shed_deadline, 0u);
  }
}

// Shutdown under backpressure: a small in-flight bound keeps producers
// blocked (the kBlock policy), consumers stop while work is still queued,
// and the reconcile drain must still account for every accepted task.
TYPED_TEST(ServiceTortureTest, BackpressureShutdownConservesTasks) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  for (const ServiceTortureSetting& setting : kServiceSettings) {
    SCOPED_TRACE(testing::Message() << "batch_gap_ns=" << setting.batch_gap_ns
                                    << " ttl_us=" << setting.ttl_us);
    service::ServiceConfig scfg;
    scfg.shards = 2;
    scfg.insert_batch = 4;
    scfg.delete_batch = 4;
    scfg.max_in_flight = 64;
    scfg.policy = service::AdmissionPolicy::kBlock;
    scfg.batch_gap_ns = setting.batch_gap_ns;
    scfg.ttl_us = setting.ttl_us;
    using Service = service::PriorityService<TypeParam>;
    validation::CheckedQueue<Service> queue(
        kThreads, make_service<TypeParam>(kThreads, scfg));

    std::atomic<unsigned> producers_done{0};
    run_team(kThreads, [&](unsigned tid) {
      auto handle = queue.get_handle(tid);
      if (tid < 2) {
        Xoroshiro128 rng(thread_seed(0x7044, tid));
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          handle.insert(rng.next_below(1u << 12), value_of(tid, i));
        }
        producers_done.fetch_add(1, std::memory_order_release);
      } else {
        K k;
        V v;
        unsigned misses = 0;
        while (misses < 64) {
          if (handle.delete_min(k, v)) {
            misses = 0;
          } else if (producers_done.load(std::memory_order_acquire) == 2) {
            ++misses;
          }
        }
      }
    });

    const validation::ReconcileReport report = queue.reconcile();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.inserted, 2 * kPerProducer);
    EXPECT_EQ(queue.inner().stats().shed_deadline, 0u);
  }
}

// ---- the validation layer must catch a queue that is actually broken -----

// Wraps GlobalLockQueue and silently swallows the Nth insert: the classic
// "lost item" bug (e.g. a publish race dropping a block).
class DroppingQueue {
 public:
  using key_type = K;
  using value_type = V;
  using Inner = GlobalLockQueue<K, V>;

  DroppingQueue(unsigned threads, std::uint64_t drop_index)
      : inner_(threads), drop_index_(drop_index) {}

  class Handle {
   public:
    void insert(K key, V value) {
      if (owner_->next_insert_.fetch_add(1, std::memory_order_relaxed) ==
          owner_->drop_index_) {
        return;  // the bug: item vanishes without a trace
      }
      inner_.insert(key, value);
    }
    bool delete_min(K& key_out, V& value_out) {
      return inner_.delete_min(key_out, value_out);
    }

   private:
    friend class DroppingQueue;
    Handle(Inner::Handle inner, DroppingQueue* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Inner::Handle inner_;
    DroppingQueue* owner_;
  };

  Handle get_handle(unsigned tid) {
    return Handle(inner_.get_handle(tid), this);
  }

 private:
  Inner inner_;
  const std::uint64_t drop_index_;
  std::atomic<std::uint64_t> next_insert_{0};
};

TEST(CheckedQueueDetectsBugs, LostInsertIsReported) {
  constexpr unsigned kThreads = 2;
  validation::CheckedQueue<DroppingQueue> queue(
      kThreads, std::make_unique<DroppingQueue>(kThreads, /*drop_index=*/137));

  run_team(kThreads, [&](unsigned tid) {
    auto handle = queue.get_handle(tid);
    Xoroshiro128 rng(tid + 11);
    for (std::uint64_t i = 0; i < 400; ++i) {
      handle.insert(rng.next_below(1u << 10), value_of(tid, i));
      if (i % 3 == 0) {
        K k;
        V v;
        handle.delete_min(k, v);
      }
    }
  });

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.lost, 1u) << report.to_string();
  EXPECT_EQ(report.duplicated, 0u) << report.to_string();
  EXPECT_EQ(report.fabricated, 0u) << report.to_string();
}

// Replays the first delivered item once more after the queue runs empty: a
// double-delivery bug (e.g. a claim flag lost on a merge path).
class DuplicatingQueue {
 public:
  using key_type = K;
  using value_type = V;
  using Inner = GlobalLockQueue<K, V>;

  explicit DuplicatingQueue(unsigned threads) : inner_(threads) {}

  class Handle {
   public:
    void insert(K key, V value) { inner_.insert(key, value); }
    bool delete_min(K& key_out, V& value_out) {
      if (inner_.delete_min(key_out, value_out)) {
        if (!owner_->stash_) owner_->stash_ = {key_out, value_out};
        return true;
      }
      if (owner_->stash_ && !owner_->replayed_) {
        owner_->replayed_ = true;  // the bug: one item delivered twice
        key_out = owner_->stash_->first;
        value_out = owner_->stash_->second;
        return true;
      }
      return false;
    }

   private:
    friend class DuplicatingQueue;
    Handle(Inner::Handle inner, DuplicatingQueue* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Inner::Handle inner_;
    DuplicatingQueue* owner_;
  };

  Handle get_handle(unsigned tid) {
    return Handle(inner_.get_handle(tid), this);
  }

 private:
  Inner inner_;
  std::optional<std::pair<K, V>> stash_;  // single-threaded test only
  bool replayed_ = false;
};

TEST(CheckedQueueDetectsBugs, DuplicateDeliveryIsReported) {
  validation::CheckedQueue<DuplicatingQueue> queue(
      1, std::make_unique<DuplicatingQueue>(1));
  {
    auto handle = queue.get_handle(0);
    for (std::uint64_t i = 0; i < 100; ++i) {
      handle.insert(i, value_of(0, i));
    }
  }
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.duplicated, 1u) << report.to_string();
  EXPECT_EQ(report.lost, 0u) << report.to_string();
}

// Invents an item that was never inserted (e.g. reading a reclaimed node).
class FabricatingQueue {
 public:
  using key_type = K;
  using value_type = V;
  using Inner = GlobalLockQueue<K, V>;

  explicit FabricatingQueue(unsigned threads) : inner_(threads) {}

  class Handle {
   public:
    void insert(K key, V value) { inner_.insert(key, value); }
    bool delete_min(K& key_out, V& value_out) {
      if (inner_.delete_min(key_out, value_out)) return true;
      if (!owner_->fabricated_) {
        owner_->fabricated_ = true;  // the bug: item from nowhere
        key_out = 42;
        value_out = 0xF00DF00DULL;
        return true;
      }
      return false;
    }

   private:
    friend class FabricatingQueue;
    Handle(Inner::Handle inner, FabricatingQueue* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Inner::Handle inner_;
    FabricatingQueue* owner_;
  };

  Handle get_handle(unsigned tid) {
    return Handle(inner_.get_handle(tid), this);
  }

 private:
  Inner inner_;
  bool fabricated_ = false;  // single-threaded test only
};

TEST(CheckedQueueDetectsBugs, FabricatedItemIsReported) {
  validation::CheckedQueue<FabricatingQueue> queue(
      1, std::make_unique<FabricatingQueue>(1));
  {
    auto handle = queue.get_handle(0);
    for (std::uint64_t i = 0; i < 50; ++i) {
      handle.insert(i, value_of(0, i));
    }
  }
  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.fabricated, 1u) << report.to_string();
  EXPECT_EQ(report.lost, 0u) << report.to_string();
  EXPECT_EQ(report.duplicated, 0u) << report.to_string();
}

// ---- the injection hooks must actually fire ------------------------------

TEST(FaultInjectionTest, HooksFireUnderLoad) {
  validation::fault_injection_configure(/*ppm=*/200'000, /*seed=*/99);
  const std::uint64_t before = validation::fault_injections_fired();
  {
    auto queue = make_queue<KLsmQueue<K, V>>(2);
    run_team(2, [&](unsigned tid) {
      auto handle = queue->get_handle(tid);
      Xoroshiro128 rng(tid + 1);
      for (std::uint64_t i = 0; i < 500; ++i) {
        handle.insert(rng.next_below(1u << 8), value_of(tid, i));
        K k;
        V v;
        handle.delete_min(k, v);
      }
    });
  }
  validation::fault_injection_configure(0, 42);
  EXPECT_GT(validation::fault_injections_fired(), before)
      << "CPQ_INJECT hooks compiled in but never fired";
}

// ---- watchdog behaviour ---------------------------------------------------

TEST(WatchdogTest, NoAbortWhileProgressing) {
  std::vector<validation::WorkerProgress> progress(1);
  validation::Watchdog watchdog("progressing", progress.data(), 1,
                                /*deadline_s=*/0.2);
  // Tick well inside the deadline for a few deadline-lengths; if the
  // watchdog misfires it kills the whole test binary, which is the failure.
  for (int i = 1; i <= 10; ++i) {
    progress[0].tick(static_cast<std::uint64_t>(i),
                     validation::LastOp::kInsert);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  watchdog.stop();
  SUCCEED();
}

// A queue whose delete_min eventually spins forever: the livelock the
// watchdog exists for. Workers stop ticking, the heartbeat sum freezes, and
// the closed-loop harness's supervisor must dump diagnostics and _Exit(86)
// in every mode.
class StallingQueue {
 public:
  using key_type = K;
  using value_type = V;

  explicit StallingQueue(unsigned) {}

  class Handle {
   public:
    void insert(K, V) {}
    bool delete_min(K&, V&) {
      if (++calls_ > 100) {
        for (;;) std::this_thread::yield();  // livelock
      }
      return false;
    }

   private:
    std::uint64_t calls_ = 0;
  };

  Handle get_handle(unsigned) { return Handle(); }
};

template <typename Mode>
void run_stalling(const bench::BenchConfig& cfg) {
  bench::run_closed_loop<Mode>(
      [](unsigned threads, std::uint64_t, const bench::BenchConfig&) {
        return std::make_unique<StallingQueue>(threads);
      },
      cfg);
}

struct ClosedLoopMode {
  const char* name;
  void (*run)(const bench::BenchConfig&);
  friend void PrintTo(const ClosedLoopMode& mode, std::ostream* out) {
    *out << mode.name;
  }
};

class WatchdogDeathTest : public ::testing::TestWithParam<ClosedLoopMode> {};

TEST_P(WatchdogDeathTest, StallingQueueTriggersAbortWithDiagnostics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  bench::BenchConfig cfg;
  cfg.threads = 2;
  cfg.duration_s = 30.0;         // far beyond the watchdog deadline
  cfg.ops_per_thread = 100'000;  // likewise: the queue stalls at pop 101
  cfg.prefill = 1000;            // sort's insert phase; no-op inserts
  cfg.repetitions = 1;
  cfg.watchdog_s = 0.25;
  cfg.label = "stalling-queue";
  EXPECT_EXIT(GetParam().run(cfg),
              ::testing::ExitedWithCode(validation::kWatchdogExitCode),
              "cpq-watchdog.*stalling-queue");
}

INSTANTIATE_TEST_SUITE_P(
    ClosedLoopModes, WatchdogDeathTest,
    ::testing::Values(
        ClosedLoopMode{"throughput", run_stalling<bench::ThroughputMode>},
        ClosedLoopMode{"quality", run_stalling<bench::QualityMode>},
        ClosedLoopMode{"latency", run_stalling<bench::LatencyMode>},
        ClosedLoopMode{"sort", run_stalling<bench::SortMode>}));

}  // namespace
}  // namespace cpq
