// Cross-queue sequential semantics, typed over every queue in the library.
//
// All queues (strict and relaxed) must satisfy, single-threaded:
//   * no loss, no duplication, no invention of items;
//   * delete_min on empty returns false;
//   * strict queues return keys in exactly sorted order;
//   * relaxed queues return keys within their documented rank bound
//     (k-LSM: one of the kP+1 smallest; here P=1 worth of handles).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "platform/rng.hpp"
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

namespace cpq {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;

// Per-queue construction and semantics traits for the typed suite.
template <typename Q>
struct QueueTraits;

template <>
struct QueueTraits<GlobalLockQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<GlobalLockQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  // Maximum rank error a single-threaded delete_min may exhibit.
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<LindenQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<LindenQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<HuntHeap<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<HuntHeap<K, V>>(threads, 1u << 18);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<SprayList<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<SprayList<K, V>>(threads);
  }
  static constexpr bool kStrict = false;
  static std::uint64_t rank_bound(unsigned threads) {
    // O(P log^3 P); generous constant for the statistical test below.
    const double logp = std::bit_width(threads) + 1;
    return static_cast<std::uint64_t>(64 * threads * logp * logp * logp);
  }
};

template <>
struct QueueTraits<MultiQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<MultiQueue<K, V>>(threads, 4);
  }
  static constexpr bool kStrict = false;
  static std::uint64_t rank_bound(unsigned) {
    return std::numeric_limits<std::uint64_t>::max();  // no hard bound
  }
};

template <>
struct QueueTraits<KLsmQueue<K, V>> {
  static constexpr std::uint64_t kRelax = 128;
  static auto make(unsigned threads) {
    return std::make_unique<KLsmQueue<K, V>>(threads, kRelax);
  }
  static constexpr bool kStrict = false;
  static std::uint64_t rank_bound(unsigned threads) {
    return kRelax * threads;  // paper: skips at most kP items
  }
};

template <>
struct QueueTraits<DlsmQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<DlsmQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = false;  // strict per-thread, relaxed globally
  static std::uint64_t rank_bound(unsigned) { return 0; }  // single handle
};

template <>
struct QueueTraits<SlsmQueue<K, V>> {
  static constexpr std::uint64_t kRelax = 128;
  static auto make(unsigned threads) {
    return std::make_unique<SlsmQueue<K, V>>(threads, kRelax);
  }
  static constexpr bool kStrict = false;
  static std::uint64_t rank_bound(unsigned) { return kRelax; }
};

template <>
struct QueueTraits<ShavitLotanQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<ShavitLotanQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<SundellTsigasQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<SundellTsigasQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<Mound<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<Mound<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<ChunkBasedQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<ChunkBasedQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

template <>
struct QueueTraits<FcPriorityQueue<K, V>> {
  static auto make(unsigned threads) {
    return std::make_unique<FcPriorityQueue<K, V>>(threads);
  }
  static constexpr bool kStrict = true;
  static std::uint64_t rank_bound(unsigned) { return 0; }
};

using QueueTypes =
    ::testing::Types<GlobalLockQueue<K, V>, LindenQueue<K, V>, HuntHeap<K, V>,
                     SprayList<K, V>, MultiQueue<K, V>, KLsmQueue<K, V>,
                     DlsmQueue<K, V>, SlsmQueue<K, V>,
                     ShavitLotanQueue<K, V>, SundellTsigasQueue<K, V>,
                     Mound<K, V>, ChunkBasedQueue<K, V>,
                     FcPriorityQueue<K, V>>;

template <typename Q>
class QueueSequentialTest : public ::testing::Test {};

TYPED_TEST_SUITE(QueueSequentialTest, QueueTypes);

TYPED_TEST(QueueSequentialTest, EmptyDeleteReturnsFalse) {
  auto queue = QueueTraits<TypeParam>::make(1);
  auto handle = queue->get_handle(0);
  K k;
  V v;
  EXPECT_FALSE(handle.delete_min(k, v));
}

TYPED_TEST(QueueSequentialTest, SingleItemRoundTrip) {
  auto queue = QueueTraits<TypeParam>::make(1);
  auto handle = queue->get_handle(0);
  handle.insert(42, 4200);
  K k;
  V v;
  ASSERT_TRUE(handle.delete_min(k, v));
  EXPECT_EQ(k, 42u);
  EXPECT_EQ(v, 4200u);
  EXPECT_FALSE(handle.delete_min(k, v));
}

TYPED_TEST(QueueSequentialTest, NoLossNoDuplicationNoInvention) {
  auto queue = QueueTraits<TypeParam>::make(1);
  auto handle = queue->get_handle(0);
  Xoroshiro128 rng(11);
  std::multiset<K> inserted_keys;
  std::set<V> inserted_values;
  for (V i = 0; i < 5000; ++i) {
    const K key = rng.next_below(2000);
    handle.insert(key, i);
    inserted_keys.insert(key);
    inserted_values.insert(i);
  }
  std::multiset<K> deleted_keys;
  std::set<V> deleted_values;
  K k;
  V v;
  while (handle.delete_min(k, v)) {
    deleted_keys.insert(k);
    ASSERT_TRUE(inserted_values.count(v)) << "invented value " << v;
    ASSERT_TRUE(deleted_values.insert(v).second) << "duplicated value " << v;
  }
  EXPECT_EQ(deleted_keys, inserted_keys);
}

TYPED_TEST(QueueSequentialTest, StrictQueuesSortExactly) {
  if (!QueueTraits<TypeParam>::kStrict) GTEST_SKIP();
  auto queue = QueueTraits<TypeParam>::make(1);
  auto handle = queue->get_handle(0);
  Xoroshiro128 rng(13);
  std::vector<K> keys;
  for (V i = 0; i < 4000; ++i) {
    const K key = rng.next_below(1500);
    keys.push_back(key);
    handle.insert(key, i);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    K k;
    V v;
    ASSERT_TRUE(handle.delete_min(k, v));
    ASSERT_EQ(k, keys[i]) << "at position " << i;
  }
}

TYPED_TEST(QueueSequentialTest, RelaxedQueuesRespectRankBound) {
  const unsigned threads = 1;
  const std::uint64_t bound = QueueTraits<TypeParam>::rank_bound(threads);
  if (bound == std::numeric_limits<std::uint64_t>::max()) GTEST_SKIP();
  auto queue = QueueTraits<TypeParam>::make(threads);
  auto handle = queue->get_handle(0);
  Xoroshiro128 rng(17);
  std::multiset<K> model;
  for (V i = 0; i < 4000; ++i) {
    const K key = rng.next_below(1u << 20);
    handle.insert(key, i);
    model.insert(key);
  }
  for (int i = 0; i < 3500; ++i) {
    K k;
    V v;
    ASSERT_TRUE(handle.delete_min(k, v));
    auto it = model.begin();
    std::advance(it, std::min<std::size_t>(bound, model.size() - 1));
    ASSERT_LE(k, *it) << "rank bound " << bound << " violated";
    const auto found = model.find(k);
    ASSERT_NE(found, model.end());
    model.erase(found);
  }
}

TYPED_TEST(QueueSequentialTest, AlternatingInsertDeleteHoldsSteadyState) {
  auto queue = QueueTraits<TypeParam>::make(1);
  auto handle = queue->get_handle(0);
  // Prefill.
  Xoroshiro128 rng(19);
  for (V i = 0; i < 1000; ++i) handle.insert(rng.next_below(10000), i);
  std::uint64_t deletions = 0;
  for (int round = 0; round < 5000; ++round) {
    handle.insert(rng.next_below(10000), 1000 + round);
    K k;
    V v;
    if (handle.delete_min(k, v)) ++deletions;
  }
  EXPECT_EQ(deletions, 5000u);
}

TYPED_TEST(QueueSequentialTest, DuplicateKeysAllComeBack) {
  auto queue = QueueTraits<TypeParam>::make(1);
  auto handle = queue->get_handle(0);
  for (V i = 0; i < 500; ++i) handle.insert(7, i);
  std::set<V> values;
  K k;
  V v;
  while (handle.delete_min(k, v)) {
    EXPECT_EQ(k, 7u);
    EXPECT_TRUE(values.insert(v).second);
  }
  EXPECT_EQ(values.size(), 500u);
}

// Regression: MultiQueue mirrors each local queue's minimum into an atomic,
// with numeric_limits<Key>::max() doubling as the "empty" sentinel. An item
// whose key *is* the maximal key makes the mirror indistinguishable from an
// empty queue; delete_min must fall back on the exact per-queue counts and
// never lose such an item (src/queues/multiqueue.hpp count mirror).
TEST(MultiQueueMaxKey, MaximalKeyItemsAreNeverLost) {
  constexpr K kMax = std::numeric_limits<K>::max();
  static_assert(MultiQueue<K, V>::kEmptyKey == kMax);
  MultiQueue<K, V> queue(1, 4, /*seed=*/3);
  auto handle = queue.get_handle(0);
  for (V i = 0; i < 64; ++i) handle.insert(kMax, i);
  std::set<V> values;
  K k;
  V v;
  while (handle.delete_min(k, v)) {
    EXPECT_EQ(k, kMax);
    EXPECT_TRUE(values.insert(v).second) << "duplicated value " << v;
  }
  EXPECT_EQ(values.size(), 64u);
  EXPECT_FALSE(handle.delete_min(k, v));
}

TEST(MultiQueueMaxKey, MaximalKeySortsAfterEverythingElse) {
  constexpr K kMax = std::numeric_limits<K>::max();
  MultiQueue<K, V> queue(1, 4, /*seed=*/5);
  auto handle = queue.get_handle(0);
  handle.insert(kMax, 1);
  handle.insert(10, 2);
  handle.insert(kMax - 1, 3);
  std::vector<K> keys;
  K k;
  V v;
  while (handle.delete_min(k, v)) keys.push_back(k);
  ASSERT_EQ(keys.size(), 3u);
  // Relaxed ordering across local queues, but nothing may vanish and the
  // maximal key must still be present.
  EXPECT_EQ(std::count(keys.begin(), keys.end(), kMax), 1);
  EXPECT_EQ(std::count(keys.begin(), keys.end(), 10u), 1);
}

// mq-eng's caller-buffered pop: up to n ascending minima of one local
// queue, none parked in the handle, 0 once every queue is empty.
TEST(EngMultiQueueDeleteBatch, PopsAscendingMinimaOfOneHeapAndNoMore) {
  using Eng = EngMultiQueue<K, V>;
  using Item = Eng::Item;
  Eng queue(2);
  auto a = queue.get_handle(0);
  auto b = queue.get_handle(1);
  Item out[64];
  EXPECT_EQ(a.delete_batch(out, 8), 0u);

  // insert_batch lands the whole batch in one local queue.
  std::vector<Item> items;
  for (K k = 0; k < 20; ++k) items.emplace_back((k * 7) % 20, k);
  a.insert_batch(items.data(), items.size());

  ASSERT_EQ(a.delete_batch(out, 8), 8u);
  for (K k = 0; k < 8; ++k) EXPECT_EQ(out[k].first, k);
  // Another handle pops the rest of that heap ...
  ASSERT_EQ(b.delete_batch(out, 64), 12u);
  for (K k = 0; k < 12; ++k) EXPECT_EQ(out[k].first, k + 8);
  // ... and nothing was parked in a's own deletion buffer.
  K key;
  V value;
  EXPECT_FALSE(a.delete_min(key, value));
  EXPECT_EQ(b.delete_batch(out, 64), 0u);
}

TYPED_TEST(QueueSequentialTest, ManyHandlesOneThreadStillCorrect) {
  // Handles may be created freely; using several from one thread must not
  // confuse per-thread state.
  auto queue = QueueTraits<TypeParam>::make(4);
  auto h0 = queue->get_handle(0);
  auto h1 = queue->get_handle(1);
  auto h2 = queue->get_handle(2);
  for (V i = 0; i < 300; ++i) {
    h0.insert(3 * i, i);
    h1.insert(3 * i + 1, 1000 + i);
    h2.insert(3 * i + 2, 2000 + i);
  }
  std::set<V> values;
  K k;
  V v;
  auto h3 = queue->get_handle(3);
  while (h3.delete_min(k, v)) values.insert(v);
  // h3's view may require stealing from the other handles' thread slots
  // (DLSM); every item must still be reachable.
  EXPECT_EQ(values.size(), 900u);
}

}  // namespace
}  // namespace cpq
