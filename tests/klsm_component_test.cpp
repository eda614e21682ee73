// Component tests for the k-LSM internals: Block claim semantics, its
// packed claim words and claim-merge exactly-once behaviour, BlockArray
// minimum search, the ThreadLocalLsm (DLSM) including concurrent spy
// stealing, and the SLSM's pivot-range relaxation guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "queues/klsm/block.hpp"
#include "queues/klsm/dlsm.hpp"
#include "queues/klsm/slsm.hpp"

namespace cpq::klsm_detail {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using BlockT = Block<K, V>;
using ArrayT = BlockArray<K, V>;

std::vector<std::pair<K, V>> make_items(std::initializer_list<K> keys) {
  std::vector<std::pair<K, V>> items;
  V v = 0;
  for (K k : keys) items.emplace_back(k, v++);
  return items;
}

TEST(Block, CreateAndInspect) {
  BlockT* block = BlockT::create(make_items({1, 3, 5, 9}));
  EXPECT_EQ(block->slot_count(), 4u);
  EXPECT_EQ(block->capacity(), 4u);
  EXPECT_EQ(block->first_live(), 0u);
  EXPECT_EQ(block->slot(2).key, 5u);
  block->unref();
}

TEST(Block, CapacityIsNextPowerOfTwo) {
  BlockT* block = BlockT::create(make_items({1, 2, 3, 4, 5}));
  EXPECT_EQ(block->capacity(), 8u);
  block->unref();
}

TEST(Block, ClaimIsExactlyOnceSequential) {
  BlockT* block = BlockT::create(make_items({1, 2, 3}));
  EXPECT_TRUE(block->claim(1));
  EXPECT_FALSE(block->claim(1));
  EXPECT_EQ(block->first_live(), 0u);
  EXPECT_TRUE(block->claim(0));
  EXPECT_EQ(block->first_live(), 2u);
  block->unref();
}

TEST(Block, UpperBoundCountsKeysBelowThreshold) {
  BlockT* block = BlockT::create(make_items({2, 4, 4, 4, 8}));
  EXPECT_EQ(block->upper_bound(1), 0u);
  EXPECT_EQ(block->upper_bound(2), 1u);
  EXPECT_EQ(block->upper_bound(4), 4u);
  EXPECT_EQ(block->upper_bound(100), 5u);
  block->unref();
}

TEST(Block, ConcurrentClaimExactlyOnce) {
  constexpr std::uint32_t n = 4096;
  std::vector<std::pair<K, V>> items;
  for (std::uint32_t i = 0; i < n; ++i) items.emplace_back(i, i);
  BlockT* block = BlockT::create(std::move(items));
  std::atomic<std::uint32_t> claimed{0};
  run_team(4, [&](unsigned) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (block->claim(i)) claimed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(claimed.load(), n);
  EXPECT_EQ(block->first_live(), n);
  block->unref();
}

TEST(Block, ClaimMergeKeepsSortedOrderAndMovesEverything) {
  BlockT* a = BlockT::create(make_items({1, 4, 7}));
  BlockT* b = BlockT::create(make_items({2, 4, 9, 12}));
  auto merged = claim_merge(*a, *b);
  ASSERT_EQ(merged.size(), 7u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                             [](const auto& x, const auto& y) {
                               return x.first < y.first;
                             }));
  // Sources fully claimed.
  EXPECT_EQ(a->first_live(), a->slot_count());
  EXPECT_EQ(b->first_live(), b->slot_count());
  a->unref();
  b->unref();
}

TEST(Block, ClaimMergeSkipsAlreadyClaimed) {
  BlockT* a = BlockT::create(make_items({1, 4, 7}));
  BlockT* b = BlockT::create(make_items({2, 9}));
  ASSERT_TRUE(a->claim(1));  // key 4 gone
  auto merged = claim_merge(*a, *b);
  std::vector<K> keys;
  for (auto& [k, v] : merged) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<K>{1, 2, 7, 9}));
  a->unref();
  b->unref();
}

// Concurrent merge vs claimants: every item is delivered exactly once,
// either to a racing claimant or into the merged output.
TEST(Block, ConcurrentMergeAndClaimDeliverExactlyOnce) {
  for (int round = 0; round < 20; ++round) {
    constexpr std::uint32_t n = 2048;
    std::vector<std::pair<K, V>> ia, ib;
    for (std::uint32_t i = 0; i < n; ++i) ia.emplace_back(2 * i, i);
    for (std::uint32_t i = 0; i < n; ++i) ib.emplace_back(2 * i + 1, n + i);
    BlockT* a = BlockT::create(std::move(ia));
    BlockT* b = BlockT::create(std::move(ib));

    std::vector<std::pair<K, V>> merged;
    std::vector<V> stolen_a, stolen_b;
    run_team(3, [&](unsigned tid) {
      if (tid == 0) {
        merged = claim_merge(*a, *b);
      } else if (tid == 1) {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (a->claim(i)) stolen_a.push_back(a->slot(i).value);
        }
      } else {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (b->claim(i)) stolen_b.push_back(b->slot(i).value);
        }
      }
    });
    std::set<V> all;
    std::size_t total = 0;
    auto account = [&](V v) {
      EXPECT_TRUE(all.insert(v).second);
      ++total;
    };
    for (auto& [k, v] : merged) account(v);
    for (V v : stolen_a) account(v);
    for (V v : stolen_b) account(v);
    ASSERT_EQ(total, 2 * n);
    a->unref();
    b->unref();
  }
}

// ---- claim words ---------------------------------------------------------
//
// Each 64 slots share one packed claim word; bits past slot_count() in the
// last word start claimed. Sizes straddle every word boundary case: a lone
// slot, one short of a word, exactly one word, one past it, two words, and
// a block whose last word holds a single real slot.

std::vector<std::pair<K, V>> sequential_items(std::uint32_t n) {
  std::vector<std::pair<K, V>> items;
  for (std::uint32_t i = 0; i < n; ++i) items.emplace_back(i, 1000 + i);
  return items;
}

const std::uint32_t kWordEdgeSizes[] = {1, 63, 64, 65, 127, 128, 129, 4097};

TEST(BlockClaimWords, EverySizeClaimsAndDrainsEachSlotOnce) {
  for (const std::uint32_t n : kWordEdgeSizes) {
    SCOPED_TRACE(n);
    BlockT* drained = BlockT::create(sequential_items(n));
    EXPECT_EQ(drained->first_live(), 0u);
    std::vector<std::pair<K, V>> out;
    drained->drain_into(out);
    EXPECT_EQ(out, sequential_items(n));
    EXPECT_EQ(drained->first_live(), n);
    EXPECT_EQ(drained->live_estimate(), 0u);
    out.clear();
    drained->drain_into(out);
    EXPECT_TRUE(out.empty());
    drained->unref();

    BlockT* claimed = BlockT::create(sequential_items(n));
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(claimed->first_live(), i);
      ASSERT_TRUE(claimed->claim(i));
      ASSERT_FALSE(claimed->claim(i));
    }
    EXPECT_EQ(claimed->first_live(), n);
    EXPECT_EQ(claimed->next_live(0, n), n);
    claimed->unref();
  }
}

TEST(BlockClaimWords, FirstAndNextLiveCrossWordBoundaries) {
  // Words cover [0,64) [64,128) [128,192) and [192,200).
  constexpr std::uint32_t n = 200;
  BlockT* block = BlockT::create(sequential_items(n));
  const std::set<std::uint32_t> live = {63, 64, 127, 128, 199};
  for (std::uint32_t i = 0; i < n; ++i) {
    if (live.count(i) == 0) {
      ASSERT_TRUE(block->claim(i));
    }
  }
  EXPECT_EQ(block->first_live(), 63u);
  EXPECT_EQ(block->next_live(0, n), 63u);
  EXPECT_EQ(block->next_live(64, n), 64u);
  EXPECT_EQ(block->next_live(65, n), 127u);
  EXPECT_EQ(block->next_live(128, n), 128u);
  EXPECT_EQ(block->next_live(129, n), 199u);
  // The limit bounds the walk: nothing live in [65, 127) or [129, 199).
  EXPECT_EQ(block->next_live(65, 127), 127u);
  EXPECT_EQ(block->next_live(129, 199), 199u);
  EXPECT_EQ(block->next_live(10, 10), 10u);
  // Claiming the front word's last live slot moves the head into word 1.
  ASSERT_TRUE(block->claim(63));
  EXPECT_EQ(block->first_live(), 64u);
  ASSERT_TRUE(block->claim(64));
  ASSERT_TRUE(block->claim(127));
  EXPECT_EQ(block->first_live(), 128u);
  std::vector<std::pair<K, V>> out;
  block->drain_into(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 128u);
  EXPECT_EQ(out[1].first, 199u);
  block->unref();
}

TEST(BlockClaimWords, PaddingBitsAreNeverClaimedOrDrained) {
  for (const std::uint32_t n : kWordEdgeSizes) {
    SCOPED_TRACE(n);
    BlockT* block = BlockT::create(sequential_items(n));
    // Walking live slots from 0 visits exactly the n real slots.
    std::uint32_t visited = 0;
    for (std::uint32_t s = block->next_live(0, n); s < n;
         s = block->next_live(s + 1, n)) {
      ASSERT_EQ(s, visited);
      ++visited;
    }
    EXPECT_EQ(visited, n);
    // With only the last real slot live, the drain exchanges the last word
    // and must emit that one slot, none of the padding behind it.
    for (std::uint32_t i = 0; i + 1 < n; ++i) ASSERT_TRUE(block->claim(i));
    EXPECT_EQ(block->first_live(), n - 1);
    std::vector<std::pair<K, V>> out;
    block->drain_into(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, K{n - 1});
    EXPECT_EQ(block->first_live(), n);
    block->unref();
  }
}

// A drain exchanges whole words while claimants flip single bits of the
// same words: every item goes to exactly one side.
TEST(BlockClaimWords, DrainRacingBitClaimsDeliversExactlyOnce) {
  for (int round = 0; round < 30; ++round) {
    constexpr std::uint32_t n = 4097;
    BlockT* block = BlockT::create(sequential_items(n));
    std::vector<std::pair<K, V>> drained;
    std::vector<V> claimed[2];
    run_team(3, [&](unsigned tid) {
      if (tid == 0) {
        block->drain_into(drained);
        return;
      }
      // Claimants interleave within every word, from opposite ends.
      for (std::uint32_t j = 0; j < n; ++j) {
        const std::uint32_t i = tid == 1 ? j : n - 1 - j;
        if (i % 3 != tid - 1 && block->claim(i)) {
          claimed[tid - 1].push_back(block->slot(i).value);
        }
      }
    });
    EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end()));
    std::set<V> all;
    std::size_t total = 0;
    auto account = [&](V v) {
      EXPECT_TRUE(all.insert(v).second) << "value " << v << " twice";
      ++total;
    };
    for (auto& [k, v] : drained) account(v);
    for (const auto& side : claimed) {
      for (V v : side) account(v);
    }
    ASSERT_EQ(total, n);
    EXPECT_EQ(block->first_live(), n);
    block->unref();
  }
}

// ---- merge kernels (merge_kernel.hpp) ------------------------------------
//
// The branch-free and SIMD kernels must be byte-for-byte substitutes for
// the scalar oracle: same output, same stable tie-break (ties take from the
// first run). claim_merge edge cases ride along since it now feeds the
// kernels via drain-then-merge.

using Item = std::pair<K, V>;

std::vector<Item> run_kernel_scalar(const std::vector<Item>& a,
                                    const std::vector<Item>& b) {
  std::vector<Item> out(a.size() + b.size());
  const std::size_t n = merge_sorted_scalar(a.data(), a.size(), b.data(),
                                            b.size(), out.data());
  EXPECT_EQ(n, out.size());
  return out;
}

std::vector<Item> run_kernel_branchfree(const std::vector<Item>& a,
                                        const std::vector<Item>& b) {
  std::vector<Item> out(a.size() + b.size());
  const std::size_t n = merge_sorted_branchfree(a.data(), a.size(), b.data(),
                                                b.size(), out.data());
  EXPECT_EQ(n, out.size());
  return out;
}

TEST(MergeKernel, EmptyInputs) {
  const std::vector<Item> empty;
  const std::vector<Item> some = make_items({1, 2, 3});
  EXPECT_TRUE(run_kernel_branchfree(empty, empty).empty());
  EXPECT_EQ(run_kernel_branchfree(some, empty), some);
  EXPECT_EQ(run_kernel_branchfree(empty, some), some);
#if CPQ_MERGE_HAVE_SSE42_TARGET
  if (merge_simd_available()) {
    std::vector<Item> out(some.size());
    ASSERT_EQ(merge_sorted_simd(some.data(), some.size(), empty.data(), 0,
                                out.data()),
              some.size());
    EXPECT_EQ(out, some);
  }
#endif
}

TEST(MergeKernel, StableOnDuplicateKeys) {
  // Values encode provenance: ties must take every `a` element before any
  // `b` element with the same key, and preserve within-run order.
  std::vector<Item> a{{5, 1}, {5, 2}, {7, 3}};
  std::vector<Item> b{{5, 100}, {6, 101}, {7, 102}};
  const std::vector<Item> expected{{5, 1}, {5, 2}, {5, 100},
                                   {6, 101}, {7, 3}, {7, 102}};
  EXPECT_EQ(run_kernel_scalar(a, b), expected);
  EXPECT_EQ(run_kernel_branchfree(a, b), expected);
#if CPQ_MERGE_HAVE_SSE42_TARGET
  if (merge_simd_available()) {
    std::vector<Item> out(a.size() + b.size());
    ASSERT_EQ(
        merge_sorted_simd(a.data(), a.size(), b.data(), b.size(), out.data()),
        expected.size());
    EXPECT_EQ(out, expected);
  }
#endif
}

// Randomized equivalence: every fast kernel must reproduce the scalar
// oracle exactly, including heavily duplicated keys and skewed run lengths.
TEST(MergeKernel, FastKernelsMatchScalarOracleFuzz) {
  Xoroshiro128 rng(0xF00D);
  for (int round = 0; round < 200; ++round) {
    const std::size_t na = rng.next_below(97);
    const std::size_t nb = rng.next_below(97);
    // Small key range forces duplicate keys within and across runs.
    const K key_range = 1 + rng.next_below(24);
    std::vector<Item> a, b;
    for (std::size_t i = 0; i < na; ++i) {
      a.emplace_back(rng.next_below(key_range), 1000 + i);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.emplace_back(rng.next_below(key_range), 2000 + i);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const auto oracle = run_kernel_scalar(a, b);
    EXPECT_EQ(run_kernel_branchfree(a, b), oracle);
    const auto dispatched = [&] {
      std::vector<Item> out(na + nb);
      EXPECT_EQ(
          merge_sorted(a.data(), na, b.data(), nb, out.data()), na + nb);
      return out;
    }();
    EXPECT_EQ(dispatched, oracle);
#if CPQ_MERGE_HAVE_SSE42_TARGET
    if (merge_simd_available()) {
      std::vector<Item> out(na + nb);
      ASSERT_EQ(merge_sorted_simd(a.data(), na, b.data(), nb, out.data()),
                na + nb);
      EXPECT_EQ(out, oracle);
    }
#endif
  }
}

TEST(MergeKernel, ClaimMergeBothBlocksEmptyAfterClaims) {
  BlockT* a = BlockT::create(make_items({1, 2}));
  BlockT* b = BlockT::create(make_items({3}));
  for (std::uint32_t i = 0; i < a->slot_count(); ++i) ASSERT_TRUE(a->claim(i));
  for (std::uint32_t i = 0; i < b->slot_count(); ++i) ASSERT_TRUE(b->claim(i));
  auto merged = claim_merge(*a, *b);
  EXPECT_TRUE(merged.empty());
  a->unref();
  b->unref();
}

TEST(MergeKernel, ClaimMergeExactSizeNoOverAllocation) {
  // The old path reserved live_estimate(a) + live_estimate(b), which counts
  // already-claimed slots; the drain-then-merge path must size the result
  // exactly to what it actually claimed.
  BlockT* a = BlockT::create(make_items({1, 2, 3, 4, 5, 6, 7, 8}));
  BlockT* b = BlockT::create(make_items({10, 11, 12, 13}));
  for (std::uint32_t i = 2; i < 8; ++i) ASSERT_TRUE(a->claim(i));
  ASSERT_TRUE(b->claim(0));
  auto merged = claim_merge(*a, *b);
  ASSERT_EQ(merged.size(), 5u);  // {1, 2} + {11, 12, 13}
  EXPECT_EQ(merged.capacity(), merged.size());
  std::vector<K> keys;
  for (auto& [k, v] : merged) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<K>{1, 2, 11, 12, 13}));
  a->unref();
  b->unref();
}

TEST(MergeKernel, ClaimMergeStabilityAcrossBlocks) {
  // Duplicate keys across the two blocks: the first block's items must
  // precede the second's (values encode provenance).
  std::vector<Item> ia{{5, 0}, {5, 1}};
  std::vector<Item> ib{{5, 100}, {5, 101}};
  BlockT* a = BlockT::create(std::move(ia));
  BlockT* b = BlockT::create(std::move(ib));
  auto merged = claim_merge(*a, *b);
  const std::vector<Item> expected{{5, 0}, {5, 1}, {5, 100}, {5, 101}};
  EXPECT_EQ(merged, expected);
  a->unref();
  b->unref();
}

// The kernel-backed claim_merge against racing claimants under fault
// injection pressure (block.claim / block.drain seams widened when compiled
// with CPQ_FAULT_INJECTION; plain build exercises the same race window):
// exactly-once delivery must hold regardless of which kernel ran.
TEST(MergeKernel, ConcurrentKernelMergeConservesUnderRacingClaims) {
  for (int round = 0; round < 10; ++round) {
    constexpr std::uint32_t n = 1024;
    std::vector<Item> ia, ib;
    for (std::uint32_t i = 0; i < n; ++i) ia.emplace_back(i % 64, i);
    for (std::uint32_t i = 0; i < n; ++i) ib.emplace_back(i % 64, n + i);
    std::sort(ia.begin(), ia.end());
    std::sort(ib.begin(), ib.end());
    BlockT* a = BlockT::create(std::move(ia));
    BlockT* b = BlockT::create(std::move(ib));

    std::vector<Item> merged;
    std::vector<V> stolen;
    run_team(2, [&](unsigned tid) {
      if (tid == 0) {
        merged = claim_merge(*a, *b);
      } else {
        for (std::uint32_t i = 0; i < n; i += 3) {
          if (a->claim(i)) stolen.push_back(a->slot(i).value);
          if (b->claim(i)) stolen.push_back(b->slot(i).value);
        }
      }
    });
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
    std::set<V> all;
    std::size_t total = 0;
    for (auto& [k, v] : merged) {
      EXPECT_TRUE(all.insert(v).second);
      ++total;
    }
    for (V v : stolen) {
      EXPECT_TRUE(all.insert(v).second);
      ++total;
    }
    ASSERT_EQ(total, 2 * n);
    a->unref();
    b->unref();
  }
}

TEST(BlockArray, FindMinAcrossBlocks) {
  ArrayT* array = ArrayT::create();
  array->blocks[array->count++] = BlockT::create(make_items({10, 20, 30, 40}));
  array->blocks[array->count++] = BlockT::create(make_items({15, 25}));
  array->blocks[array->count++] = BlockT::create(make_items({5}));
  std::uint32_t bi, si;
  K key;
  ASSERT_TRUE(array->find_min(bi, si, key));
  EXPECT_EQ(key, 5u);
  EXPECT_EQ(bi, 2u);
  array->blocks[2]->claim(0);
  ASSERT_TRUE(array->find_min(bi, si, key));
  EXPECT_EQ(key, 10u);
  ArrayT::destroy(array);
}

TEST(BlockArray, RefcountSharingAcrossArrays) {
  BlockT* shared = BlockT::create(make_items({1, 2}));
  ArrayT* a = ArrayT::create();
  a->blocks[a->count++] = shared;  // takes the initial ref
  ArrayT* b = ArrayT::create();
  shared->ref();
  b->blocks[b->count++] = shared;
  ArrayT::destroy(a);
  // Block must still be alive through b.
  EXPECT_EQ(shared->slot(1).key, 2u);
  ArrayT::destroy(b);
}

// ---- DLSM -------------------------------------------------------------

TEST(Dlsm, LocalInsertDeleteIsStrictlyOrdered) {
  ThreadLocalLsm<K, V> lsm;
  Xoroshiro128 rng(9);
  std::vector<K> keys;
  for (int i = 0; i < 3000; ++i) {
    const K key = rng.next_below(1000);
    keys.push_back(key);
    lsm.insert(key, i);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    K k;
    V v;
    ASSERT_TRUE(lsm.delete_local_min(k, v));
    ASSERT_EQ(k, keys[i]);
  }
  K k;
  V v;
  EXPECT_FALSE(lsm.delete_local_min(k, v));
}

TEST(Dlsm, LiveEstimateTracksContents) {
  ThreadLocalLsm<K, V> lsm;
  for (int i = 0; i < 100; ++i) lsm.insert(i, i);
  EXPECT_EQ(lsm.live_estimate(), 100u);
  K k;
  V v;
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(lsm.delete_local_min(k, v));
  EXPECT_LE(lsm.live_estimate(), 100u);
  EXPECT_GE(lsm.live_estimate(), 60u);
}

TEST(Dlsm, ExtractLargestBlockRemovesItsItems) {
  ThreadLocalLsm<K, V> lsm;
  for (int i = 0; i < 64; ++i) lsm.insert(i, i);
  const auto batch = lsm.extract_largest_block();
  EXPECT_FALSE(batch.empty());
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
  // Remaining items plus batch cover exactly the inserted set.
  std::multiset<K> rest;
  K k;
  V v;
  while (lsm.delete_local_min(k, v)) rest.insert(k);
  EXPECT_EQ(rest.size() + batch.size(), 64u);
}

TEST(Dlsm, ConcurrentSpyStealsExactlyOnce) {
  for (int round = 0; round < 10; ++round) {
    ThreadLocalLsm<K, V> victim;
    constexpr std::uint64_t n = 5000;
    for (std::uint64_t i = 0; i < n; ++i) victim.insert(i, i);

    std::vector<V> owner_got;
    std::vector<std::pair<K, V>> spy_got;
    run_team(2, [&](unsigned tid) {
      if (tid == 0) {
        // Owner keeps deleting local minima (also triggers merges via
        // interleaved inserts).
        K k;
        V v;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (victim.delete_local_min(k, v)) owner_got.push_back(v);
        }
      } else {
        mm::EbrDomain::Guard guard;
        auto* array = victim.spy_array();
        if (array) ThreadLocalLsm<K, V>::steal_all(array, spy_got);
      }
    });
    // Collect leftovers.
    K k;
    V v;
    while (victim.delete_local_min(k, v)) owner_got.push_back(v);

    std::set<V> all;
    std::size_t total = 0;
    for (V got : owner_got) {
      EXPECT_TRUE(all.insert(got).second);
      ++total;
    }
    for (auto& [key, value] : spy_got) {
      EXPECT_TRUE(all.insert(value).second);
      ++total;
    }
    ASSERT_EQ(total, n);
  }
}

// ---- DLSM staging buffer -------------------------------------------------

TEST(DlsmStaging, PeekSeesStagedMinimumBeforeAnyBlockExists) {
  ThreadLocalLsm<K, V> lsm;
  lsm.insert(30, 1);
  lsm.insert(10, 2);
  lsm.insert(20, 3);
  ThreadLocalLsm<K, V>::PeekResult peeked;
  ASSERT_TRUE(lsm.peek_local_min(peeked));
  EXPECT_TRUE(peeked.staged);
  EXPECT_EQ(peeked.key, 10u);
  K k;
  V v;
  ASSERT_TRUE(lsm.claim_peeked(peeked, k, v));
  EXPECT_EQ(k, 10u);
  EXPECT_EQ(v, 2u);
}

TEST(DlsmStaging, FlushBoundaryMaterializesBlock) {
  ThreadLocalLsm<K, V> lsm;
  const std::uint32_t n = ThreadLocalLsm<K, V>::kStagingSlots;
  for (std::uint32_t i = 0; i < 3 * n + 5; ++i) {
    lsm.insert(1000 - i, i);
  }
  EXPECT_EQ(lsm.live_estimate(), 3 * n + 5);
  // All items, staged or not, drain in sorted order.
  K k;
  V v;
  K prev = 0;
  std::uint32_t count = 0;
  while (lsm.delete_local_min(k, v)) {
    EXPECT_GE(k, prev);
    prev = k;
    ++count;
  }
  EXPECT_EQ(count, 3 * n + 5);
}

TEST(DlsmStaging, StaleClaimFailsAfterSlotReuse) {
  // Pin a staged slot's incarnation via peek, force a flush + refill that
  // reuses the slot, then verify the stale claim CAS is rejected. After
  // exactly kStagingSlots refills slot 0 is again the only ready slot, so
  // the stale and the current stage word differ only in the flush epoch.
  const std::uint32_t n = ThreadLocalLsm<K, V>::kStagingSlots;
  for (const std::uint32_t refills : {n, n + 1}) {
    SCOPED_TRACE(refills);
    ThreadLocalLsm<K, V> lsm;
    lsm.insert(5, 100);  // lands in staging slot 0
    ThreadLocalLsm<K, V>::PeekResult stale;
    ASSERT_TRUE(lsm.peek_local_min(stale));
    ASSERT_TRUE(stale.staged);
    for (std::uint32_t i = 0; i < refills; ++i) lsm.insert(1000 + i, 200 + i);
    K k;
    V v;
    EXPECT_FALSE(lsm.claim_peeked(stale, k, v));
    // Every item is still delivered exactly once.
    std::set<V> values;
    while (lsm.delete_local_min(k, v)) EXPECT_TRUE(values.insert(v).second);
    EXPECT_EQ(values.size(), refills + 1);
  }
}

TEST(DlsmStaging, SpyStealsStagedItems) {
  ThreadLocalLsm<K, V> victim;
  victim.insert(7, 70);
  victim.insert(3, 30);
  std::vector<std::pair<K, V>> stolen;
  victim.steal_staging(stolen);
  ASSERT_EQ(stolen.size(), 2u);
  // Victim now sees nothing.
  K k;
  V v;
  EXPECT_FALSE(victim.delete_local_min(k, v));
}

TEST(DlsmStaging, ConcurrentOwnerAndSpyExactlyOnce) {
  for (int round = 0; round < 20; ++round) {
    ThreadLocalLsm<K, V> victim;
    constexpr std::uint64_t n = 2000;
    std::vector<V> owner_got;
    std::vector<std::pair<K, V>> spy_got;
    run_team(2, [&](unsigned tid) {
      if (tid == 0) {
        K k;
        V v;
        for (std::uint64_t i = 0; i < n; ++i) {
          victim.insert(i, i);
          if (i % 3 == 0 && victim.delete_local_min(k, v)) {
            owner_got.push_back(v);
          }
        }
        while (victim.delete_local_min(k, v)) owner_got.push_back(v);
      } else {
        for (int spy_round = 0; spy_round < 50; ++spy_round) {
          mm::EbrDomain::Guard guard;
          if (auto* array = victim.spy_array()) {
            ThreadLocalLsm<K, V>::steal_all(array, spy_got);
          }
          victim.steal_staging(spy_got);
        }
      }
    });
    // The owner's final drain may have raced the spy's last steals; sweep
    // the leftovers.
    K k;
    V v;
    while (victim.delete_local_min(k, v)) owner_got.push_back(v);
    std::set<V> all;
    std::size_t total = 0;
    for (V got : owner_got) {
      EXPECT_TRUE(all.insert(got).second);
      ++total;
    }
    for (auto& [key, value] : spy_got) {
      EXPECT_TRUE(all.insert(value).second);
      ++total;
    }
    ASSERT_EQ(total, n);
  }
}

// ---- SLSM -------------------------------------------------------------

class SlsmRelaxation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlsmRelaxation, DeleteMinStaysWithinKPlusOneSmallest) {
  const std::uint64_t k = GetParam();
  Slsm<K, V> slsm(k);
  Xoroshiro128 rng(k + 3);
  std::multiset<K> model;
  for (int i = 0; i < 3000; ++i) {
    const K key = rng.next_below(100000);
    slsm.insert(key, i);
    model.insert(key);
  }
  Xoroshiro128 del_rng(17);
  for (int i = 0; i < 2500; ++i) {
    K key;
    V value;
    ASSERT_TRUE(slsm.delete_min(key, value, del_rng));
    // The returned key must be among the k+1 smallest of the current model.
    auto bound = model.begin();
    std::advance(bound, std::min<std::size_t>(k, model.size() - 1));
    ASSERT_LE(key, *bound) << "violated k+1 bound with k=" << k;
    const auto it = model.find(key);
    ASSERT_NE(it, model.end());
    model.erase(it);
  }
}

INSTANTIATE_TEST_SUITE_P(Relaxations, SlsmRelaxation,
                         ::testing::Values(0, 1, 4, 16, 128, 1024));

TEST(Slsm, DrainsCompletely) {
  Slsm<K, V> slsm(64);
  Xoroshiro128 rng(21);
  for (int i = 0; i < 2000; ++i) slsm.insert(rng.next_below(50), i);
  Xoroshiro128 del_rng(5);
  std::set<V> seen;
  K key;
  V value;
  std::size_t drained = 0;
  while (slsm.delete_min(key, value, del_rng)) {
    EXPECT_TRUE(seen.insert(value).second);
    ++drained;
  }
  EXPECT_EQ(drained, 2000u);
}

TEST(Slsm, BatchInsertMergesCascade) {
  Slsm<K, V> slsm(16);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::pair<K, V>> items;
    for (int i = 0; i < 32; ++i) {
      items.emplace_back(batch * 100 + i, batch * 1000 + i);
    }
    slsm.insert_batch(std::move(items));
  }
  EXPECT_EQ(slsm.live_estimate(), 20u * 32u);
  Xoroshiro128 rng(1);
  K key;
  V value;
  ASSERT_TRUE(slsm.delete_min(key, value, rng));
  EXPECT_LE(key, 16u);  // one of the 17 smallest keys (0..16)
}

// compute_pivots walks claim words to skip claimed holes: the k+1 smallest
// live items it selects lie in different words of one block, separated by
// whole words of claimed slots.
TEST(Slsm, PivotsSkipClaimedSlotsAcrossWords) {
  constexpr std::uint64_t k = 4;
  Slsm<K, V> slsm(k);
  slsm.insert_batch(sequential_items(300));
  ArrayT* array = slsm.current_array();
  ASSERT_EQ(array->count, 1u);
  EXPECT_EQ(array->pivot_end[0].load(), k + 1);
  const std::set<K> smallest_live = {64, 129, 191, 192, 193};
  for (std::uint32_t i = 0; i < 194; ++i) {
    if (smallest_live.count(i) == 0) {
      ASSERT_TRUE(array->blocks[0]->claim(i));
    }
  }
  // The next publication carries the block over and recomputes the pivots.
  slsm.insert(100000, 0);
  array = slsm.current_array();
  ASSERT_EQ(array->count, 2u);
  EXPECT_EQ(array->pivot_end[0].load(), 194u);
  EXPECT_EQ(array->pivot_end[1].load(), 0u);
  // The range holds exactly the k+1 smallest live items, so the next k+1
  // deletions return them, in some order.
  Xoroshiro128 rng(7);
  std::set<K> got;
  for (std::uint64_t i = 0; i <= k; ++i) {
    K key;
    V value;
    ASSERT_TRUE(slsm.delete_min(key, value, rng));
    EXPECT_EQ(value, 1000 + key);
    got.insert(key);
  }
  EXPECT_EQ(got, smallest_live);
}

TEST(Slsm, ConcurrentInsertDeleteExactlyOnce) {
  Slsm<K, V> slsm(256);
  constexpr unsigned threads = 4;
  constexpr std::uint64_t per_thread = 3000;
  std::vector<std::vector<V>> deleted(threads);
  run_team(threads, [&](unsigned tid) {
    Xoroshiro128 rng(tid + 31);
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      slsm.insert(rng.next_below(100000), (static_cast<V>(tid) << 32) | i);
      K key;
      V value;
      if (slsm.delete_min(key, value, rng)) deleted[tid].push_back(value);
    }
  });
  // Drain the remainder.
  Xoroshiro128 rng(999);
  K key;
  V value;
  std::vector<V> rest;
  while (slsm.delete_min(key, value, rng)) rest.push_back(value);
  std::set<V> all;
  std::size_t total = 0;
  for (const auto& per : deleted) {
    for (V v : per) {
      EXPECT_TRUE(all.insert(v).second);
      ++total;
    }
  }
  for (V v : rest) {
    EXPECT_TRUE(all.insert(v).second);
    ++total;
  }
  EXPECT_EQ(total, threads * per_thread);
}

}  // namespace
}  // namespace cpq::klsm_detail
