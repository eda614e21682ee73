// Component tests for the k-LSM internals: Block claim semantics, its
// packed claim words and the copy-merge-claim routine's exactly-once
// behaviour, BlockArray minimum search and pivot selection, the
// ThreadLocalLsm (DLSM) as a sequential LSM (structural rules, multiset
// model), under concurrent spy stealing, and its owner count and minimum
// bound, and the SLSM's pivot-range relaxation guarantee, its handles'
// cached views, its merges outside the insert lock and the candidate ranges
// its publications carry over.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/rng.hpp"
#include "platform/thread_util.hpp"
#include "queues/klsm/block.hpp"
#include "queues/klsm/dlsm.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/klsm/slsm.hpp"

namespace cpq::klsm_detail {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using BlockT = Block<K, V>;
using ArrayT = BlockArray<K, V>;
using SlsmArrayT = SlsmArray<K, V>;

std::vector<std::pair<K, V>> make_items(std::initializer_list<K> keys) {
  std::vector<std::pair<K, V>> items;
  V v = 0;
  for (K k : keys) items.emplace_back(k, v++);
  return items;
}

std::vector<std::pair<K, V>> key_range_items(K from, K to) {
  std::vector<std::pair<K, V>> items;
  for (K key = from; key < to; ++key) items.emplace_back(key, key);
  return items;
}

// The live items of a block, in slot order.
std::vector<std::pair<K, V>> live_items(const BlockT& block) {
  std::vector<std::pair<K, V>> out;
  const std::uint32_t n = block.slot_count();
  for (std::uint32_t s = block.next_live(0, n); s < n;
       s = block.next_live(s + 1, n)) {
    out.push_back(block.slot(s));
  }
  return out;
}

// The live items copy_merge_claim leaves in the merged block (released).
std::vector<std::pair<K, V>> merge_blocks(BlockT& a, BlockT& b) {
  BlockT* merged = copy_merge_claim(a, b);
  if (merged == nullptr) return {};
  std::vector<std::pair<K, V>> items = live_items(*merged);
  merged->unref();
  return items;
}

TEST(Block, CreateAndInspect) {
  BlockT* block = BlockT::create(make_items({1, 3, 5, 9}));
  EXPECT_EQ(block->slot_count(), 4u);
  EXPECT_EQ(block->capacity(), 4u);
  EXPECT_EQ(block->first_live(), 0u);
  EXPECT_EQ(block->slot(2).first, 5u);
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
  auto merged = merge_blocks(*a, *b);
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
  auto merged = merge_blocks(*a, *b);
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
        merged = merge_blocks(*a, *b);
      } else if (tid == 1) {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (a->claim(i)) stolen_a.push_back(a->slot(i).second);
        }
      } else {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (b->claim(i)) stolen_b.push_back(b->slot(i).second);
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

// The two phases with claims in between, on heavily duplicated keys: the
// items claimed after the copy are exactly the merged block's claimed
// slots, and every item is owned once — claimed before the copy, claimed
// in between, or live in the merged block, which is sorted with ties
// taking the first block's items first.
TEST(Block, CopyMergeMarksItemsClaimedSinceTheCopy) {
  Xoroshiro128 rng(0xC0B1);
  CopyMerge<K, V> merge;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    const K key_range = 1 + rng.next_below(6);
    std::vector<std::pair<K, V>> ia, ib;
    const std::uint64_t na = rng.next_below(200);
    const std::uint64_t nb = 1 + rng.next_below(200);
    for (std::uint64_t i = 0; i < na; ++i) {
      ia.emplace_back(rng.next_below(key_range), 0);
    }
    for (std::uint64_t i = 0; i < nb; ++i) {
      ib.emplace_back(rng.next_below(key_range), 0);
    }
    std::sort(ia.begin(), ia.end());
    std::sort(ib.begin(), ib.end());
    // Values in merge order of the sources: a's items 1000+i, b's 5000+i.
    for (std::uint64_t i = 0; i < na; ++i) ia[i].second = 1000 + i;
    for (std::uint64_t i = 0; i < nb; ++i) ib[i].second = 5000 + i;
    BlockT* a = BlockT::create(ia.data(), static_cast<std::uint32_t>(na));
    BlockT* b = BlockT::create(ib.data(), static_cast<std::uint32_t>(nb));
    std::set<V> before, between;
    // Holes before the copy sit mostly at the front, as deleters leave them.
    const std::uint64_t hole_pct = rng.next_below(100);
    for (BlockT* block : {a, b}) {
      const std::uint32_t front = static_cast<std::uint32_t>(
          rng.next_below(block->slot_count() + 1));
      for (std::uint32_t s = 0; s < block->slot_count(); ++s) {
        const bool hole = s < front ? rng.next_below(100) < hole_pct
                                    : rng.next_below(100) < 3;
        if (hole && block->claim(s)) before.insert(block->slot(s).second);
      }
    }
    merge.copy(*a, *b);
    const std::uint64_t lost_pct = rng.next_below(100);
    for (BlockT* block : {a, b}) {
      for (std::uint32_t s = 0; s < block->slot_count(); ++s) {
        if (rng.next_below(100) < lost_pct && block->claim(s)) {
          between.insert(block->slot(s).second);
        }
      }
    }
    BlockT* merged = merge.claim();
    EXPECT_EQ(a->first_live(), a->slot_count());
    EXPECT_EQ(b->first_live(), b->slot_count());
    std::set<V> live, marked;
    if (merged != nullptr) {
      ASSERT_EQ(merged->slot_count(), na + nb - before.size());
      for (std::uint32_t s = 0; s < merged->slot_count(); ++s) {
        if (s > 0) {
          const auto& prev = merged->slot(s - 1);
          const auto& cur = merged->slot(s);
          ASSERT_TRUE(prev.first < cur.first ||
                      (prev.first == cur.first && prev.second < cur.second))
              << "slot " << s << " out of merge order";
        }
      }
      for (const auto& item : live_items(*merged)) live.insert(item.second);
      for (std::uint32_t s = 0; s < merged->slot_count(); ++s) {
        if (live.count(merged->slot(s).second) == 0) {
          marked.insert(merged->slot(s).second);
        }
      }
      merged->unref();
      EXPECT_EQ(marked, between);
    } else {
      // Nothing copied stayed live: the block is not handed out at all.
      EXPECT_EQ(between.size() + before.size(), na + nb);
    }
    std::set<V> all = before;
    for (const std::set<V>* part : {&between, &live}) {
      for (V v : *part) EXPECT_TRUE(all.insert(v).second) << v << " twice";
    }
    EXPECT_EQ(all.size(), na + nb);
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
          claimed[tid - 1].push_back(block->slot(i).second);
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
// merge_runs must be a byte-for-byte substitute for the scalar oracle:
// same output, same stable tie-break (ties take from the first run), for
// plain arrays and for runs split into two pieces anywhere.
// Edge cases of the cascade's copy-merge-claim routine ride along since it
// feeds merge_runs.

using Item = std::pair<K, V>;

std::vector<Item> run_kernel_scalar(const std::vector<Item>& a,
                                    const std::vector<Item>& b) {
  std::vector<Item> out(a.size() + b.size());
  const std::size_t n = merge_sorted_scalar(a.data(), a.size(), b.data(),
                                            b.size(), out.data());
  EXPECT_EQ(n, out.size());
  return out;
}

// merge_runs over one-piece runs.
std::vector<Item> run_merge_runs(const std::vector<Item>& a,
                                        const std::vector<Item>& b) {
  std::vector<Item> out(a.size() + b.size());
  const std::size_t n =
      merge_runs<Item>({a.data(), a.size(), nullptr, 0},
                       {b.data(), b.size(), nullptr, 0}, out.data());
  EXPECT_EQ(n, out.size());
  return out;
}

TEST(MergeKernel, EmptyInputs) {
  const std::vector<Item> empty;
  const std::vector<Item> some = make_items({1, 2, 3});
  EXPECT_TRUE(run_merge_runs(empty, empty).empty());
  EXPECT_EQ(run_merge_runs(some, empty), some);
  EXPECT_EQ(run_merge_runs(empty, some), some);
}

TEST(MergeKernel, StableOnDuplicateKeys) {
  // Values encode provenance: ties must take every `a` element before any
  // `b` element with the same key, and preserve within-run order.
  std::vector<Item> a{{5, 1}, {5, 2}, {7, 3}};
  std::vector<Item> b{{5, 100}, {6, 101}, {7, 102}};
  const std::vector<Item> expected{{5, 1}, {5, 2}, {5, 100},
                                   {6, 101}, {7, 3}, {7, 102}};
  EXPECT_EQ(run_kernel_scalar(a, b), expected);
  EXPECT_EQ(run_merge_runs(a, b), expected);
}

// Randomized equivalence: merge_runs over one-piece and two-piece runs must
// reproduce the scalar oracle exactly, including heavily duplicated keys
// and skewed run lengths.
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
    EXPECT_EQ(run_merge_runs(a, b), oracle);
    // The same runs, each split into a separate head and an in-place tail.
    const std::size_t ha = rng.next_below(na + 1);
    const std::size_t hb = rng.next_below(nb + 1);
    const std::vector<Item> head_a(a.begin(), a.begin() + ha);
    const std::vector<Item> head_b(b.begin(), b.begin() + hb);
    std::vector<Item> out(na + nb);
    using Pieces = klsm_detail::Run<Item>;  // gtest's Test::Run hides Run
    const Pieces run_a{head_a.data(), ha, a.data() + ha, na - ha};
    const Pieces run_b{head_b.data(), hb, b.data() + hb, nb - hb};
    EXPECT_EQ(merge_runs(run_a, run_b, out.data()), na + nb);
    EXPECT_EQ(out, oracle);
  }
}

TEST(MergeKernel, ClaimMergeBothBlocksEmptyAfterClaims) {
  BlockT* a = BlockT::create(make_items({1, 2}));
  BlockT* b = BlockT::create(make_items({3}));
  for (std::uint32_t i = 0; i < a->slot_count(); ++i) ASSERT_TRUE(a->claim(i));
  for (std::uint32_t i = 0; i < b->slot_count(); ++i) ASSERT_TRUE(b->claim(i));
  EXPECT_EQ(copy_merge_claim(*a, *b), nullptr);
  a->unref();
  b->unref();
}

TEST(MergeKernel, ClaimMergeExactSizeNoOverAllocation) {
  // live_estimate(a) + live_estimate(b) counts already-claimed slots; the
  // merged block must hold exactly the items live when it was copied.
  BlockT* a = BlockT::create(make_items({1, 2, 3, 4, 5, 6, 7, 8}));
  BlockT* b = BlockT::create(make_items({10, 11, 12, 13}));
  for (std::uint32_t i = 2; i < 8; ++i) ASSERT_TRUE(a->claim(i));
  ASSERT_TRUE(b->claim(0));
  BlockT* merged = copy_merge_claim(*a, *b);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->slot_count(), 5u);  // {1, 2} + {11, 12, 13}
  EXPECT_EQ(merged->capacity(), 8u);
  std::vector<K> keys;
  for (auto& [k, v] : live_items(*merged)) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<K>{1, 2, 11, 12, 13}));
  merged->unref();
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
  auto merged = merge_blocks(*a, *b);
  const std::vector<Item> expected{{5, 0}, {5, 1}, {5, 100}, {5, 101}};
  EXPECT_EQ(merged, expected);
  a->unref();
  b->unref();
}

// The copy-merge-claim routine against racing claimants under fault
// injection pressure (the block.claim seam widened when compiled with
// CPQ_FAULT_INJECTION; plain build exercises the same race window):
// exactly-once delivery must hold whichever side wins each slot.
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
        merged = merge_blocks(*a, *b);
      } else {
        for (std::uint32_t i = 0; i < n; i += 3) {
          if (a->claim(i)) stolen.push_back(a->slot(i).second);
          if (b->claim(i)) stolen.push_back(b->slot(i).second);
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
  EXPECT_EQ(shared->slot(1).first, 2u);
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

// ---- DLSM as a sequential LSM -------------------------------------------
//
// Used by its owner alone, the DLSM is the LSM of the paper: the cases below
// check its structural rules after every restructuring and its answers
// against a sorted model.

// The LSM rules of the owner's published array: block capacities are
// distinct powers of two in descending order, each block fills more than
// half its capacity, and each block's keys are sorted. Claims only set bits,
// so deletions cannot break these; flushes, merges and extraction must not.
::testing::AssertionResult lsm_invariants_hold(
    const ThreadLocalLsm<K, V>& lsm) {
  const ArrayT* array = lsm.spy_array();
  if (array == nullptr) return ::testing::AssertionSuccess();
  for (std::uint32_t i = 0; i < array->count; ++i) {
    const BlockT& block = *array->blocks[i];
    const std::uint32_t cap = block.capacity();
    if (!std::has_single_bit(cap) || block.slot_count() > cap ||
        (cap > 1 && 2 * block.slot_count() <= cap)) {
      return ::testing::AssertionFailure()
             << "block " << i << " holds " << block.slot_count()
             << " slots at capacity " << cap;
    }
    if (i > 0 && array->blocks[i - 1]->capacity() <= cap) {
      return ::testing::AssertionFailure()
             << "capacities not descending at block " << i;
    }
    for (std::uint32_t s = 1; s < block.slot_count(); ++s) {
      if (block.slot(s).first < block.slot(s - 1).first) {
        return ::testing::AssertionFailure()
               << "block " << i << " unsorted at slot " << s;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Dlsm, EmptyBehaviour) {
  ThreadLocalLsm<K, V> lsm;
  ThreadLocalLsm<K, V>::PeekResult peeked;
  K k;
  V v;
  EXPECT_FALSE(lsm.peek_local_min(peeked));
  EXPECT_FALSE(lsm.delete_local_min(k, v));
  EXPECT_EQ(lsm.live_estimate(), 0u);
  EXPECT_EQ(lsm.spy_array(), nullptr);
  EXPECT_TRUE(lsm.extract_largest_block().empty());
  // Empty again once a staged item, then materialized ones, are taken.
  const std::uint32_t n = ThreadLocalLsm<K, V>::kStagingSlots + 1;
  for (const std::uint32_t count : {1u, n}) {
    for (std::uint32_t i = 0; i < count; ++i) lsm.insert(i, i);
    for (std::uint32_t i = 0; i < count; ++i) {
      ASSERT_TRUE(lsm.delete_local_min(k, v));
    }
    EXPECT_FALSE(lsm.delete_local_min(k, v));
    EXPECT_FALSE(lsm.peek_local_min(peeked));
    EXPECT_EQ(lsm.live_estimate(), 0u);
  }
}

TEST(Dlsm, InsertionsKeepInvariants) {
  ThreadLocalLsm<K, V> lsm;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    lsm.insert(1000 - i, i);
    ASSERT_TRUE(lsm_invariants_hold(lsm)) << "after insert " << i;
    ASSERT_EQ(lsm.live_estimate(), i + 1);
  }
  // 1000 inserts with distinct power-of-two block capacities need at most
  // log2(1000)+1 blocks.
  ASSERT_NE(lsm.spy_array(), nullptr);
  EXPECT_LE(lsm.spy_array()->count, 10u);
}

TEST(Dlsm, SortsRandomInput) {
  const std::uint32_t staged = ThreadLocalLsm<K, V>::kStagingSlots;
  for (const std::uint32_t n :
       {1u, 2u, 7u, staged, staged + 1, 64u, 65u, 1000u, 4096u}) {
    SCOPED_TRACE(n);
    ThreadLocalLsm<K, V> lsm;
    Xoroshiro128 rng(n);
    std::vector<K> keys;
    for (std::uint32_t i = 0; i < n; ++i) {
      keys.push_back(rng.next_below(n));
      lsm.insert(keys.back(), i);
    }
    std::sort(keys.begin(), keys.end());
    K k;
    V v;
    for (const K expected : keys) {
      ASSERT_TRUE(lsm.delete_local_min(k, v));
      ASSERT_EQ(k, expected);
      ASSERT_TRUE(lsm_invariants_hold(lsm));
    }
    EXPECT_FALSE(lsm.delete_local_min(k, v));
  }
}

TEST(Dlsm, PeekMatchesDelete) {
  // 300 inserts leave 12 items staged beside the blocks; the peeked
  // candidate, staged or not, is what the next deletion or a claim of the
  // peek takes.
  ThreadLocalLsm<K, V> lsm;
  Xoroshiro128 rng(5);
  for (V i = 0; i < 300; ++i) lsm.insert(rng.next_below(100), i);
  ThreadLocalLsm<K, V>::PeekResult peeked;
  std::uint32_t taken = 0;
  while (lsm.peek_local_min(peeked)) {
    K k;
    V v;
    if (taken % 2 == 0) {
      ASSERT_TRUE(lsm.delete_local_min(k, v));
    } else {
      ASSERT_TRUE(lsm.claim_peeked(peeked, k, v));
    }
    EXPECT_EQ(k, peeked.key);
    ++taken;
  }
  EXPECT_EQ(taken, 300u);
}

class DlsmMixedOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DlsmMixedOps, MatchesMultisetModel) {
  ThreadLocalLsm<K, V> lsm;
  std::multiset<K> model;
  Xoroshiro128 rng(GetParam());
  const K key_range = 1 + GetParam() * 37 % 1000;
  for (int op = 0; op < 20000; ++op) {
    if (model.empty() || rng.next_below(100) < 52) {
      const K key = rng.next_below(key_range);
      lsm.insert(key, static_cast<V>(op));
      model.insert(key);
    } else {
      K k;
      V v;
      ASSERT_TRUE(lsm.delete_local_min(k, v));
      ASSERT_EQ(k, *model.begin());
      model.erase(model.begin());
    }
    // An upper bound: a claimed slot counts until its block skips it.
    ASSERT_GE(lsm.live_estimate(), model.size());
    if (op % 256 == 0) {
      ASSERT_TRUE(lsm_invariants_hold(lsm));
    }
  }
  ASSERT_TRUE(lsm_invariants_hold(lsm));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DlsmMixedOps,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Dlsm, DrainHeavyShrinksBlocks) {
  // Claims leave drained blocks in place; the next publication drops every
  // block without a live slot. 2048 ascending inserts materialize 2032
  // items in 7 blocks and stage 16; deleting 2040 drains all 7.
  ThreadLocalLsm<K, V> lsm;
  for (K i = 0; i < 2048; ++i) lsm.insert(i, i);
  K k;
  V v;
  for (int i = 0; i < 2040; ++i) {
    ASSERT_TRUE(lsm.delete_local_min(k, v));
    ASSERT_TRUE(lsm_invariants_hold(lsm));
  }
  ASSERT_NE(lsm.spy_array(), nullptr);
  EXPECT_GT(lsm.spy_array()->count, 1u);
  lsm.flush_staging();
  ASSERT_EQ(lsm.spy_array()->count, 1u);
  EXPECT_EQ(lsm.spy_array()->blocks[0]->slot_count(), 8u);
  for (K expected = 2040; expected < 2048; ++expected) {
    ASSERT_TRUE(lsm.delete_local_min(k, v));
    EXPECT_EQ(k, expected);
  }
  EXPECT_FALSE(lsm.delete_local_min(k, v));
}

TEST(Dlsm, ExtractingEveryBlockEmpties) {
  // Overflow extraction is the DLSM's bulk removal: taking the largest
  // block until none is left (staging materializes once no block remains)
  // empties the LSM, which then works as new.
  ThreadLocalLsm<K, V> lsm;
  for (K i = 0; i < 100; ++i) lsm.insert(i, i);
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::size_t extracted = 0;
  for (auto batch = lsm.extract_largest_block(); !batch.empty();
       batch = lsm.extract_largest_block()) {
    EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end(), by_key));
    extracted += batch.size();
    ASSERT_TRUE(lsm_invariants_hold(lsm));
  }
  EXPECT_EQ(extracted, 100u);
  EXPECT_EQ(lsm.live_estimate(), 0u);
  K k;
  V v;
  EXPECT_FALSE(lsm.delete_local_min(k, v));
  lsm.insert(1, 1);
  EXPECT_EQ(lsm.live_estimate(), 1u);
  ASSERT_TRUE(lsm.delete_local_min(k, v));
  EXPECT_EQ(k, 1u);
}

TEST(Dlsm, SortedBatchesJoinTheMergeCascade) {
  // A spy re-homes what it stole as one sorted batch (insert_sorted) beside
  // the owner's blocks and staged singletons: the batch merges in under the
  // same rules and its items come back in order with the rest.
  ThreadLocalLsm<K, V> lsm;
  std::multiset<K> model;
  Xoroshiro128 rng(11);
  std::vector<std::pair<K, V>> batch;
  V next_value = 0;
  for (int round = 0; round < 60; ++round) {
    batch.clear();
    const std::uint64_t size = rng.next_below(40);
    for (std::uint64_t i = 0; i < size; ++i) {
      batch.emplace_back(rng.next_below(500), next_value++);
    }
    std::sort(batch.begin(), batch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    lsm.insert_sorted(batch.data(), static_cast<std::uint32_t>(size));
    for (const auto& item : batch) model.insert(item.first);
    for (int i = 0; i < 5; ++i) {
      const K key = rng.next_below(500);
      lsm.insert(key, next_value++);
      model.insert(key);
    }
    ASSERT_TRUE(lsm_invariants_hold(lsm)) << "round " << round;
    ASSERT_EQ(lsm.live_estimate(), model.size());
  }
  K k;
  V v;
  for (const K expected : model) {
    ASSERT_TRUE(lsm.delete_local_min(k, v));
    ASSERT_EQ(k, expected);
  }
  EXPECT_FALSE(lsm.delete_local_min(k, v));
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

// ---- DLSM owner count and minimum bound ------------------------------------

// Claim-move every live item of `victim` into `out`, as a spy does.
void spy_on(ThreadLocalLsm<K, V>& victim, std::vector<std::pair<K, V>>& out) {
  mm::EbrDomain::Guard guard;
  if (auto* array = victim.spy_array()) {
    ThreadLocalLsm<K, V>::steal_all(array, out);
  }
  victim.steal_staging(out);
}

// The k-LSM's insert: an insert, then the overflow rule (KLsmQueue::Handle).
void insert_with_overflow(ThreadLocalLsm<K, V>& lsm, std::uint64_t k, K key,
                          V value, std::map<V, K>& live) {
  lsm.insert(key, value);
  live.emplace(value, key);
  while (lsm.exceeds(k)) {
    for (const auto& item : lsm.extract_largest_block()) {
      live.erase(item.second);
    }
  }
}

// Random inserts (each followed by the overflow rule), own claims, spies
// taking the DLSM's items and spied batches re-homed into it while it is
// empty, as the k-LSM spies: the owner count never falls below the live
// items, and no insert leaves more than k of them.
TEST(DlsmOwnerCount, BoundsTheLiveItemsThroughSpiesAndOverflows) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    constexpr std::uint64_t kRelaxations[] = {0, 1, 5, 16, 40};
    const std::uint64_t k = kRelaxations[seed % 5];
    ThreadLocalLsm<K, V> lsm;
    ThreadLocalLsm<K, V> other;
    std::map<V, K> live;        // lsm's live items, by unique value
    std::map<V, K> other_live;  // other's
    Xoroshiro128 rng(seed);
    V next_value = 0;
    std::vector<std::pair<K, V>> stolen;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t r = rng.next_below(100);
      if (r < 40) {
        insert_with_overflow(lsm, k, rng.next_below(200), next_value++, live);
        ASSERT_LE(live.size(), k) << "after insert " << op;
      } else if (r < 60) {
        K key;
        V value;
        const bool took = lsm.delete_local_min(key, value);
        ASSERT_EQ(took, !live.empty());
        if (took) {
          ASSERT_EQ(live.erase(value), 1u);
        }
      } else if (r < 75) {
        insert_with_overflow(other, k, rng.next_below(200), next_value++,
                             other_live);
      } else if (r < 88) {
        stolen.clear();
        spy_on(lsm, stolen);
        for (const auto& item : stolen) ASSERT_EQ(live.erase(item.second), 1u);
      } else if (live.empty()) {
        stolen.clear();
        spy_on(other, stolen);
        std::sort(stolen.begin(), stolen.end());
        lsm.insert_sorted(stolen.data(),
                          static_cast<std::uint32_t>(stolen.size()));
        for (const auto& item : stolen) {
          ASSERT_EQ(other_live.erase(item.second), 1u);
          live.emplace(item.second, item.first);
        }
      }
      ASSERT_GE(lsm.count(), live.size()) << "after op " << op;
    }
  }
}

// One thread: the DLSM's last full peek found it empty, then a spy re-homes
// keys below every SLSM candidate. The next deletion must take the smallest
// of them, not a candidate the stale "empty" bound would let it take
// without peeking the DLSM; once the DLSM is empty the candidates follow.
TEST(DlsmMinimumBound, ReHomedKeyBelowTheSharedCandidateIsTakenFirst) {
  ThreadLocalLsm<K, V> local;
  ThreadLocalLsm<K, V> victim;
  Slsm<K, V> slsm(4);
  slsm.insert_batch(key_range_items(100, 110));
  ThreadLocalLsm<K, V>::PeekResult peeked;
  ASSERT_FALSE(local.peek_local_min(peeked));
  victim.insert(6, 6);
  victim.insert(5, 5);
  std::vector<std::pair<K, V>> stolen;
  spy_on(victim, stolen);
  std::sort(stolen.begin(), stolen.end());
  local.insert_sorted(stolen.data(), static_cast<std::uint32_t>(stolen.size()));
  Slsm<K, V>::View view;
  Xoroshiro128 rng(3);
  K key;
  V value;
  std::vector<K> got;
  while (delete_min_attempt(local, slsm, view, rng, key, value) ==
         Attempt::kTaken) {
    got.push_back(key);
  }
  ASSERT_EQ(got.size(), 12u);
  EXPECT_EQ(got[0], 5u);
  EXPECT_EQ(got[1], 6u);
  for (std::size_t i = 2; i < got.size(); ++i) EXPECT_GE(got[i], 100u);
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

TEST(DlsmStaging, SpyReadsConsistentPairs) {
  // Staging slots are a seqlock: a spy copies key and value between its load
  // of the stage word and the CAS that claims them, while the owner may
  // refill a reused slot. Every pair taken must be one the owner wrote,
  // never a key of one incarnation beside the value of another.
  const auto value_of = [](K key) { return ~key; };
  for (int round = 0; round < 20; ++round) {
    ThreadLocalLsm<K, V> lsm;
    constexpr K n = 4000;
    std::vector<std::pair<K, V>> taken;
    std::atomic<bool> done{false};
    run_team(2, [&](unsigned tid) {
      if (tid == 0) {
        for (K key = 0; key < n; ++key) lsm.insert(key, value_of(key));
        done.store(true, std::memory_order_release);
      } else {
        do {
          lsm.steal_staging(taken);
        } while (!done.load(std::memory_order_acquire));
      }
    });
    K k;
    V v;
    while (lsm.delete_local_min(k, v)) taken.emplace_back(k, v);
    std::set<K> keys;
    for (const auto& [key, value] : taken) {
      ASSERT_EQ(value, value_of(key)) << "torn pair for key " << key;
      EXPECT_TRUE(keys.insert(key).second);
    }
    ASSERT_EQ(keys.size(), n);
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
  Slsm<K, V>::View view;
  for (int i = 0; i < 2500; ++i) {
    K key;
    V value;
    ASSERT_TRUE(slsm.delete_min(key, value, del_rng, view));
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
  Slsm<K, V>::View view;
  std::set<V> seen;
  K key;
  V value;
  std::size_t drained = 0;
  while (slsm.delete_min(key, value, del_rng, view)) {
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
  Slsm<K, V>::View view;
  K key;
  V value;
  ASSERT_TRUE(slsm.delete_min(key, value, rng, view));
  EXPECT_LE(key, 16u);  // one of the 17 smallest keys (0..16)
}

// compute_pivots walks claim words to skip claimed holes: the k+1 smallest
// live items it selects lie in different words of one block, separated by
// whole words of claimed slots. Checked on the selection itself, then through
// an SLSM whose publication carries the drained range over (the new block
// starts above it), so a deleter finds it drained and recomputes.
TEST(Slsm, PivotsSkipClaimedSlotsAcrossWords) {
  constexpr std::uint64_t k = 4;
  const std::set<K> smallest_live = {64, 129, 191, 192, 193};
  const auto claim_all_but_smallest = [&](BlockT& block) {
    for (std::uint32_t i = 0; i < 194; ++i) {
      if (smallest_live.count(i) == 0) {
        ASSERT_TRUE(block.claim(i));
      }
    }
  };
  SlsmArrayT* direct = SlsmArrayT::create();
  direct->blocks[direct->count++] = BlockT::create(sequential_items(300));
  ASSERT_TRUE(direct->compute_pivots(k));
  EXPECT_EQ(direct->pivot_end[0].load(), k + 1);
  claim_all_but_smallest(*direct->blocks[0]);
  ASSERT_TRUE(direct->compute_pivots(k));
  EXPECT_EQ(direct->pivot_end[0].load(), 194u);
  SlsmArrayT::destroy(direct);

  Slsm<K, V> slsm(k);
  slsm.insert_batch(sequential_items(300));
  SlsmArrayT* array = slsm.current_array();
  ASSERT_EQ(array->count, 1u);
  EXPECT_EQ(array->pivot_end[0].load(), k + 1);
  claim_all_but_smallest(*array->blocks[0]);
  slsm.insert(100000, 0);
  array = slsm.current_array();
  ASSERT_EQ(array->count, 2u);
  EXPECT_EQ(array->pivot_end[0].load(), k + 1) << "range not carried";
  EXPECT_EQ(array->pivot_end[1].load(), 0u);
  // The range holds exactly the k+1 smallest live items once recomputed, so
  // the next k+1 deletions return them, in some order.
  Xoroshiro128 rng(7);
  Slsm<K, V>::View view;
  std::set<K> got;
  for (std::uint64_t i = 0; i <= k; ++i) {
    K key;
    V value;
    ASSERT_TRUE(slsm.delete_min(key, value, rng, view));
    EXPECT_EQ(value, 1000 + key);
    got.insert(key);
    if (i == 0) {
      EXPECT_EQ(array->pivot_end[0].load(), 194u);
      EXPECT_EQ(array->pivot_end[1].load(), 0u);
    }
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
    Slsm<K, V>::View view;
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      slsm.insert(rng.next_below(100000), (static_cast<V>(tid) << 32) | i);
      K key;
      V value;
      if (slsm.delete_min(key, value, rng, view)) {
        deleted[tid].push_back(value);
      }
    }
  });
  // Drain the remainder.
  Xoroshiro128 rng(999);
  Slsm<K, V>::View view;
  K key;
  V value;
  std::vector<V> rest;
  while (slsm.delete_min(key, value, rng, view)) rest.push_back(value);
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

// ---- SLSM pivots, views and merges outside the insert lock ----------------

// The full-rescan pivot selection compute_pivots replaced: every pick walks
// every block's cursor again, (k+1)*B claim-word reads. A block with no
// pick gets end 0, no range.
std::vector<std::uint32_t> reference_pivots(const SlsmArrayT& array,
                                            std::uint64_t k) {
  std::vector<std::uint32_t> cursor(array.count);
  std::vector<std::uint32_t> end(array.count, 0);
  for (std::uint32_t i = 0; i < array.count; ++i) {
    cursor[i] = array.blocks[i]->first_live();
  }
  for (std::uint64_t picked = 0; picked <= k; ++picked) {
    std::uint32_t best = array.count;
    K best_key{};
    for (std::uint32_t i = 0; i < array.count; ++i) {
      const BlockT& block = *array.blocks[i];
      cursor[i] = block.next_live(cursor[i], block.slot_count());
      if (cursor[i] >= block.slot_count()) continue;
      if (best == array.count || block.slot(cursor[i]).first < best_key) {
        best = i;
        best_key = block.slot(cursor[i]).first;
      }
    }
    if (best == array.count) break;
    end[best] = cursor[best] + 1;
    ++cursor[best];
  }
  return end;
}

TEST(BlockArray, PivotsMatchFullRescanReference) {
  Xoroshiro128 rng(0x9170);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    SlsmArrayT* array = SlsmArrayT::create();
    // Half the rounds draw keys from at most 8 values: duplicates across
    // and within blocks decide the tie rule.
    const K key_range = 1 + rng.next_below(rng.next_below(2) == 0 ? 8 : 1000);
    const std::uint64_t blocks = 1 + rng.next_below(12);
    bool live = false;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t n = 1 + rng.next_below(300);
      std::vector<std::pair<K, V>> items;
      for (std::uint64_t i = 0; i < n; ++i) {
        items.emplace_back(rng.next_below(key_range), i);
      }
      std::sort(items.begin(), items.end());
      BlockT* block = BlockT::create(std::move(items));
      const std::uint64_t hole_pct =
          rng.next_below(4) == 0 ? 100 : rng.next_below(90);
      for (std::uint32_t s = 0; s < block->slot_count(); ++s) {
        if (rng.next_below(100) < hole_pct) {
          ASSERT_TRUE(block->claim(s));
        }
      }
      live = live || block->first_live() < block->slot_count();
      array->blocks[array->count++] = block;
    }
    const std::uint64_t k =
        rng.next_below(3) == 0 ? rng.next_below(4) : rng.next_below(400);
    const std::vector<std::uint32_t> expected = reference_pivots(*array, k);
    EXPECT_EQ(array->compute_pivots(k), live);
    for (std::uint32_t i = 0; i < array->count; ++i) {
      EXPECT_EQ(array->pivot_end[i].load(), expected[i]) << "block " << i;
    }
    SlsmArrayT::destroy(array);
  }
}

// Every candidate `view` yields now is among the k+1 smallest live keys.
::testing::AssertionResult candidates_within_bound(Slsm<K, V>& slsm,
                                                   Slsm<K, V>::View& view,
                                                   Xoroshiro128& rng) {
  mm::EbrDomain::Guard guard;
  const SlsmArrayT* array = slsm.current_array();
  std::vector<K> live;
  for (std::uint32_t i = 0; i < array->count; ++i) {
    for (const auto& item : live_items(*array->blocks[i])) {
      live.push_back(item.first);
    }
  }
  std::sort(live.begin(), live.end());
  const K bound = live.at(std::min<std::size_t>(slsm.relaxation(),
                                                live.size() - 1));
  for (int peek = 0; peek < 32; ++peek) {
    Slsm<K, V>::Candidate candidate;
    if (!slsm.peek_candidate(view, candidate, rng)) {
      return ::testing::AssertionFailure()
             << "no candidate with " << live.size() << " items live";
    }
    if (bound < candidate.key) {
      return ::testing::AssertionFailure()
             << "candidate " << candidate.key << " is not among the "
             << slsm.relaxation() + 1 << " smallest (bound " << bound << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// One handle's view stays a window onto the k+1 smallest live items while
// another handle claims from the same ranges, after that handle's refresh
// recomputes the array's pivots, and after a republish — also when the
// allocator places the new array at the viewed one's address, which only
// the publication number tells apart.
TEST(SlsmView, CandidateStaysWithinKPlusOneSmallest) {
  constexpr std::uint64_t k = 1;
  Slsm<K, V> slsm(k);
  Slsm<K, V>::View mine;
  Slsm<K, V>::View other;
  Xoroshiro128 rng(0x71E3);
  slsm.insert_batch(key_range_items(100, 200));
  ASSERT_TRUE(candidates_within_bound(slsm, mine, rng));
  K key;
  V value;
  ASSERT_TRUE(slsm.delete_min(key, value, rng, other));
  ASSERT_TRUE(candidates_within_bound(slsm, mine, rng)) << "after a claim";
  // Seven claims drain `other`'s ranges of k+1 items three times over.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(slsm.delete_min(key, value, rng, other));
  }
  ASSERT_TRUE(candidates_within_bound(slsm, mine, rng)) << "after a refresh";
  // Retire and free the viewed array, then publish two more: [100.., 500..]
  // and [100.., 500.., 0 1], no merge in either (capacities 128, 4, 2).
  const SlsmArrayT* viewed = slsm.current_array();
  mm::EbrDomain::global().drain();
  slsm.insert_batch(key_range_items(500, 504));
  mm::EbrDomain::global().drain();
  slsm.insert_batch(key_range_items(0, 2));
  const bool reused = slsm.current_array() == viewed;
  ASSERT_TRUE(candidates_within_bound(slsm, mine, rng))
      << "after a republish" << (reused ? " at the viewed address" : "");
}

// Inserters merge outside the insert lock while deleters claim from the
// pairs being copied: keys from {0..3} put every block's front among the
// candidates and equal keys on both sides of every merged pair, and half
// the batches are single items, so reserved blocks drain while other
// inserters publish. The slsm.merge_copy seam widens the copy window in a
// fault-injection build. Every item must come out exactly once.
TEST(SlsmMerge, DeletersRacingOutOfLockMergesGetEachItemOnce) {
  constexpr unsigned kInserters = 2;
  constexpr unsigned kDeleters = 2;
  constexpr std::uint64_t kBatches = 2000;
  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE(round);
    Slsm<K, V> slsm(16);
    std::atomic<unsigned> inserting{kInserters};
    std::atomic<std::uint64_t> inserted{0};
    std::vector<std::vector<V>> got(kDeleters);
    run_team(kInserters + kDeleters, [&](unsigned tid) {
      Xoroshiro128 rng(thread_seed(0x5150 + round, tid));
      if (tid < kInserters) {
        std::vector<std::pair<K, V>> batch;
        for (std::uint64_t b = 0; b < kBatches; ++b) {
          batch.clear();
          const std::uint64_t n =
              1 + (rng.next_below(2) == 0 ? 0 : rng.next_below(48));
          for (std::uint64_t i = 0; i < n; ++i) {
            batch.emplace_back(rng.next_below(4),
                               (V{tid} << 40) | (b << 8) | i);
          }
          std::sort(batch.begin(), batch.end(),
                    [](const auto& x, const auto& y) {
                      return x.first < y.first;
                    });
          inserted.fetch_add(n, std::memory_order_relaxed);
          slsm.insert_batch(std::move(batch));
        }
        inserting.fetch_sub(1, std::memory_order_release);
        return;
      }
      Slsm<K, V>::View view;
      K key;
      V value;
      while (inserting.load(std::memory_order_acquire) > 0) {
        if (slsm.delete_min(key, value, rng, view)) {
          got[tid - kInserters].push_back(value);
        }
      }
    });
    Xoroshiro128 rng(round);
    Slsm<K, V>::View view;
    K key;
    V value;
    std::vector<V> rest;
    while (slsm.delete_min(key, value, rng, view)) rest.push_back(value);
    std::set<V> all;
    std::size_t total = 0;
    for (const std::vector<V>* part : {&got[0], &got[1], &rest}) {
      for (V v : *part) {
        EXPECT_TRUE(all.insert(v).second) << "value " << v << " twice";
        ++total;
      }
    }
    ASSERT_EQ(total, inserted.load()) << "items lost or duplicated";
  }
}


// ---- SLSM ranges carried across publications ------------------------------

std::vector<std::uint32_t> read_ends(const SlsmArrayT& array) {
  std::vector<std::uint32_t> ends(array.count);
  for (std::uint32_t i = 0; i < array.count; ++i) {
    ends[i] = array.pivot_end[i].load(std::memory_order_acquire);
  }
  return ends;
}

// The largest key at the range ends (X), or 0 when there is no range.
K largest_candidate_key(const SlsmArrayT& array) {
  K x = 0;
  const std::vector<std::uint32_t> ends = read_ends(array);
  for (std::uint32_t i = 0; i < array.count; ++i) {
    if (ends[i] != 0) x = std::max(x, array.blocks[i]->slot(ends[i] - 1).first);
  }
  return x;
}

// Every live item below `ends` has at most k strictly smaller live items in
// the whole array, counted by a full scan. Claims racing the scan only
// remove items, so they cannot make a valid array fail.
::testing::AssertionResult ranges_keep_bound(
    const SlsmArrayT& array, const std::vector<std::uint32_t>& ends,
    std::uint64_t k) {
  std::vector<K> live;
  for (std::uint32_t i = 0; i < array.count; ++i) {
    for (const auto& item : live_items(*array.blocks[i])) {
      live.push_back(item.first);
    }
  }
  std::sort(live.begin(), live.end());
  for (std::uint32_t i = 0; i < array.count; ++i) {
    const BlockT& block = *array.blocks[i];
    for (std::uint32_t s = block.next_live(0, ends[i]); s < ends[i];
         s = block.next_live(s + 1, ends[i])) {
      const K key = block.slot(s).first;
      const auto smaller = static_cast<std::uint64_t>(
          std::lower_bound(live.begin(), live.end(), key) - live.begin());
      if (smaller > k) {
        return ::testing::AssertionFailure()
               << "candidate " << key << " (block " << i << ", slot " << s
               << ") has " << smaller << " strictly smaller live items, k = "
               << k;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

bool starts_below(const BlockT& block, K x) {
  const std::uint32_t first = block.first_live();
  return first < block.slot_count() && block.slot(first).first < x;
}

// Random arrays with claimed holes and duplicate keys get their ranges, lose
// more items to claims, and are replaced by an array that keeps their blocks
// in order (some drained ones dropped, an adjacent pair merged as at a
// splice) and appends new blocks starting below, at or above X, the largest
// key at the ends. The carry must decline exactly when a new block starts
// below X, and every carried range must keep the k+1 bound.
TEST(SlsmCarry, CarriedRangesKeepTheBoundInFuzzedArrays) {
  Xoroshiro128 rng(0xCA77);
  int carried = 0;
  for (int round = 0; round < 600; ++round) {
    SCOPED_TRACE(round);
    const K key_range = 1 + rng.next_below(rng.next_below(2) == 0 ? 8 : 1000);
    const std::uint64_t k =
        rng.next_below(3) == 0 ? rng.next_below(4) : rng.next_below(100);
    SlsmArrayT* from = SlsmArrayT::create();
    const std::uint64_t blocks = 1 + rng.next_below(8);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      std::vector<std::pair<K, V>> items;
      const std::uint64_t n = 1 + rng.next_below(200);
      for (std::uint64_t i = 0; i < n; ++i) {
        items.emplace_back(100 + rng.next_below(key_range), i);
      }
      std::sort(items.begin(), items.end());
      BlockT* block = BlockT::create(std::move(items));
      const std::uint64_t hole_pct =
          rng.next_below(4) == 0 ? 100 : rng.next_below(60);
      for (std::uint32_t s = 0; s < block->slot_count(); ++s) {
        if (rng.next_below(100) < hole_pct) {
          ASSERT_TRUE(block->claim(s));
        }
      }
      from->blocks[from->count++] = block;
    }
    from->compute_pivots(k);
    // Deleters claim more after the ranges were computed.
    for (std::uint32_t i = 0; i < from->count; ++i) {
      for (std::uint32_t s = 0; s < from->blocks[i]->slot_count(); ++s) {
        if (rng.next_below(10) == 0) from->blocks[i]->claim(s);
      }
    }
    const std::vector<std::uint32_t> from_ends = read_ends(*from);
    const bool has_range =
        std::any_of(from_ends.begin(), from_ends.end(),
                    [](std::uint32_t end) { return end != 0; });
    const K x = largest_candidate_key(*from);
    SlsmArrayT* next = SlsmArrayT::create();
    bool new_below_x = false;
    for (std::uint32_t i = 0; i < from->count; ++i) {
      BlockT* block = from->blocks[i];
      if (block->first_live() >= block->slot_count() &&
          rng.next_below(2) == 0) {
        continue;
      }
      if (i + 1 < from->count && rng.next_below(5) == 0) {
        BlockT* merged = copy_merge_claim(*block, *from->blocks[++i]);
        if (merged != nullptr) {
          new_below_x = new_below_x || starts_below(*merged, x);
          next->blocks[next->count++] = merged;
        }
        continue;
      }
      block->ref();
      next->blocks[next->count++] = block;
    }
    for (std::uint64_t fresh = rng.next_below(3); fresh-- > 0;) {
      const K around = has_range ? x : 100;
      const std::uint64_t where = rng.next_below(3);
      K key = where == 0   ? around - 1 - rng.next_below(50)
              : where == 1 ? around
                           : around + 1 + rng.next_below(50);
      std::vector<std::pair<K, V>> items;
      for (std::uint64_t n = 1 + rng.next_below(40); n-- > 0;) {
        items.emplace_back(key, n);
        key += rng.next_below(3);
      }
      BlockT* block = BlockT::create(std::move(items));
      new_below_x = new_below_x || starts_below(*block, x);
      next->blocks[next->count++] = block;
    }
    const bool took = next->carry_pivots(*from);
    EXPECT_EQ(took, has_range && !new_below_x);
    if (took) {
      ++carried;
      EXPECT_TRUE(ranges_keep_bound(*next, read_ends(*next), k));
    }
    SlsmArrayT::destroy(next);
    SlsmArrayT::destroy(from);
  }
  EXPECT_GT(carried, 100);
}

#if defined(CPQ_FAULT_INJECTION)
// Delay hooks firing at `ppm` on the sites matching `filter` while in scope;
// the previous configuration comes back afterwards.
class ScopedInjection {
 public:
  ScopedInjection(std::uint32_t ppm, const char* filter)
      : state_(validation::injection_state()),
        ppm_(state_.ppm.load()),
        seed_(state_.seed.load()),
        filter_(state_.site_filter.load()) {
    validation::fault_injection_configure(ppm, seed_,
                                          validation::FaultAction::kDelay,
                                          filter);
  }
  ~ScopedInjection() {
    validation::fault_injection_configure(
        ppm_, seed_, validation::FaultAction::kDelay, filter_);
  }

 private:
  validation::InjectionState& state_;
  const std::uint32_t ppm_;
  const std::uint64_t seed_;
  const char* const filter_;
};
#endif

// A deleter recomputes the published ranges (whenever its view drains)
// while an inserter publishes items just above X, so a carry may read ends
// that a recomputation is rewriting over larger keys; the slsm.carry seam
// stretches that window in a fault-injection build. A third thread keeps
// checking the published ranges by a full scan.
TEST(SlsmCarry, RangesCarriedWhileADeleterRecomputesKeepTheBound) {
#if defined(CPQ_FAULT_INJECTION)
  const ScopedInjection injection(200'000, "slsm.carry");
#endif
  constexpr std::uint64_t k = 4;
  for (std::uint64_t round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    Slsm<K, V> slsm(k);
    slsm.insert_batch(key_range_items(0, 512));
    std::atomic<bool> inserting{true};
    run_team(3, [&](unsigned tid) {
      Xoroshiro128 rng(thread_seed(0xCA44 + round, tid));
      if (tid == 0) {
        for (V i = 0; i < 3000; ++i) {
          K x;
          {
            mm::EbrDomain::Guard guard;
            x = largest_candidate_key(*slsm.current_array());
          }
          slsm.insert(x + 1 + rng.next_below(2), i);
          mm::EbrDomain::Guard guard;
          const SlsmArrayT& array = *slsm.current_array();
          const auto kept = ranges_keep_bound(array, read_ends(array), k);
          if (!kept) {
            ADD_FAILURE() << "publication " << array.publication << ": "
                          << kept.message();
            break;
          }
        }
        inserting.store(false, std::memory_order_release);
      } else if (tid == 1) {
        Slsm<K, V>::View view;
        K key;
        V value;
        while (inserting.load(std::memory_order_acquire)) {
          slsm.delete_min(key, value, rng, view);
          // Paced, so a bad range would outlive a few checker scans.
          for (int spin = 0; spin < 256; ++spin) cpu_relax();
        }
      } else {
        while (inserting.load(std::memory_order_acquire)) {
          mm::EbrDomain::Guard guard;
          const SlsmArrayT& array = *slsm.current_array();
          const auto kept = ranges_keep_bound(array, read_ends(array), k);
          if (!kept) {
            ADD_FAILURE() << "publication " << array.publication << ": "
                          << kept.message();
            return;
          }
        }
      }
    });
  }
}

}  // namespace
}  // namespace cpq::klsm_detail
