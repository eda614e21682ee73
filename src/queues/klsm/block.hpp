// k-LSM building blocks: sorted item blocks and versioned block arrays.
//
// A Block is a write-once sorted array of (key, value) slots plus one packed
// 64-bit claim word per 64 slots. After construction only the claim words
// mutate, so readers may dereference keys/values of any slot at any time;
// ownership of slot i is transferred by fetch_or of bit i in its claim word —
// the bit goes from 0 to 1 once, and the one caller that flips it owns the
// item. Items *move* between blocks by being claimed out of the source block
// and re-materialized (still exactly once) in the destination block, which
// is how merges, DLSM->SLSM overflow batches, and spy() stealing all avoid
// duplicate delivery without the original k-LSM's pooled item-version tags.
// Those bulk moves go through drain_into, which claims a whole word with one
// exchange(~0) and emits the slots whose old bit was 0, so a drain costs one
// locked instruction per 64 slots rather than one per slot.
//
// A BlockArray is an immutable snapshot of a LSM's block list (capacities
// strictly decreasing), published through a single atomic pointer and
// reclaimed via EBR. Blocks are shared between array versions (and between a
// victim's array and a spy) through an intrusive refcount: each array owns
// one reference per contained block, and the EBR deleter of a retired array
// drops them.
//
// SLSM arrays additionally carry the pivot range: per block, an index
// `pivot_end[i]` such that every slot below it has a key <= a threshold X
// with count(keys <= X) <= k+1 at computation time. Because candidate
// membership is defined by a key threshold and items only ever leave,
// a published pivot entry never becomes unsafe (DESIGN.md §4).
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "mm/arena.hpp"
#include "obs/metrics.hpp"
#include "platform/cache.hpp"
#include "queues/klsm/merge_kernel.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::klsm_detail {

template <typename Key, typename Value>
class Block {
 public:
  struct Slot {
    Key key;
    Value value;
  };

  static constexpr std::uint32_t kWordBits = 64;

  // Build a block from already-sorted items. refs starts at 1: the caller
  // places the block into exactly one array (or drops it with unref()).
  //
  // Header, claim words and slot array live in ONE pooled chunk
  // (mm::pool_alloc), so the merge cascade's block churn is a magazine
  // pop/push instead of malloc/free round-trips per block version.
  static Block* create(const std::pair<Key, Value>* sorted_items,
                       std::uint32_t n) {
    void* raw = mm::pool_alloc(storage_bytes(n));
    return new (raw) Block(sorted_items, n);
  }

  static Block* create(std::vector<std::pair<Key, Value>>&& sorted_items) {
    return create(sorted_items.data(),
                  static_cast<std::uint32_t>(sorted_items.size()));
  }

  void ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }

  void unref() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::size_t bytes = storage_bytes(count_);
      this->~Block();
      mm::pool_free(this, bytes);
    }
  }

  std::uint32_t slot_count() const noexcept { return count_; }
  std::uint32_t capacity() const noexcept { return capacity_; }

  const Slot& slot(std::uint32_t i) const noexcept {
    assert(i < count_);
    return slots_[i];
  }

  // First slot index not yet claimed, starting from the head hint; advances
  // the hint (monotonically in effect — the hint may transiently regress
  // under races, which only costs a few extra word reads).
  std::uint32_t first_live() const noexcept {
    const std::uint32_t hint = head_hint_.load(std::memory_order_relaxed);
    const std::uint32_t i = next_live(hint, count_);
    if (i != hint) head_hint_.store(i, std::memory_order_relaxed);
    return i;
  }

  // First unclaimed slot in [from, limit), or `limit` when there is none:
  // one load and one countr_one per claim word walked. Padding bits past
  // count_ are set, so a word with a zero bit always names a real slot.
  std::uint32_t next_live(std::uint32_t from, std::uint32_t limit) const
      noexcept {
    assert(limit <= count_);
    while (from < limit) {
      const std::uint32_t w = from / kWordBits;
      const std::uint64_t bits = words_[w].load(std::memory_order_acquire) |
                                 low_bits(from % kWordBits);
      if (bits != kAllClaimed) {
        const std::uint32_t i =
            w * kWordBits + static_cast<std::uint32_t>(std::countr_one(bits));
        return i < limit ? i : limit;
      }
      from = (w + 1) * kWordBits;
    }
    return limit;
  }

  // Upper bound on live items (counts claimed-but-not-yet-skipped slots).
  std::uint32_t live_estimate() const noexcept {
    const std::uint32_t head = head_hint_.load(std::memory_order_relaxed);
    return count_ - (head < count_ ? head : count_);
  }

  // Claim slot i. True iff this caller took ownership of the item.
  bool claim(std::uint32_t i) noexcept {
    assert(i < count_);
    // Fault injection: widen the peek-to-claim window, the seam where a
    // racing claimant must lose exactly one of the two fetch_ors.
    CPQ_INJECT("block.claim");
    const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
    const bool won = (words_[i / kWordBits].fetch_or(
                          bit, std::memory_order_acq_rel) &
                      bit) == 0;
    if (!won) CPQ_COUNT(kCasRetry);
    return won;
  }

  // Index of the first slot with key > threshold (binary search over all
  // slots; claimed slots only make the result an overestimate of the live
  // candidate count, which is the safe direction for pivots).
  std::uint32_t upper_bound(Key threshold) const noexcept {
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (threshold < slots_[mid].key) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  // Claim-move every still-live item into `out`, preserving sort order: one
  // exchange(~0) per claim word, emitting the slots whose old bit was 0.
  void drain_into(std::vector<std::pair<Key, Value>>& out) {
    const std::uint32_t first = first_live();
    if (first >= count_) return;
    for (std::uint32_t w = first / kWordBits; w < word_count(); ++w) {
      // Fault injection: a drain (merge / spy / overflow) racing deleters
      // word by word is the k-LSM's busiest ownership-transfer seam.
      CPQ_INJECT("block.drain");
      std::uint64_t live =
          ~words_[w].exchange(kAllClaimed, std::memory_order_acq_rel);
      for (; live != 0; live &= live - 1) {
        const Slot& s =
            slots_[w * kWordBits +
                   static_cast<std::uint32_t>(std::countr_zero(live))];
        out.emplace_back(s.key, s.value);
      }
    }
    head_hint_.store(count_, std::memory_order_relaxed);
  }

 private:
  using Word = std::atomic<std::uint64_t>;
  static constexpr std::uint64_t kAllClaimed = ~std::uint64_t{0};

  Block(const std::pair<Key, Value>* sorted_items, std::uint32_t n)
      : count_(n),
        capacity_(capacity_for(n)),
        words_(reinterpret_cast<Word*>(reinterpret_cast<char*>(this) +
                                       words_offset())),
        slots_(reinterpret_cast<Slot*>(reinterpret_cast<char*>(this) +
                                       slots_offset(n))) {
    for (std::uint32_t w = 0; w < word_count(); ++w) new (&words_[w]) Word(0);
    // Padding bits of the last word start claimed: no walk or drain can
    // ever stop on (or emit) a slot past count_.
    if (count_ % kWordBits != 0) {
      words_[word_count() - 1].store(~low_bits(count_ % kWordBits),
                                     std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < count_; ++i) {
      new (&slots_[i]) Slot{sorted_items[i].first, sorted_items[i].second};
#ifndef NDEBUG
      assert(i == 0 || !(sorted_items[i].first < sorted_items[i - 1].first));
#endif
    }
  }

  ~Block() = default;
  static_assert(std::is_trivially_destructible_v<Key> &&
                    std::is_trivially_destructible_v<Value>,
                "pooled slots are not individually destroyed");
  static_assert(std::is_trivially_destructible_v<Word>,
                "pooled claim words are not individually destroyed");

  // Mask of the bits below bit r (r < 64).
  static constexpr std::uint64_t low_bits(std::uint32_t r) noexcept {
    return (std::uint64_t{1} << r) - 1;
  }

  static constexpr std::uint32_t words_for(std::uint32_t n) noexcept {
    return (n + kWordBits - 1) / kWordBits;
  }
  std::uint32_t word_count() const noexcept { return words_for(count_); }

  // Chunk layout: [Block header][claim words][slots]. unref() recomputes
  // the size from count_ for pool_free.
  static constexpr std::size_t align_up(std::size_t bytes,
                                        std::size_t align) noexcept {
    return (bytes + align - 1) & ~(align - 1);
  }
  static constexpr std::size_t words_offset() noexcept {
    return align_up(sizeof(Block), alignof(Word));
  }
  static constexpr std::size_t slots_offset(std::uint32_t n) noexcept {
    return align_up(words_offset() + std::size_t{words_for(n)} * sizeof(Word),
                    alignof(Slot));
  }
  static constexpr std::size_t storage_bytes(std::uint32_t n) noexcept {
    return slots_offset(n) + std::size_t{n} * sizeof(Slot);
  }

  static std::uint32_t capacity_for(std::uint32_t n) noexcept {
    std::uint32_t c = 1;
    while (c < n) c <<= 1;
    return c;
  }

  const std::uint32_t count_;
  const std::uint32_t capacity_;
  Word* const words_;
  Slot* const slots_;
  mutable std::atomic<std::uint32_t> head_hint_{0};
  std::atomic<std::uint32_t> refs_{1};
};

// Claim-merge two blocks (stable two-way step of the LSM merge cascade).
// Items lost to racing claimants are simply skipped.
//
// Drain-then-merge: each block's still-live items are first claimed out in
// order into per-thread scratch runs, then the runs are combined with the
// branch-free kernel (merge_kernel.hpp). Compared to the old
// interleaved claim-and-compare loop this (a) removes the per-element
// mispredicted winner branch from the comparison loop, and (b) sizes the
// result exactly — the old `reserve(a.live_estimate() + b.live_estimate())`
// counted slots racing claimants had already taken, so the hot path
// routinely allocated far more than it filled. The scratch reserves use
// live_estimate() (a true upper bound on what drain_into can emit) and the
// scratch capacity persists across merges, so steady state does no
// allocation at all beyond the exact-size result.
//
// Ordering note: claims happen run-by-run (all of `a`, then all of `b`)
// instead of interleaved by key. Per-slot exactly-once transfer is
// unaffected — it relies only on each claim bit flipping once, not on claim
// order.
template <typename Key, typename Value>
void claim_merge_into(Block<Key, Value>& a, Block<Key, Value>& b,
                      std::vector<std::pair<Key, Value>>& merged) {
  using Item = std::pair<Key, Value>;
  thread_local std::vector<Item> run_a;
  thread_local std::vector<Item> run_b;
  run_a.clear();
  run_b.clear();
  run_a.reserve(a.live_estimate());
  run_b.reserve(b.live_estimate());
  a.drain_into(run_a);
  b.drain_into(run_b);
  merged.resize(run_a.size() + run_b.size());
  merge_sorted(run_a.data(), run_a.size(), run_b.data(), run_b.size(),
               merged.data());
}

template <typename Key, typename Value>
std::vector<std::pair<Key, Value>> claim_merge(Block<Key, Value>& a,
                                               Block<Key, Value>& b) {
  std::vector<std::pair<Key, Value>> merged;
  claim_merge_into(a, b, merged);
  return merged;
}

template <typename Key, typename Value>
struct BlockArray {
  static constexpr std::uint32_t kMaxBlocks = 48;

  std::uint32_t count = 0;
  Block<Key, Value>* blocks[kMaxBlocks] = {};
  // SLSM pivot range: candidates of block i are slots [first_live, pivot_end).
  std::atomic<std::uint32_t> pivot_end[kMaxBlocks] = {};

  // The array takes over the caller's reference for each block pointer it
  // stores (callers ref() blocks they also keep).
  static BlockArray* create() { return new BlockArray(); }

  static void destroy(BlockArray* array) {
    for (std::uint32_t i = 0; i < array->count; ++i) {
      array->blocks[i]->unref();
    }
    delete array;
  }

  // Type-erased deleter for EBR retirement.
  static void ebr_deleter(void* p) { destroy(static_cast<BlockArray*>(p)); }

  std::uint32_t live_estimate() const noexcept {
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      total += blocks[i]->live_estimate();
    }
    return total;
  }

  // Locate the live slot with the globally smallest key. Returns false when
  // every slot is claimed. On success, (block_index, slot_index, key) of the
  // current minimum candidate (racy: the slot may be claimed by the time the
  // caller acts, in which case the caller rescans).
  bool find_min(std::uint32_t& block_out, std::uint32_t& slot_out,
                Key& key_out) const noexcept {
    bool found = false;
    Key best_key{};
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t first = blocks[i]->first_live();
      if (first >= blocks[i]->slot_count()) continue;
      const Key key = blocks[i]->slot(first).key;
      if (!found || key < best_key) {
        found = true;
        block_out = i;
        slot_out = first;
        best_key = key;
      }
    }
    if (found) key_out = best_key;
    return found;
  }
};

}  // namespace cpq::klsm_detail
