// k-LSM building blocks: sorted item blocks, the two-phase copy-merge
// of a colliding pair, and versioned block arrays.
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
// Bulk moves claim a whole word with one exchange(~0), so a move costs one
// locked instruction per 64 slots rather than one per slot.
//
// A merge (CopyMerge) copies first and claims second: it merges the slots
// live in a snapshot of the sources' claim words straight into the new
// block, then exchanges the source words and marks claimed in the new block
// every copied item someone else claimed in between. Copying claims nothing,
// so the SLSM runs it outside its insert lock while the sources stay
// published and claimable.
//
// A BlockArray is an immutable snapshot of a LSM's block list (capacities
// decreasing, strictly so in the DLSM and in the SLSM whenever no merge is
// in flight), published through a single atomic pointer and reclaimed via
// EBR. Blocks are shared between array versions (and between a victim's
// array and a spy) through an intrusive refcount: each array owns one
// reference per contained block, and the EBR deleter of a retired array
// drops them. The SLSM's arrays extend it with their candidate ranges
// (SlsmArray, slsm.hpp).
#pragma once

#include <algorithm>
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
class CopyMerge;

template <typename Key, typename Value>
class Block {
 public:
  using Slot = std::pair<Key, Value>;

  static constexpr std::uint32_t kWordBits = 64;

  // Build a block from already-sorted items. refs starts at 1: the caller
  // places the block into exactly one array (or drops it with unref()).
  //
  // Header, claim words and slot array live in ONE pooled chunk
  // (mm::pool_alloc), so the merge cascade's block churn is a magazine
  // pop/push instead of malloc/free round-trips per block version.
  static Block* create(const Slot* sorted_items, std::uint32_t n) {
    Block* block = allocate(n);
    std::uninitialized_copy_n(sorted_items, n, block->slots_);
#ifndef NDEBUG
    for (std::uint32_t i = 1; i < n; ++i) {
      assert(!(sorted_items[i].first < sorted_items[i - 1].first));
    }
#endif
    return block;
  }

  static Block* create(std::vector<Slot>&& sorted_items) {
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

  // SLSM only, read and written under its insert lock: the block belongs to
  // a pair an inserter is merging outside the lock, so no other inserter
  // may merge it and every array carries it until the merge is spliced in.
  bool reserved() const noexcept { return reserved_; }
  void set_reserved() noexcept { reserved_ = true; }

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
      if (threshold < slots_[mid].first) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  // Claim-move every still-live item into `out`, preserving sort order: one
  // exchange(~0) per claim word, emitting the slots whose old bit was 0.
  // Used where the items leave the block structure (DLSM->SLSM overflow,
  // spy); merges go through CopyMerge instead.
  void drain_into(std::vector<Slot>& out) {
    const std::uint32_t first = first_live();
    if (first >= count_) return;
    for (std::uint32_t w = first / kWordBits; w < word_count(); ++w) {
      // Fault injection: a drain (spy / overflow) racing deleters word by
      // word is the k-LSM's busiest ownership-transfer seam.
      CPQ_INJECT("block.drain");
      std::uint64_t live =
          ~words_[w].exchange(kAllClaimed, std::memory_order_acq_rel);
      for (; live != 0; live &= live - 1) {
        out.push_back(slots_[w * kWordBits + static_cast<std::uint32_t>(
                                                 std::countr_zero(live))]);
      }
    }
    head_hint_.store(count_, std::memory_order_relaxed);
  }

 private:
  friend class CopyMerge<Key, Value>;

  using Word = std::atomic<std::uint64_t>;
  static constexpr std::uint64_t kAllClaimed = ~std::uint64_t{0};

  // A block of n slots with every claim word clear and the slots
  // unwritten: create() copies into them, CopyMerge merges into them.
  static Block* allocate(std::uint32_t n) {
    void* raw = mm::pool_alloc(storage_bytes(n));
    return new (raw) Block(n);
  }

  explicit Block(std::uint32_t n)
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
  bool reserved_ = false;
};

// Merge one colliding pair of the LSM cascade, (a, b) with a the older,
// larger block, in two phases (the SLSM drops its insert lock in between;
// the DLSM runs them back to back):
//
//   copy(a, b)  claims nothing. It snapshots each source's claim words from
//               its first live slot on and merges the slots live in the
//               snapshot straight into a fresh pooled block, each item
//               written once. A source's claimed slots sit at its front
//               (deleters take candidates there), so only the live slots
//               before its last claimed one are compacted into scratch; the
//               hole-free rest is merged in place (merge_runs).
//   claim()     takes both sources with one exchange(~0) per claim word. A
//               slot live in the snapshot whose exchanged bit is set was
//               copied and then claimed by someone else: it is marked
//               claimed in the new block, at its index in its own run plus
//               the count of the other run's items the merge put before it
//               — strictly smaller keys when it comes from a, smaller or
//               equal ones when it comes from b (ties take a first, as the
//               kernel does). Every other copied slot was won by the
//               exchange.
//
// So each item ends owned exactly once: by whoever claimed it from a source
// first, or live in the new block. The new block is private until its
// owner publishes it, after claim().
template <typename Key, typename Value>
class CopyMerge {
 public:
  using BlockT = Block<Key, Value>;
  using Slot = typename BlockT::Slot;

  void copy(BlockT& a, BlockT& b) {
    sources_[0].read(a);
    sources_[1].read(b);
    const std::size_t n = sources_[0].size() + sources_[1].size();
    merged_ = nullptr;
    if (n == 0) return;
    merged_ = BlockT::allocate(static_cast<std::uint32_t>(n));
    merge_runs(sources_[0].run(), sources_[1].run(), merged_->slots_);
  }

  // The merged block (refs 1), or nullptr when none of its items is live.
  // The sources are fully claimed afterwards.
  BlockT* claim() {
    take(sources_[0], sources_[1], /*from_first=*/true);
    take(sources_[1], sources_[0], /*from_first=*/false);
    BlockT* merged = merged_;
    merged_ = nullptr;
    if (merged != nullptr && merged->first_live() >= merged->slot_count()) {
      merged->unref();
      return nullptr;
    }
    return merged;
  }

 private:
  // One source block as copy() saw it. Its run is `head` (the live slots
  // before the last slot claimed in the snapshot) followed by the slots
  // [tail_start, count) read in place.
  struct Source {
    BlockT* block = nullptr;
    std::uint32_t first_word = 0;
    std::uint32_t tail_start = 0;
    std::vector<std::uint64_t> snapshot;  // claim words from first_word on
    std::vector<Slot> head;

    void read(BlockT& source) {
      block = &source;
      const std::uint32_t count = source.slot_count();
      first_word = source.first_live() / BlockT::kWordBits;
      snapshot.clear();
      head.clear();
      // Every slot past the last claimed one is live; the padding bits of
      // a partial last word are masked out of that search.
      const std::uint32_t words = source.word_count();
      const std::uint64_t last_word_mask =
          count % BlockT::kWordBits == 0
              ? BlockT::kAllClaimed
              : BlockT::low_bits(count % BlockT::kWordBits);
      tail_start = first_word * BlockT::kWordBits;
      for (std::uint32_t w = first_word; w < words; ++w) {
        const std::uint64_t bits =
            source.words_[w].load(std::memory_order_acquire);
        snapshot.push_back(bits);
        const std::uint64_t claimed =
            w + 1 == words ? bits & last_word_mask : bits;
        if (claimed != 0) {
          tail_start = w * BlockT::kWordBits + BlockT::kWordBits -
                       static_cast<std::uint32_t>(std::countl_zero(claimed));
        }
      }
      for (std::uint32_t w = first_word; w * BlockT::kWordBits < tail_start;
           ++w) {
        for (std::uint64_t live = ~snapshot[w - first_word]; live != 0;
             live &= live - 1) {
          const std::uint32_t s =
              w * BlockT::kWordBits +
              static_cast<std::uint32_t>(std::countr_zero(live));
          if (s >= tail_start) break;
          head.push_back(source.slots_[s]);
        }
      }
    }

    std::size_t size() const noexcept {
      return head.size() + (block->slot_count() - tail_start);
    }

    Run<Slot> run() const noexcept {
      return {head.data(), head.size(), block->slots_ + tail_start,
              block->slot_count() - tail_start};
    }

    // Items of the run ordered before `key`: keys < key, or <= key when
    // `or_equal` (the run is head then tail, both sorted).
    std::size_t count_before(const Key& key, bool or_equal) const {
      const auto before = [&](const Slot& s) {
        return or_equal ? !(key < s.first) : s.first < key;
      };
      const std::size_t in_head = static_cast<std::size_t>(
          std::partition_point(head.begin(), head.end(), before) -
          head.begin());
      if (in_head < head.size()) return in_head;
      const Slot* tail = block->slots_ + tail_start;
      const Slot* tail_end = block->slots_ + block->slot_count();
      return in_head + static_cast<std::size_t>(
                           std::partition_point(tail, tail_end, before) -
                           tail);
    }
  };

  // Exchange every claim word of `own` from its snapshot on and mark the
  // slots lost since the copy claimed in the merged block.
  void take(Source& own, const Source& other, bool from_first) {
    BlockT& block = *own.block;
    std::size_t run_index = 0;  // run index of word w's first live slot
    for (std::uint32_t w = own.first_word; w < block.word_count(); ++w) {
      const std::uint64_t live = ~own.snapshot[w - own.first_word];
      const std::uint64_t old =
          block.words_[w].exchange(BlockT::kAllClaimed,
                                   std::memory_order_acq_rel);
      for (std::uint64_t lost = live & old; lost != 0; lost &= lost - 1) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(lost));
        const Key& key = block.slots_[w * BlockT::kWordBits + bit].first;
        const std::size_t index =
            run_index +
            static_cast<std::size_t>(
                std::popcount(live & BlockT::low_bits(bit))) +
            other.count_before(key, /*or_equal=*/!from_first);
        merged_->words_[index / BlockT::kWordBits].fetch_or(
            std::uint64_t{1} << (index % BlockT::kWordBits),
            std::memory_order_relaxed);
      }
      run_index += static_cast<std::size_t>(std::popcount(live));
    }
    block.head_hint_.store(block.count_, std::memory_order_relaxed);
  }

  Source sources_[2];
  BlockT* merged_ = nullptr;
};

// Copy, claim and return the merged block (nullptr when nothing in it is
// live), the two phases back to back: the DLSM cascade's merge step.
template <typename Key, typename Value>
Block<Key, Value>* copy_merge_claim(Block<Key, Value>& a,
                                    Block<Key, Value>& b) {
  thread_local CopyMerge<Key, Value> merge;
  merge.copy(a, b);
  return merge.claim();
}

template <typename Key, typename Value>
struct BlockArray {
  static constexpr std::uint32_t kMaxBlocks = 48;

  std::uint32_t count = 0;
  Block<Key, Value>* blocks[kMaxBlocks] = {};

  // The array takes over the caller's reference for each block pointer it
  // stores (callers ref() blocks they also keep).
  static BlockArray* create() { return new BlockArray(); }

  static void destroy(BlockArray* array) {
    array->unref_blocks();
    delete array;
  }

  // Type-erased deleter for EBR retirement.
  static void ebr_deleter(void* p) { destroy(static_cast<BlockArray*>(p)); }

  void unref_blocks() noexcept {
    for (std::uint32_t i = 0; i < count; ++i) blocks[i]->unref();
  }

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
      const Key key = blocks[i]->slot(first).first;
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
