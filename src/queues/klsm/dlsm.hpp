// Distributed LSM (DLSM): the thread-local component of the k-LSM.
//
// Each thread owns one ThreadLocalLsm. The owner is the only thread that
// restructures it (inserts, merges, overflow extraction), so structural
// updates are single-writer: a fresh BlockArray is built, published with a
// release store, and the old array is retired through EBR. Foreign threads
// interact in two ways, both via the published array under an EBR guard:
//
//   * k-LSM delete_min peeks the owner's own array (owner access, no guard
//     needed for the current array) — items are claimed by their claim-word
//     bit, so claims by the owner, by merges, and by spies never conflict.
//   * spy(): when a thread's local LSM is empty, it claims every live item
//     out of a victim's published array and re-materializes them in its own
//     LSM. The paper describes spy as "copying" another thread's items; in
//     the original implementation items are shared so either side may claim
//     them, while here the spy *moves* them (each item is still delivered
//     exactly once, and the DLSM guarantee — returned items are minimal on
//     the current thread — is unchanged).
//
// Deletions from the DLSM skip at most k items per foreign thread, hence
// k(P-1) in total; combined with the SLSM's k this yields the k-LSM's kP
// bound (paper §B).
//
// The owner also keeps two plain fields no other thread touches, so the
// k-LSM's hot path need not walk the blocks to learn what it already knows:
//
//   * count(): an upper bound on the live items. Inserts and re-homed spy
//     batches add to it and the owner's own claims subtract; claims by spies
//     and merges only make it looser. exceeds(k) walks the blocks
//     (live_estimate()) only once the count passes k and resets the count to
//     what the walk found, as does each overflow extraction.
//   * below_min(key): whether a key is below a lower bound on the smallest
//     live key. Inserts and re-homes lower the bound, each full peek resets
//     it to the exact minimum, and claims by anyone only raise the true
//     minimum, so a key below the bound is below every live local item.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "mm/epoch.hpp"
#include "queues/klsm/block.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::klsm_detail {

template <typename Key, typename Value>
class ThreadLocalLsm {
 public:
  using BlockT = Block<Key, Value>;
  using ArrayT = BlockArray<Key, Value>;

  // Staging buffer: the owner batches up to kStagingSlots singleton inserts
  // before materializing them as one sorted block, cutting the per-insert
  // allocation cost (array + block + slots) by that factor — the role of
  // the insertion buffer in the original k-LSM. Staged items are fully
  // visible: the owner's peek/delete scans them and spies steal them, via
  // one stage word shared by all slots — a ready bit per slot plus the
  // owner's flush epoch — so claiming is ABA-safe and exactly-once exactly
  // like block slots.
  static constexpr std::uint32_t kStagingSlots = 16;

  // Stage word layout: (flush epoch << kStagingSlots) | ready bits. Bit i is
  // set once by the insert that fills slot i and cleared once by whoever
  // claims that item; the epoch changes only when the owner flushes (and so
  // starts reusing slots), which makes a CAS from a stale word fail.
  static constexpr std::uint64_t kReadyMask =
      (std::uint64_t{1} << kStagingSlots) - 1;

  // Sentinel "block index" that peek/claim use to address staging slots.
  static constexpr std::uint32_t kStagingBlockIndex = 0xFFFFFFFFu;

  // Result of peek_local_min: enough context to claim exactly the item
  // that was peeked (stage_word pins the staging slot's incarnation).
  struct PeekResult {
    std::uint32_t block = 0;
    std::uint32_t slot = 0;
    std::uint64_t stage_word = 0;
    Key key{};
    bool staged = false;
  };

  ThreadLocalLsm() = default;

  ~ThreadLocalLsm() {
    ArrayT* array = published_.load(std::memory_order_relaxed);
    if (array) ArrayT::destroy(array);
  }

  ThreadLocalLsm(const ThreadLocalLsm&) = delete;
  ThreadLocalLsm& operator=(const ThreadLocalLsm&) = delete;

  // ---- owner-only operations -------------------------------------------

  void insert(Key key, Value value) {
    added(key, 1);
    if (staging_cursor_ == kStagingSlots) flush_staging();
    const std::uint32_t i = staging_cursor_++;
    staging_[i].key.store(key, std::memory_order_relaxed);
    staging_[i].value.store(value, std::memory_order_relaxed);
    // Fault injection: stall between writing the payload and publishing the
    // ready bit — spies must never observe a half-written staged item.
    CPQ_INJECT("dlsm.stage");
    stage_word_.fetch_or(std::uint64_t{1} << i, std::memory_order_release);
  }

  // Claim all still-ready staged items into one sorted block with one
  // exchange that also installs the next epoch (the slots are reused from
  // here on). The scratch vector is a member (owner-only path), so
  // steady-state flushes reuse its capacity instead of paying a heap
  // round-trip per kStagingSlots inserts.
  void flush_staging() {
    if (staging_cursor_ == 0) return;
    staging_cursor_ = 0;
    // Only the owner writes the epoch bits, so a relaxed load reads it.
    const std::uint64_t epoch =
        stage_word_.load(std::memory_order_relaxed) >> kStagingSlots;
    // Fault injection: stall before the exchange a spy's CAS races with.
    CPQ_INJECT("dlsm.flush_claim");
    const std::uint64_t ready =
        stage_word_.exchange((epoch + 1) << kStagingSlots,
                             std::memory_order_acq_rel) &
        kReadyMask;
    if (ready == 0) return;  // all stolen by spies
    std::vector<std::pair<Key, Value>>& items = flush_scratch_;
    items.clear();
    append_staged(ready, items);
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    insert_block(BlockT::create(items.data(),
                                static_cast<std::uint32_t>(items.size())));
  }

  // Insert an already-sorted batch as one block (used when re-homing spied
  // items). The span overload lets callers keep their scratch buffer.
  void insert_sorted(const std::pair<Key, Value>* items, std::uint32_t n) {
    if (n == 0) return;
    added(items[0].first, n);
    insert_block(BlockT::create(items, n));
  }

  void insert_sorted(std::vector<std::pair<Key, Value>>&& items) {
    insert_sorted(items.data(), static_cast<std::uint32_t>(items.size()));
  }

  // Claim the local minimum. Returns false when the local LSM is empty.
  bool delete_local_min(Key& key_out, Value& value_out) {
    for (;;) {
      PeekResult peeked;
      if (!peek_local_min(peeked)) return false;
      if (claim_peeked(peeked, key_out, value_out)) return true;
      // Lost the item to a spy or merge; rescan.
    }
  }

  // Peek the local minimum candidate (staging included) without claiming,
  // and reset the minimum bound to it. Racy by design; claim_peeked
  // revalidates. Only spies race the owner here, and they only take items,
  // so the key found is at most the smallest key live once the peek ends.
  bool peek_local_min(PeekResult& out) {
    bool found = false;
    Key best{};
    std::uint32_t block_index = 0;
    std::uint32_t slot_index = 0;
    const ArrayT* array = published_.load(std::memory_order_relaxed);
    if (array && array->find_min(block_index, slot_index, best)) {
      found = true;
      out.staged = false;
      out.block = block_index;
      out.slot = slot_index;
      out.key = best;
    }
    const std::uint64_t word = stage_word_.load(std::memory_order_acquire);
    for (std::uint64_t ready = word & kReadyMask; ready != 0;
         ready &= ready - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(ready));
      const Key key = staging_[i].key.load(std::memory_order_relaxed);
      if (!found || key < out.key) {
        found = true;
        out.staged = true;
        out.block = kStagingBlockIndex;
        out.slot = i;
        out.stage_word = word;
        out.key = key;
      }
    }
    has_floor_ = found;
    floor_ = out.key;
    return found;
  }

  // Claim exactly the item found by peek_local_min; fails if a racing spy,
  // merge, or flush got there first (or, for staging, if the slot was
  // reused — the epoch in the peeked word makes that CAS fail). Owner only.
  bool claim_peeked(const PeekResult& peeked, Key& key_out, Value& value_out) {
    if (peeked.staged) {
      const StageSlot& slot = staging_[peeked.slot];
      const Key key = slot.key.load(std::memory_order_relaxed);
      const Value value = slot.value.load(std::memory_order_relaxed);
      std::uint64_t expected = peeked.stage_word;
      if (!stage_word_.compare_exchange_strong(
              expected, expected & ~(std::uint64_t{1} << peeked.slot),
              std::memory_order_acq_rel)) {
        return false;
      }
      key_out = key;
      value_out = value;
      --count_;
      return true;
    }
    ArrayT* array = published_.load(std::memory_order_relaxed);
    if (!array || peeked.block >= array->count) return false;
    BlockT* block = array->blocks[peeked.block];
    if (peeked.slot >= block->slot_count()) return false;
    if (!block->claim(peeked.slot)) return false;
    key_out = block->slot(peeked.slot).first;
    value_out = block->slot(peeked.slot).second;
    --count_;
    return true;
  }

  // Owner only: an upper bound on the live items (staged included).
  std::uint32_t count() const noexcept { return count_; }

  // Owner only: whether more than k items are live. Walks the blocks only
  // once the owner count passes k, and resets the count to what it found.
  bool exceeds(std::uint64_t k) {
    if (count_ <= k) return false;
    count_ = live_estimate();
    return count_ > k;
  }

  // Owner only: whether `key` is below every live local item, judged by the
  // minimum bound alone (any key is, when the last full peek found nothing
  // and nothing was added since).
  bool below_min(const Key& key) const noexcept {
    return !has_floor_ || key < floor_;
  }

  // Upper bound on the number of live local items (staged included): a walk
  // over every block's head hint plus the stage word.
  std::uint32_t live_estimate() const {
    const ArrayT* array = published_.load(std::memory_order_relaxed);
    const std::uint32_t total = array ? array->live_estimate() : 0;
    return total + static_cast<std::uint32_t>(std::popcount(
                       stage_word_.load(std::memory_order_acquire) &
                       kReadyMask));
  }

  // Claim-extract the largest block's items (the DLSM->SLSM overflow batch)
  // and republish without that block, then reset the owner count to
  // live_estimate(). Returns the sorted batch (possibly empty if racing
  // claimants emptied the block first).
  std::vector<std::pair<Key, Value>> extract_largest_block() {
    std::vector<std::pair<Key, Value>> batch;
    ArrayT* array = published_.load(std::memory_order_relaxed);
    if (!array || array->count == 0) {
      // Everything may still sit in staging (tiny k): materialize it so the
      // overflow makes progress.
      flush_staging();
      array = published_.load(std::memory_order_relaxed);
      if (!array || array->count == 0) return batch;
    }
    BlockT* largest = array->blocks[0];  // capacities sorted descending
    largest->drain_into(batch);
    ArrayT* next = ArrayT::create();
    for (std::uint32_t i = 1; i < array->count; ++i) {
      array->blocks[i]->ref();
      next->blocks[next->count++] = array->blocks[i];
    }
    publish(next, array);
    count_ = live_estimate();
    return batch;
  }

  // ---- foreign-thread operations ----------------------------------------

  // Published array for spying. Caller must hold an EBR guard and must not
  // retain the pointer beyond the guard.
  ArrayT* spy_array() const {
    return published_.load(std::memory_order_acquire);
  }

  // Claim every live item out of `array` (a victim's published array read
  // under the caller's guard), appending to `out` (unsorted across blocks).
  static void steal_all(ArrayT* array,
                        std::vector<std::pair<Key, Value>>& out) {
    for (std::uint32_t i = 0; i < array->count; ++i) {
      array->blocks[i]->drain_into(out);
    }
  }

  // Claim the victim's staged items too (called on the victim's LSM by the
  // spying thread): one CAS clears every ready bit of the word whose items
  // were read, so the epoch check keeps it exactly-once. A failed CAS (the
  // owner staged, claimed or flushed meanwhile) discards the reads and
  // retries on the fresh word.
  void steal_staging(std::vector<std::pair<Key, Value>>& out) {
    const std::size_t base = out.size();
    std::uint64_t word = stage_word_.load(std::memory_order_acquire);
    while ((word & kReadyMask) != 0) {
      append_staged(word & kReadyMask, out);
      // Fault injection: the mirror of dlsm.flush_claim, from the spy side.
      CPQ_INJECT("dlsm.steal");
      if (stage_word_.compare_exchange_weak(word, word & ~kReadyMask,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        return;
      }
      out.resize(base);
    }
  }

 private:
  // The owner added n items, the smallest with key `smallest`.
  void added(const Key& smallest, std::uint32_t n) noexcept {
    count_ += n;
    if (!has_floor_ || smallest < floor_) floor_ = smallest;
    has_floor_ = true;
  }

  void insert_block(BlockT* fresh) {
    ArrayT* old_array = published_.load(std::memory_order_relaxed);
    ArrayT* next = ArrayT::create();
    // Carry over existing blocks (dropping drained ones), then append the
    // new block and run the merge cascade from the tail.
    if (old_array) {
      for (std::uint32_t i = 0; i < old_array->count; ++i) {
        BlockT* block = old_array->blocks[i];
        if (block->first_live() >= block->slot_count()) continue;  // empty
        block->ref();
        next->blocks[next->count++] = block;
      }
    }
    next->blocks[next->count++] = fresh;
    merge_cascade(*next);
    publish(next, old_array);
  }

  // Merge trailing blocks while capacities collide. Merged blocks replace
  // their sources in the (owner-private, unpublished) array; spies may
  // claim from the sources meanwhile, and copy_merge_claim marks what they
  // took in the merged block.
  static void merge_cascade(ArrayT& array) {
    while (array.count >= 2) {
      BlockT* last = array.blocks[array.count - 1];
      BlockT* prev = array.blocks[array.count - 2];
      if (prev->capacity() > last->capacity()) break;
      BlockT* merged = copy_merge_claim(*prev, *last);
      prev->unref();
      last->unref();
      array.count -= 2;
      if (merged != nullptr) array.blocks[array.count++] = merged;
    }
  }

  void publish(ArrayT* next, ArrayT* old_array) {
    // Fault injection: delay publication so spies work on a stale array
    // whose blocks the replacement shares (claims must still be unique).
    CPQ_INJECT("dlsm.publish");
    published_.store(next, std::memory_order_release);
    if (old_array) {
      mm::EbrDomain::Guard guard;
      mm::EbrDomain::global().retire(static_cast<void*>(old_array),
                                     &ArrayT::ebr_deleter);
    }
  }

  // Append the staged items named by `ready` (a set of ready bits).
  void append_staged(std::uint64_t ready,
                     std::vector<std::pair<Key, Value>>& out) const {
    for (; ready != 0; ready &= ready - 1) {
      const StageSlot& slot = staging_[std::countr_zero(ready)];
      out.emplace_back(slot.key.load(std::memory_order_relaxed),
                       slot.value.load(std::memory_order_relaxed));
    }
  }

  // The payload fields are relaxed atomics because staged slots are a
  // seqlock: spies read key/value between an acquire load of the stage
  // word and the epoch-validating CAS that claims the slots, concurrently
  // with the owner rewriting a reused slot. The CAS (its release half
  // orders the preceding relaxed loads before it) rejects any read that
  // overlapped a rewrite — but the overlapping loads still need to be
  // atomic to be defined behavior. For the 64-bit keys/values every queue
  // instantiates, these compile to the same plain moves as before.
  struct StageSlot {
    std::atomic<Key> key{};
    std::atomic<Value> value{};
  };

  std::atomic<ArrayT*> published_{nullptr};
  std::atomic<std::uint64_t> stage_word_{0};
  StageSlot staging_[kStagingSlots];
  std::uint32_t staging_cursor_ = 0;  // owner-thread access only
  std::vector<std::pair<Key, Value>> flush_scratch_;  // owner-thread only
  // The owner count and minimum bound (owner-thread only; header comment).
  std::uint32_t count_ = 0;
  Key floor_{};
  bool has_floor_ = false;
};

}  // namespace cpq::klsm_detail
