// Shared LSM (SLSM): the global, relaxed component of the k-LSM.
//
// One global BlockArray is published through an atomic pointer. delete_min
// picks a uniformly random live slot from the *pivot range* — per block, the
// slots whose keys are <= a threshold X chosen such that the number of slots
// with key <= X was at most k+1 at computation time. Because membership is
// defined by a key threshold and items only ever get claimed (never added to
// a published array), a pivot entry can never become unsafe; it is refreshed
// when the range drains (DESIGN.md §4). Deletions therefore skip at most k
// items, the SLSM half of the k-LSM's kP bound.
//
// Structural inserts (batches arriving from DLSM overflows) are serialized
// by a spinlock. The original k-LSM publishes block arrays lock-free from a
// versioned block pool; with our claim-move semantics a failed optimistic
// publication cannot be rolled back without losing items, so we trade
// lock-freedom of the (already batched, amortized-rare) insert path for a
// much simpler proof. delete_min remains lock-free. The benchmark shape is
// preserved: SLSM inserts are the k-LSM's slow path either way, and the
// paper's split-workload collapse (Fig. 2) reproduces (EXPERIMENTS.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "queues/klsm/block.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::klsm_detail {

template <typename Key, typename Value>
class Slsm {
 public:
  using BlockT = Block<Key, Value>;
  using ArrayT = BlockArray<Key, Value>;

  explicit Slsm(std::uint64_t relaxation_k) : k_(relaxation_k) {}

  ~Slsm() {
    ArrayT* array = published_.load(std::memory_order_relaxed);
    if (array) ArrayT::destroy(array);
  }

  Slsm(const Slsm&) = delete;
  Slsm& operator=(const Slsm&) = delete;

  std::uint64_t relaxation() const noexcept { return k_; }

  // Single-item structural insert: builds the one-slot block straight from
  // the stack — no one-element std::vector heap round-trip per op.
  void insert(Key key, Value value) {
    const std::pair<Key, Value> one[1] = {{key, value}};
    publish_fresh(BlockT::create(one, 1));
  }

  // Insert a sorted batch as one block, merge the cascade, recompute pivots
  // and publish. Serialized against other inserters.
  void insert_batch(std::vector<std::pair<Key, Value>>&& sorted_items) {
    if (sorted_items.empty()) return;
    publish_fresh(BlockT::create(sorted_items.data(),
                                 static_cast<std::uint32_t>(sorted_items.size())));
  }
  // Carry the live blocks of the published array plus `fresh` into a new
  // array, merge, recompute pivots, publish, retire the old snapshot.
  // Shared by insert() and insert_batch(); serialized by the insert lock.
  void publish_fresh(BlockT* fresh) {
    std::lock_guard<Spinlock> lock(insert_lock_.value);
    ArrayT* old_array = published_.load(std::memory_order_relaxed);
    ArrayT* next = ArrayT::create();
    if (old_array) {
      for (std::uint32_t i = 0; i < old_array->count; ++i) {
        BlockT* block = old_array->blocks[i];
        if (block->first_live() >= block->slot_count()) continue;
        block->ref();
        next->blocks[next->count++] = block;
      }
    }
    next->blocks[next->count++] = fresh;
    merge_cascade(*next);
    compute_pivots(*next, k_);
    // Fault injection: delay publication — deleters keep hammering the old
    // array while the replacement (holding the same blocks) is in flight.
    CPQ_INJECT("slsm.publish");
    published_.store(next, std::memory_order_release);
    if (old_array) {
      mm::EbrDomain::Guard guard;
      mm::EbrDomain::global().retire(static_cast<void*>(old_array),
                                     &ArrayT::ebr_deleter);
    }
  }

  // Claim a uniformly random item from the pivot range. Lock-free.
  // Returns false only when the SLSM appears empty.
  bool delete_min(Key& key_out, Value& value_out, Xoroshiro128& rng) {
    mm::EbrDomain::Guard guard;
    for (unsigned round = 0; round < kMaxRounds; ++round) {
      ArrayT* array = published_.load(std::memory_order_acquire);
      if (!array || array->count == 0) return false;
      // Fault injection: hold the snapshot before claiming so a concurrent
      // insert_batch can retire the array under our feet (EBR must protect).
      CPQ_INJECT("slsm.delete_min");
      if (try_claim_from_pivot(*array, key_out, value_out, rng)) return true;
      // Pivot range drained: recompute from the current heads. If even the
      // refreshed range is empty, the array holds no live items.
      if (!refresh_pivots(*array, k_)) {
        // Re-check that the array was not replaced underneath us before
        // declaring emptiness.
        if (published_.load(std::memory_order_acquire) == array) return false;
      }
    }
    return false;
  }

  // Peek the smallest live key (strict front, not a random candidate).
  // Racy by design; used by tests and the standalone SLSM's diagnostics.
  bool peek_min(std::uint32_t& block_out, std::uint32_t& slot_out,
                Key& key_out) const {
    const ArrayT* array = published_.load(std::memory_order_acquire);
    if (!array) return false;
    return array->find_min(block_out, slot_out, key_out);
  }

  // A uniformly random pivot-range candidate for the k-LSM's "peek both,
  // take the smaller" deletion (paper §B): the k-LSM compares its local
  // minimum against this *candidate* (one of the k+1 smallest SLSM items),
  // which is what yields the composed kP bound. The caller must hold an EBR
  // guard across peek and claim; the candidate pins (array, block, slot).
  struct Candidate {
    ArrayT* array = nullptr;
    std::uint32_t block = 0;
    std::uint32_t slot = 0;
    Key key{};
  };

  bool peek_random_candidate(Candidate& out, Xoroshiro128& rng) {
    for (unsigned round = 0; round < kMaxRounds; ++round) {
      ArrayT* array = published_.load(std::memory_order_acquire);
      if (!array || array->count == 0) return false;
      std::uint64_t total = 0;
      std::uint32_t starts[ArrayT::kMaxBlocks];
      std::uint32_t ends[ArrayT::kMaxBlocks];
      for (std::uint32_t i = 0; i < array->count; ++i) {
        const std::uint32_t first = array->blocks[i]->first_live();
        const std::uint32_t end =
            array->pivot_end[i].load(std::memory_order_acquire);
        starts[i] = first;
        ends[i] = end > first ? end : first;
        total += ends[i] - starts[i];
      }
      if (total == 0) {
        if (!refresh_pivots(*array, k_) &&
            published_.load(std::memory_order_acquire) == array) {
          return false;
        }
        continue;
      }
      std::uint64_t pick = rng.next_below(total);
      for (std::uint32_t i = 0; i < array->count; ++i) {
        const std::uint64_t span = ends[i] - starts[i];
        if (pick >= span) {
          pick -= span;
          continue;
        }
        // Scan forward from the picked slot, wrapping to the range start
        // (starts[i] is the first *live* slot, so a wrap finds a candidate
        // unless a racing deleter claimed the whole range meanwhile).
        const BlockT& block = *array->blocks[i];
        const std::uint32_t from =
            starts[i] + static_cast<std::uint32_t>(pick);
        for (const auto& [lo, hi] : wrapped_range(starts[i], from, ends[i])) {
          const std::uint32_t s = block.next_live(lo, hi);
          if (s < hi) {
            out.array = array;
            out.block = i;
            out.slot = s;
            out.key = block.slot(s).key;
            return true;
          }
        }
        break;  // whole range drained; re-snapshot
      }
    }
    return false;
  }

  bool claim_candidate(const Candidate& candidate, Key& key_out,
                       Value& value_out) {
    BlockT& block = *candidate.array->blocks[candidate.block];
    if (!block.claim(candidate.slot)) return false;
    key_out = block.slot(candidate.slot).key;
    value_out = block.slot(candidate.slot).value;
    return true;
  }

  std::uint32_t live_estimate() const {
    const ArrayT* array = published_.load(std::memory_order_acquire);
    return array ? array->live_estimate() : 0;
  }

  // Current published array (EBR guard required). Exposed for the k-LSM's
  // combined deletion and for whitebox tests.
  ArrayT* current_array() const {
    return published_.load(std::memory_order_acquire);
  }

 private:
  static constexpr unsigned kMaxRounds = 16;
  static constexpr unsigned kClaimProbes = 8;

  // A candidate range [start, end) probed from `from`: first [from, end),
  // then the wrap-around [start, from).
  using Span = std::pair<std::uint32_t, std::uint32_t>;
  static std::array<Span, 2> wrapped_range(std::uint32_t start,
                                           std::uint32_t from,
                                           std::uint32_t end) noexcept {
    return {Span{from, end}, Span{start, from}};
  }

  static void merge_cascade(ArrayT& array) {
    // Reused merge scratch: the cascade runs under the insert lock but the
    // buffer is thread-local, so capacity survives across cascades and the
    // steady-state merge allocates only the pooled result block.
    thread_local std::vector<std::pair<Key, Value>> merged_items;
    while (array.count >= 2) {
      BlockT* last = array.blocks[array.count - 1];
      BlockT* prev = array.blocks[array.count - 2];
      if (prev->capacity() > last->capacity()) break;
      claim_merge_into(*prev, *last, merged_items);
      prev->unref();
      last->unref();
      array.count -= 2;
      if (!merged_items.empty()) {
        array.blocks[array.count++] = BlockT::create(
            merged_items.data(),
            static_cast<std::uint32_t>(merged_items.size()));
      }
    }
  }

  // Locate the (up to) k+1 smallest *live* items by a multi-way merge over
  // the blocks' live cursors and set each block's pivot_end just past the
  // last live item it contributed. The resulting ranges contain exactly the
  // k+1 smallest live items (plus claimed holes, which deletion probes skip
  // harmlessly), so the "one of the k+1 smallest" guarantee is exact even
  // with heavy key duplication, and the range always exposes a live
  // candidate while any exists. Returns false iff the array is drained.
  //
  // Claims racing with the computation only remove items, which can only
  // shrink the set the range denotes — a stale pivot therefore never
  // violates the bound (DESIGN.md §4).
  static bool compute_pivots(ArrayT& array, std::uint64_t k) {
    std::uint32_t cursor[ArrayT::kMaxBlocks];
    std::uint32_t end[ArrayT::kMaxBlocks];
    for (std::uint32_t i = 0; i < array.count; ++i) {
      cursor[i] = array.blocks[i]->first_live();
      end[i] = cursor[i];
    }
    bool any = false;
    for (std::uint64_t picked = 0; picked <= k; ++picked) {
      // Select the block whose cursor holds the smallest live key.
      std::uint32_t best_block = ArrayT::kMaxBlocks;
      Key best_key{};
      for (std::uint32_t i = 0; i < array.count; ++i) {
        const BlockT& block = *array.blocks[i];
        // Advance this block's cursor over claimed holes, a word at a time.
        const std::uint32_t c = block.next_live(cursor[i], block.slot_count());
        cursor[i] = c;
        if (c >= block.slot_count()) continue;
        const Key key = block.slot(c).key;
        if (best_block == ArrayT::kMaxBlocks || key < best_key) {
          best_block = i;
          best_key = key;
        }
      }
      if (best_block == ArrayT::kMaxBlocks) break;  // fewer than k+1 live
      end[best_block] = cursor[best_block] + 1;
      ++cursor[best_block];
      any = true;
    }
    for (std::uint32_t i = 0; i < array.count; ++i) {
      array.pivot_end[i].store(end[i], std::memory_order_release);
    }
    return any;
  }

  static bool refresh_pivots(ArrayT& array, std::uint64_t k) {
    return compute_pivots(array, k);
  }

  bool try_claim_from_pivot(ArrayT& array, Key& key_out, Value& value_out,
                            Xoroshiro128& rng) {
    for (unsigned probe = 0; probe < kClaimProbes; ++probe) {
      // Total candidate count across blocks (racy snapshot).
      std::uint64_t total = 0;
      std::uint32_t starts[ArrayT::kMaxBlocks];
      std::uint32_t ends[ArrayT::kMaxBlocks];
      for (std::uint32_t i = 0; i < array.count; ++i) {
        const std::uint32_t first = array.blocks[i]->first_live();
        const std::uint32_t end =
            array.pivot_end[i].load(std::memory_order_acquire);
        starts[i] = first;
        ends[i] = end > first ? end : first;
        total += ends[i] - starts[i];
      }
      if (total == 0) return false;
      std::uint64_t pick = rng.next_below(total);
      for (std::uint32_t i = 0; i < array.count; ++i) {
        const std::uint64_t span = ends[i] - starts[i];
        if (pick >= span) {
          pick -= span;
          continue;
        }
        BlockT& block = *array.blocks[i];
        // Claim the live slots of the candidate range from the picked slot,
        // wrapping to the range start (which first_live() guarantees was
        // live); claimed holes are skipped word by word, not claimed again.
        const std::uint32_t from =
            starts[i] + static_cast<std::uint32_t>(pick);
        for (const auto& [lo, hi] : wrapped_range(starts[i], from, ends[i])) {
          for (std::uint32_t s = block.next_live(lo, hi); s < hi;
               s = block.next_live(s + 1, hi)) {
            if (block.claim(s)) {
              key_out = block.slot(s).key;
              value_out = block.slot(s).value;
              return true;
            }
          }
        }
        break;  // whole range drained; re-snapshot
      }
    }
    return false;
  }

  const std::uint64_t k_;
  CacheAligned<Spinlock> insert_lock_;
  std::atomic<ArrayT*> published_{nullptr};
};

}  // namespace cpq::klsm_detail
