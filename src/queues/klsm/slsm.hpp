// Shared LSM (SLSM): the global, relaxed component of the k-LSM.
//
// One global SlsmArray is published through an atomic pointer. delete_min
// picks a uniformly random live slot from the *pivot range* — per block, the
// slots whose keys are <= a threshold X chosen such that the number of slots
// with key <= X was at most k+1 at computation time. Because membership is
// defined by a key threshold and items only ever get claimed (never added to
// a published array), a pivot entry can never become unsafe; it is refreshed
// when the range drains (DESIGN.md §4). Deletions therefore skip at most k
// items, the SLSM half of the k-LSM's kP bound. Each deleting handle keeps a
// View, its own copy of the current array's candidate ranges, and rereads
// the array only when a new one is published or all its ranges drained; it
// recomputes the ranges only when the reread ones are drained too, so one
// refresh serves every handle.
//
// A publication carries the replaced array's ranges over instead of
// computing new ones when every block new to the array starts at or above
// the largest key at those ends (SlsmArray::carry_pivots): the new items are
// then not smaller than any candidate, so the bound holds unchanged. Most
// publications add a block of keys above the candidates, so most run no
// pivot selection under the insert lock; the deleters recompute the carried
// ranges once they drain, as for any drained range.
//
// Inserts (batches arriving from DLSM overflows) take a spinlock, but it
// serializes publication only: every merge of the cascade copies outside
// it. (The original k-LSM publishes without a lock; here moving an item
// claims it, so an optimistic publication that failed could not be rolled
// back. Copying without claiming, then claiming at the splice, is what
// lets the merge leave the lock.) Under the lock an inserter appends its
// block, marks the colliding pair reserved (no other inserter merges a
// reserved block, and every array carries it until its merge is spliced
// in) and publishes, so the pair's items stay visible and claimable while
// it copies them into the merged block (CopyMerge::copy, block.hpp). Back
// under the lock it claims every slot of the pair, marks claimed in the
// merged block each copied item a deleter took since the copy, splices the
// merged block in place of the pair and publishes again. Each claim bit of
// the pair flips once, so every item is delivered exactly once: a deleter
// took it before the copy (not copied), after the copy (copied, but marked
// claimed before anyone can see the merged block), or the splice took it
// (live in the merged block). A merge never stalls the other inserters,
// delete_min is lock-free, and an insert returns once its own items are
// published, merges included.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "queues/klsm/block.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::klsm_detail {

// An SLSM array version: the block list plus what only the SLSM's deleters
// read. pivot_end[i] ends block i's candidate range, which starts at the
// block's first live slot: every live slot below the end has a key <= a
// threshold X with count(keys <= X) <= k+1 when the ends were computed, and
// the end is 0 when the block contributes none. The publication number,
// unique per Slsm, names the version together with its address, since the
// allocator may hand a freed array's address to a later one.
template <typename Key, typename Value>
struct SlsmArray : BlockArray<Key, Value> {
  using Base = BlockArray<Key, Value>;
  using Base::blocks;
  using Base::count;

  std::atomic<std::uint32_t> pivot_end[Base::kMaxBlocks] = {};
  std::uint64_t publication = 0;

  static SlsmArray* create() { return new SlsmArray(); }

  static void destroy(SlsmArray* array) {
    array->unref_blocks();
    delete array;
  }

  static void ebr_deleter(void* p) { destroy(static_cast<SlsmArray*>(p)); }

  // Set each block's range end just past the last live item it contributes
  // to the (up to) k+1 smallest live items of the array: a multi-way merge
  // over one cursor and one cached head key per block that advances only
  // the block whose head it takes, so it reads (k+1)+B claim words rather
  // than (k+1)*B. The blocks wait in a binary min-heap by (head key, block
  // index), so ties go to the lowest index, as a scan of all heads would
  // pick. The ranges hold exactly those items plus claimed holes, which
  // probes skip, so the "one of the k+1 smallest" guarantee is exact even
  // with heavy key duplication, and the ranges expose a live candidate
  // while any exists. Returns false iff no slot is live.
  //
  // Claims racing with the computation only remove items, which can only
  // shrink the set the ranges denote — a stale end therefore never
  // violates the bound (DESIGN.md §4).
  bool compute_pivots(std::uint64_t k) noexcept {
    std::uint32_t cursor[Base::kMaxBlocks];
    std::uint32_t end[Base::kMaxBlocks];
    Key head[Base::kMaxBlocks];
    std::uint32_t heap[Base::kMaxBlocks];
    std::uint32_t size = 0;
    const auto before = [&](std::uint32_t x, std::uint32_t y) {
      return head[x] < head[y] || (!(head[y] < head[x]) && x < y);
    };
    // Put block `moving` at heap position `at` or below it.
    const auto sift_down = [&](std::uint32_t at, std::uint32_t moving) {
      while (2 * at + 1 < size) {
        std::uint32_t child = 2 * at + 1;
        if (child + 1 < size && before(heap[child + 1], heap[child])) ++child;
        if (!before(heap[child], moving)) break;
        heap[at] = heap[child];
        at = child;
      }
      heap[at] = moving;
    };
    for (std::uint32_t i = 0; i < count; ++i) {
      cursor[i] = blocks[i]->first_live();
      end[i] = 0;
      if (cursor[i] < blocks[i]->slot_count()) {
        head[i] = blocks[i]->slot(cursor[i]).first;
        heap[size++] = i;
      }
    }
    for (std::uint32_t at = size / 2; at-- > 0;) sift_down(at, heap[at]);
    const bool any = size > 0;
    for (std::uint64_t picked = 0; picked <= k && size > 0; ++picked) {
      const std::uint32_t best = heap[0];
      const Block<Key, Value>& block = *blocks[best];
      end[best] = cursor[best] + 1;
      cursor[best] = block.next_live(end[best], block.slot_count());
      if (cursor[best] < block.slot_count()) {
        head[best] = block.slot(cursor[best]).first;
        sift_down(0, best);
      } else if (--size > 0) {
        sift_down(0, heap[size]);
      }
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      pivot_end[i].store(end[i], std::memory_order_release);
    }
    return any;
  }

  // Take the range ends of `from`, the array this one replaces, for every
  // block the two share, and no range for the blocks new to this one, if
  // each new block's live items start at or above X, the largest key at the
  // ends just read. Such a block adds no item strictly smaller than any
  // candidate, so every candidate keeps at most k strictly smaller live
  // items, the k+1 guarantee. X comes from the very ends that are copied: a
  // deleter may recompute `from`'s ranges meanwhile, and ends paired with an
  // older threshold could reach past it. Returns false, storing nothing,
  // when `from` has no range or a new block starts below X; the caller then
  // computes the pivots. The shared blocks must keep from's order, as
  // Slsm::carry() leaves them.
  bool carry_pivots(const SlsmArray& from) noexcept {
    std::uint32_t from_end[Base::kMaxBlocks];
    Key x{};
    bool any = false;
    for (std::uint32_t j = 0; j < from.count; ++j) {
      from_end[j] = from.pivot_end[j].load(std::memory_order_acquire);
      if (from_end[j] == 0) continue;
      const Key& last = from.blocks[j]->slot(from_end[j] - 1).first;
      if (!any || x < last) x = last;
      any = true;
    }
    if (!any) return false;
    std::uint32_t end[Base::kMaxBlocks];
    for (std::uint32_t i = 0, j = 0; i < count; ++i) {
      std::uint32_t at = j;
      while (at < from.count && from.blocks[at] != blocks[i]) ++at;
      if (at < from.count) {
        end[i] = from_end[at];
        j = at + 1;
        continue;
      }
      const Block<Key, Value>& block = *blocks[i];
      const std::uint32_t first = block.first_live();
      if (first < block.slot_count() && block.slot(first).first < x) {
        return false;
      }
      end[i] = 0;
    }
    // Fault injection: hold the ends just read while deleters recompute
    // `from`'s ranges.
    CPQ_INJECT("slsm.carry");
    for (std::uint32_t i = 0; i < count; ++i) {
      pivot_end[i].store(end[i], std::memory_order_relaxed);
    }
    return true;
  }
};

template <typename Key, typename Value>
class Slsm {
 public:
  using BlockT = Block<Key, Value>;
  using ArrayT = SlsmArray<Key, Value>;

  // A deleting handle's copy of one array's candidate ranges. It names the
  // array by address and publication number (the address alone may be
  // reused once EBR frees the array) and is reloaded only when another
  // array is published or when all its ranges are found drained. A drained
  // range never has to be reread before that: range membership is a key
  // threshold and items only leave an array, so whatever is still live in
  // the cached ranges stays among the k+1 smallest.
  struct View {
    const ArrayT* array = nullptr;  // compared, never dereferenced
    std::uint64_t publication = 0;
    std::uint64_t total = 0;  // sum of end - start
    std::uint32_t start[ArrayT::kMaxBlocks] = {};
    std::uint32_t end[ArrayT::kMaxBlocks] = {};
  };

  // A live pivot-range slot as peek_candidate saw it. The caller must hold
  // an EBR guard across peek and claim; the candidate pins (array, block,
  // slot).
  struct Candidate {
    ArrayT* array = nullptr;
    std::uint32_t block = 0;
    std::uint32_t slot = 0;
    Key key{};
  };

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

  // Insert a sorted batch as one block and run the merge cascade.
  void insert_batch(std::vector<std::pair<Key, Value>>&& sorted_items) {
    if (sorted_items.empty()) return;
    publish_fresh(BlockT::create(std::move(sorted_items)));
  }

  // Claim a uniformly random item of the caller's view. Lock-free.
  // Returns false only when the SLSM appears empty.
  bool delete_min(Key& key_out, Value& value_out, Xoroshiro128& rng,
                  View& view) {
    mm::EbrDomain::Guard guard;
    for (unsigned round = 0; round < kMaxRounds; ++round) {
      Candidate candidate;
      if (!peek_candidate(view, candidate, rng)) return false;
      if (claim_candidate(candidate, key_out, value_out)) return true;
    }
    return false;
  }

  // A uniformly random live slot of the view's ranges: one of the k+1
  // smallest SLSM items. The k-LSM compares its local minimum against this
  // candidate (paper §B), which is what yields the composed kP bound.
  bool peek_candidate(View& view, Candidate& out, Xoroshiro128& rng) {
    for (unsigned round = 0; round < kMaxRounds; ++round) {
      ArrayT* array = published_.load(std::memory_order_acquire);
      if (!array || array->count == 0) return false;
      // Fault injection: hold the snapshot so a concurrent insert can
      // retire the array under our feet (EBR must protect).
      CPQ_INJECT("slsm.delete_min");
      // A drained view is reread first: another handle may have refreshed
      // the ranges since it was loaded.
      if (view.array != array || view.publication != array->publication ||
          view.total == 0) {
        load_view(view, *array);
      }
      if (view.total == 0) {
        // The array's ranges are drained too: recompute them from the
        // current heads. If the array holds no live item and is still the
        // published one, the SLSM is empty.
        const bool any = array->compute_pivots(k_);
        load_view(view, *array);
        if (!any && published_.load(std::memory_order_acquire) == array) {
          return false;
        }
      }
      while (view.total > 0) {
        std::uint64_t pick = rng.next_below(view.total);
        std::uint32_t i = 0;
        while (pick >= view.end[i] - view.start[i]) {
          pick -= view.end[i] - view.start[i];
          ++i;
        }
        if (probe(view, *array, i, static_cast<std::uint32_t>(pick), out)) {
          return true;
        }
        // Range i drained: drop it from the view.
        view.total -= view.end[i] - view.start[i];
        view.start[i] = view.end[i];
      }
    }
    return false;
  }

  bool claim_candidate(const Candidate& candidate, Key& key_out,
                       Value& value_out) {
    BlockT& block = *candidate.array->blocks[candidate.block];
    if (!block.claim(candidate.slot)) return false;
    key_out = block.slot(candidate.slot).first;
    value_out = block.slot(candidate.slot).second;
    return true;
  }

  std::uint32_t live_estimate() const {
    const ArrayT* array = published_.load(std::memory_order_acquire);
    return array ? array->live_estimate() : 0;
  }

  // Current published array (EBR guard required). Exposed for whitebox
  // tests.
  ArrayT* current_array() const {
    return published_.load(std::memory_order_acquire);
  }

 private:
  static constexpr unsigned kMaxRounds = 16;
  static constexpr std::uint32_t kNoCollision = ArrayT::kMaxBlocks;

  // Copy the array's candidate ranges into the view, each from its block's
  // first live slot to its published end; a block without a range is not
  // read. A range found drained here stays empty.
  static void load_view(View& view, const ArrayT& array) {
    view.array = &array;
    view.publication = array.publication;
    view.total = 0;
    for (std::uint32_t i = 0; i < array.count; ++i) {
      const std::uint32_t end =
          array.pivot_end[i].load(std::memory_order_acquire);
      const std::uint32_t start =
          end == 0 ? 0 : std::min(array.blocks[i]->first_live(), end);
      view.start[i] = start;
      view.end[i] = end;
      view.total += end - start;
    }
  }

  // The first live slot of range i from offset `pick`, wrapping to the
  // range start; a live slot found after the wrap also moves the cached
  // start past the claimed slots in front of it.
  static bool probe(View& view, ArrayT& array, std::uint32_t i,
                    std::uint32_t pick, Candidate& out) {
    const BlockT& block = *array.blocks[i];
    const std::uint32_t start = view.start[i];
    const std::uint32_t from = start + pick;
    std::uint32_t s = block.next_live(from, view.end[i]);
    if (s == view.end[i]) {
      s = block.next_live(start, from);
      if (s == from) return false;
    }
    if (s < from || pick == 0) {
      view.total -= s - start;
      view.start[i] = s;
    }
    out.array = &array;
    out.block = i;
    out.slot = s;
    out.key = block.slot(s).first;
    return true;
  }

  // Publish `fresh` and run the merge cascade, each merge copied outside
  // the lock (see the header comment).
  void publish_fresh(BlockT* fresh) {
    thread_local CopyMerge<Key, Value> merge;
    std::unique_lock<Spinlock> lock(insert_lock_.value);
    ArrayT* next = carry_over(fresh, lock);
    for (;;) {
      const std::uint32_t i = find_collision(*next);
      if (i == kNoCollision) {
        ArrayT* old_array = publish(next);
        lock.unlock();
        retire(old_array);
        return;
      }
      BlockT* a = next->blocks[i];
      BlockT* b = next->blocks[i + 1];
      a->set_reserved();
      b->set_reserved();
      // The merge's own references, dropped after the splice.
      a->ref();
      b->ref();
      ArrayT* old_array = publish(next);
      lock.unlock();
      retire(old_array);
      merge.copy(*a, *b);
      // Fault injection: stretch the window in which deleters claim from
      // the copied pair and other inserters publish around it (or hold the
      // merge here, FaultAction::kHold).
      CPQ_INJECT("slsm.merge_copy");
      lock.lock();
      next = carry(a, b, merge.claim());
      a->unref();
      b->unref();
    }
  }

  // The published array's blocks plus `fresh`. A reserved pair stays until
  // its splice, so while merges are in flight blocks may share a capacity
  // and the array may fill; each splice frees an entry, so a full array
  // waits outside the lock for one. With no merge in flight capacities
  // strictly decrease (every publication without a reservation found no
  // collision), and 33 distinct power-of-two capacities fit in kMaxBlocks.
  ArrayT* carry_over(BlockT* fresh, std::unique_lock<Spinlock>& lock) {
    for (;;) {
      ArrayT* next = carry();
      if (next->count < ArrayT::kMaxBlocks) {
        next->blocks[next->count++] = fresh;
        return next;
      }
      ArrayT::destroy(next);
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }

  // A new array with the published one's blocks minus drained unreserved
  // ones and, at a splice, the reserved pair (a, b) replaced by `merged`
  // (dropped when nullptr). The pair is still adjacent: reserved blocks are
  // never dropped or merged by others, and inserts only append.
  ArrayT* carry(const BlockT* a = nullptr, const BlockT* b = nullptr,
                BlockT* merged = nullptr) {
    ArrayT* next = ArrayT::create();
    const ArrayT* from = published_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; from != nullptr && i < from->count; ++i) {
      BlockT* block = from->blocks[i];
      if (block == a) {
        assert(i + 1 < from->count && from->blocks[i + 1] == b);
        (void)b;
        ++i;
        if (merged != nullptr) next->blocks[next->count++] = merged;
        continue;
      }
      if (!block->reserved() && block->first_live() >= block->slot_count()) {
        continue;
      }
      block->ref();
      next->blocks[next->count++] = block;
    }
    return next;
  }

  // The adjacent unreserved pair nearest the tail whose older block is no
  // larger than the newer one, as its first index, or kNoCollision. With no
  // merge in flight this is the classic cascade: the tail pair first.
  static std::uint32_t find_collision(const ArrayT& array) {
    for (std::uint32_t i = array.count; i-- > 1;) {
      const BlockT& prev = *array.blocks[i - 1];
      const BlockT& last = *array.blocks[i];
      if (!prev.reserved() && !last.reserved() &&
          prev.capacity() <= last.capacity()) {
        return i - 1;
      }
    }
    return kNoCollision;
  }

  // Number and publish `next`, with the replaced array's candidate ranges
  // carried over when that keeps the k+1 guarantee and computed otherwise;
  // returns the array it replaced. Insert lock held.
  ArrayT* publish(ArrayT* next) {
    next->publication = ++publications_;
    ArrayT* old_array = published_.load(std::memory_order_relaxed);
    if (old_array == nullptr || !next->carry_pivots(*old_array)) {
      next->compute_pivots(k_);
    }
    // Fault injection: delay publication — deleters keep hammering the old
    // array while the replacement (holding the same blocks) is in flight.
    CPQ_INJECT("slsm.publish");
    published_.store(next, std::memory_order_release);
    return old_array;
  }

  // Hand a replaced array to EBR, outside the insert lock: a retirement may
  // free a whole generation of arrays.
  static void retire(ArrayT* old_array) {
    if (old_array == nullptr) return;
    mm::EbrDomain::Guard guard;
    mm::EbrDomain::global().retire(static_cast<void*>(old_array),
                                   &ArrayT::ebr_deleter);
  }

  const std::uint64_t k_;
  CacheAligned<Spinlock> insert_lock_;
  std::uint64_t publications_ = 0;  // insert lock held
  std::atomic<ArrayT*> published_{nullptr};
};

}  // namespace cpq::klsm_detail
