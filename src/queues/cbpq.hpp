// Chunk-Based Priority Queue (Braginsky et al.) — appendix-D extension
// ("cbpq").
//
// The appendix singles out two ideas: "the chunk linked list replaces
// Skiplists and heaps as the backing data structure, and use of the more
// efficient Fetch-And-Add (FAA) instruction is preferred over
// Compare-And-Swap". Both are implemented here:
//
//   * The queue is a linked list of chunks, each covering a key range
//     (chunk->max_key is the inclusive upper bound; the last chunk is
//     unbounded). The *first* chunk holds a sorted, immutable array and an
//     atomic deletion index: delete_min is one FAA on the hot path.
//   * Non-first chunks are append-only insert buffers: an insert reserves a
//     slot with FAA and publishes it with a single slot-state CAS
//     (EMPTY -> WRITTEN). A full chunk is frozen — every remaining EMPTY
//     slot is CASed to FROZEN so no late writer can sneak in, exactly
//     Braginsky's freezing protocol — then sorted and split in two.
//   * Inserts whose key falls into the first chunk's range go to the first
//     chunk's overflow buffer (a Treiber list whose head carries a freeze
//     tag bit). delete_min compares the buffer minimum against the sorted
//     array's current head and claims the smaller, so the queue stays
//     strict (linearizable).
//   * When the first chunk's array is exhausted (or its buffer grows past a
//     threshold), one thread rebuilds: it freeze-steals the buffer with a
//     single fetch_or, jumps the deletion index past the end so concurrent
//     FAAs cannot claim anything (every FAA ticket is either < count and
//     uniquely owned by a deleter, or >= count and void — no ambiguity),
//     freezes and absorbs the successor chunk if needed, sorts, and
//     publishes a fresh first chunk with a head CAS.
//
// Chunks are reclaimed through EBR; buffer cells through claim flags plus
// chunk-lifetime ownership. The appendix reports the CBPQ "clearly
// outperforms the other queues in mixed workloads and deletion workloads";
// `cpq_bench_cli --preset=appendix` measures that claim against this
// implementation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "queues/queue_traits.hpp"

namespace cpq {

template <typename Key, typename Value>
class ChunkBasedQueue {
 public:
  using key_type = Key;
  using value_type = Value;

  static constexpr std::uint32_t kChunkCapacity = 256;
  static constexpr std::uint32_t kBufferRebuildThreshold = 64;
  static constexpr Key kMaxKey = std::numeric_limits<Key>::max();

  explicit ChunkBasedQueue(unsigned max_threads = 0, std::uint64_t seed = 1) {
    (void)max_threads;
    (void)seed;
    std::vector<std::pair<Key, Value>> empty;
    head_.store(Chunk::create_first(std::move(empty), kMaxKey, nullptr),
                std::memory_order_release);
  }

  ~ChunkBasedQueue() {
    Chunk* chunk = head_.load(std::memory_order_relaxed);
    while (chunk) {
      Chunk* next = chunk->next.load(std::memory_order_relaxed);
      Chunk::destroy(chunk);
      chunk = next;
    }
    delete index_.load(std::memory_order_relaxed);
  }

  ChunkBasedQueue(const ChunkBasedQueue&) = delete;
  ChunkBasedQueue& operator=(const ChunkBasedQueue&) = delete;

  class Handle {
   public:
    Handle(ChunkBasedQueue& queue, unsigned thread_id) : queue_(&queue) {
      (void)thread_id;
    }

    void insert(Key key, Value value) { queue_->insert_item(key, value); }

    bool delete_min(Key& key_out, Value& value_out) {
      return queue_->delete_min_item(key_out, value_out);
    }

   private:
    ChunkBasedQueue* queue_;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  // Quiescent-only total item count (sorted remainder + buffers + insert
  // chunks).
  std::size_t unsafe_size() const {
    std::size_t total = 0;
    const Chunk* chunk = head_.load(std::memory_order_acquire);
    bool first = true;
    while (chunk) {
      if (first) {
        const std::uint32_t idx = std::min<std::uint64_t>(
            chunk->del_idx.load(std::memory_order_acquire), chunk->count);
        total += chunk->count - idx;
        for (BufferNode* node = untag(
                 chunk->buffer.load(std::memory_order_acquire));
             node; node = node->next) {
          total += !node->claimed.load(std::memory_order_acquire);
        }
      } else {
        for (std::uint32_t i = 0; i < kChunkCapacity; ++i) {
          total += chunk->slots[i].state.load(std::memory_order_acquire) ==
                   SlotState::kWritten;
        }
      }
      first = false;
      chunk = chunk->next.load(std::memory_order_acquire);
    }
    return total;
  }

 private:
  friend class Handle;

  enum class SlotState : std::uint8_t { kEmpty, kWritten, kFrozen };

  struct Slot {
    Key key;
    Value value;
    std::atomic<SlotState> state{SlotState::kEmpty};
  };

  struct BufferNode {
    Key key;
    Value value;
    BufferNode* next;
    std::atomic<bool> claimed{false};
  };

  struct Chunk {
    // ---- first-chunk fields ----
    // Sorted immutable items [0, count); del_idx hands out tickets by FAA.
    std::vector<std::pair<Key, Value>> sorted;
    std::uint32_t count = 0;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> del_idx{0};
    // Overflow buffer; bit 0 of the pointer is the freeze tag.
    alignas(kCacheLineSize) std::atomic<std::uintptr_t> buffer{0};
    std::atomic<std::uint32_t> buffer_len{0};

    // ---- insert-chunk fields ----
    alignas(kCacheLineSize) std::atomic<std::uint32_t> ins_idx{0};
    std::unique_ptr<Slot[]> slots;

    // ---- common ----
    Key max_key = kMaxKey;  // inclusive upper bound; last chunk unbounded
    bool is_first = false;
    std::atomic<bool> frozen{false};
    std::atomic<Chunk*> next{nullptr};

    static Chunk* create_first(std::vector<std::pair<Key, Value>>&& items,
                               Key max_key, Chunk* next_chunk) {
      Chunk* chunk = new Chunk();
      chunk->sorted = std::move(items);
      chunk->count = static_cast<std::uint32_t>(chunk->sorted.size());
      chunk->max_key = max_key;
      chunk->is_first = true;
      chunk->next.store(next_chunk, std::memory_order_relaxed);
      return chunk;
    }

    static Chunk* create_insert(Key max_key, Chunk* next_chunk) {
      Chunk* chunk = new Chunk();
      chunk->slots = std::make_unique<Slot[]>(kChunkCapacity);
      chunk->max_key = max_key;
      chunk->next.store(next_chunk, std::memory_order_relaxed);
      return chunk;
    }

    static void destroy(Chunk* chunk) {
      BufferNode* node = untag(chunk->buffer.load(std::memory_order_relaxed));
      while (node) {
        BufferNode* next = node->next;
        delete node;
        node = next;
      }
      delete chunk;
    }

    static void ebr_deleter(void* p) { destroy(static_cast<Chunk*>(p)); }
  };

  static BufferNode* untag(std::uintptr_t word) {
    return reinterpret_cast<BufferNode*>(word & ~std::uintptr_t{1});
  }
  static bool tagged(std::uintptr_t word) { return word & 1; }

  // Jump index over the chunk list (the role of the chunk skiplist in the
  // original CBPQ): sorted (max_key, chunk) pairs, rebuilt under the
  // restructure lock whenever the list changes and published through an
  // EBR-protected pointer. Jump targets are chunks whose max_key is
  // strictly below the searched key; max_key is immutable per chunk and a
  // replaced chunk's next pointer always rejoins the list further on, so a
  // stale index can make the walk start early but never skip the target.
  struct ChunkIndex {
    std::vector<std::pair<Key, Chunk*>> entries;  // ascending max_key

    static void ebr_deleter(void* p) { delete static_cast<ChunkIndex*>(p); }
  };

  // Called with restructure_lock_ held, after head_/next updates.
  void rebuild_index() {
    auto* fresh = new ChunkIndex();
    Chunk* chunk = head_.load(std::memory_order_acquire);
    while (chunk) {
      Chunk* next = chunk->next.load(std::memory_order_acquire);
      if (next) fresh->entries.emplace_back(chunk->max_key, chunk);
      chunk = next;
    }
    ChunkIndex* old = index_.exchange(fresh, std::memory_order_acq_rel);
    if (old) {
      mm::EbrDomain::global().retire(static_cast<void*>(old),
                                     &ChunkIndex::ebr_deleter);
    }
  }

  // Last chunk with max_key < key, or the head. Caller holds an EBR guard.
  Chunk* jump_target(Key key) {
    const ChunkIndex* index = index_.load(std::memory_order_acquire);
    if (!index || index->entries.empty()) {
      return head_.load(std::memory_order_acquire);
    }
    const auto& entries = index->entries;
    std::size_t lo = 0;
    std::size_t hi = entries.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries[mid].first < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo == 0 ? head_.load(std::memory_order_acquire)
                   : entries[lo - 1].second;
  }

  // ---- insert ------------------------------------------------------------

  void insert_item(Key key, Value value) {
    mm::EbrDomain::Guard guard;
    Backoff backoff(reinterpret_cast<std::uintptr_t>(this) ^ key);
    for (;;) {
      Chunk* first = head_.load(std::memory_order_acquire);
      if (key <= effective_max(first)) {
        if (push_buffer(first, key, value)) return;
        backoff.pause();
        continue;  // first chunk frozen; re-read head
      }
      // Walk to the covering insert chunk, starting from the index's jump
      // target (every skipped chunk has max_key < key, so the target is
      // never overshot; a stale target is frozen and rejected below).
      Chunk* start = jump_target(key);
      Chunk* chunk = start == first
                         ? first->next.load(std::memory_order_acquire)
                         : start;
      while (chunk && key > effective_max(chunk)) {
        chunk = chunk->next.load(std::memory_order_acquire);
      }
      if (!chunk) continue;  // list mutated under us; restart
      const std::uint32_t slot_index =
          chunk->ins_idx.fetch_add(1, std::memory_order_acq_rel);
      if (slot_index >= kChunkCapacity) {
        split_insert_chunk(chunk);
        continue;
      }
      Slot& slot = chunk->slots[slot_index];
      slot.key = key;
      slot.value = value;
      SlotState expected = SlotState::kEmpty;
      if (slot.state.compare_exchange_strong(expected, SlotState::kWritten,
                                             std::memory_order_acq_rel)) {
        return;
      }
      // The chunk was frozen before we published; retry from the top.
      backoff.pause();
    }
  }

  // Push onto the first chunk's buffer; fails iff the buffer is frozen.
  bool push_buffer(Chunk* first, Key key, Value value) {
    BufferNode* node = new BufferNode{key, value, nullptr};
    std::uintptr_t head = first->buffer.load(std::memory_order_acquire);
    for (;;) {
      if (tagged(head)) {
        delete node;
        return false;
      }
      node->next = untag(head);
      if (first->buffer.compare_exchange_weak(
              head, reinterpret_cast<std::uintptr_t>(node),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        first->buffer_len.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }

  // ---- delete_min ----------------------------------------------------------

  bool delete_min_item(Key& key_out, Value& value_out) {
    mm::EbrDomain::Guard guard;
    for (;;) {
      Chunk* first = head_.load(std::memory_order_acquire);
      // A bloated buffer makes the strict compare expensive; fold it in.
      if (first->buffer_len.load(std::memory_order_relaxed) >
          kBufferRebuildThreshold) {
        rebuild_first(first);
        continue;
      }
      // Current sorted-array head (racy peek; FAA below is authoritative).
      const std::uint64_t cur =
          first->del_idx.load(std::memory_order_acquire);
      const bool array_has =
          cur < first->count;
      const Key array_key = array_has ? first->sorted[cur].first : Key{};
      // Smallest unclaimed buffer entry.
      BufferNode* best_node = nullptr;
      for (BufferNode* node =
               untag(first->buffer.load(std::memory_order_acquire));
           node; node = node->next) {
        if (node->claimed.load(std::memory_order_acquire)) continue;
        if (!best_node || node->key < best_node->key) best_node = node;
      }
      if (best_node && (!array_has || best_node->key < array_key)) {
        if (!best_node->claimed.exchange(true, std::memory_order_acq_rel)) {
          key_out = best_node->key;
          value_out = best_node->value;
          first->buffer_len.fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
        continue;  // lost the buffer entry; rescan
      }
      if (array_has) {
        const std::uint64_t ticket =
            first->del_idx.fetch_add(1, std::memory_order_acq_rel);
        if (ticket < first->count) {
          key_out = first->sorted[ticket].first;
          value_out = first->sorted[ticket].second;
          return true;
        }
        // Exhausted between peek and FAA; fall through to rebuild.
      }
      // Array exhausted. If nothing is buffered and no successor exists,
      // the queue is empty.
      if (!buffer_has_live(first) &&
          first->next.load(std::memory_order_acquire) == nullptr &&
          first->del_idx.load(std::memory_order_acquire) >= first->count) {
        if (head_.load(std::memory_order_acquire) == first) return false;
        continue;
      }
      rebuild_first(first);
    }
  }

  bool buffer_has_live(Chunk* first) const {
    for (BufferNode* node =
             untag(first->buffer.load(std::memory_order_acquire));
         node; node = node->next) {
      if (!node->claimed.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  // ---- restructuring -------------------------------------------------------

  static Key effective_max(const Chunk* chunk) {
    return chunk->next.load(std::memory_order_acquire) == nullptr
               ? kMaxKey
               : chunk->max_key;
  }

  // Freeze every EMPTY slot so no late writer can publish, then collect the
  // WRITTEN items.
  static void freeze_and_collect(Chunk* chunk,
                                 std::vector<std::pair<Key, Value>>& out) {
    for (std::uint32_t i = 0; i < kChunkCapacity; ++i) {
      Slot& slot = chunk->slots[i];
      SlotState state = slot.state.load(std::memory_order_acquire);
      if (state == SlotState::kEmpty) {
        if (slot.state.compare_exchange_strong(state, SlotState::kFrozen,
                                               std::memory_order_acq_rel)) {
          continue;
        }
        state = slot.state.load(std::memory_order_acquire);
      }
      if (state == SlotState::kWritten) {
        out.emplace_back(slot.key, slot.value);
      }
    }
  }

  // Rebuild the first chunk: steal its buffer, void its deletion counter,
  // absorb the successor if the remainder is small, sort, publish.
  //
  // Restructuring (rebuild + split) is serialized by restructure_lock_: two
  // concurrent splits of adjacent chunks can otherwise lose a replacement
  // through the classic unlink-next race, and Braginsky's full recovery
  // protocol is out of scope here. The FAA deletion ticket, the slot-CAS
  // insert publication, and the buffer push — the hot paths the CBPQ is
  // about — remain lock-free; only the amortized-rare restructuring takes
  // the lock (DESIGN.md §4 records the substitution).
  void rebuild_first(Chunk* first) {
    std::lock_guard<Spinlock> lock(restructure_lock_.value);
    if (head_.load(std::memory_order_acquire) != first) {
      return;  // someone rebuilt while we waited
    }
    first->frozen.store(true, std::memory_order_release);
    // 1. Freeze-steal the buffer: after the fetch_or, every push CAS fails.
    const std::uintptr_t stolen =
        first->buffer.fetch_or(1, std::memory_order_acq_rel);
    // 2. Void the deletion counter: tickets handed out before the jump and
    //    below count stay uniquely owned; everything after is invalid.
    const std::uint64_t consumed = std::min<std::uint64_t>(
        first->del_idx.fetch_add(first->count + 1,
                                 std::memory_order_acq_rel),
        first->count);

    std::vector<std::pair<Key, Value>> items;
    for (std::uint64_t i = consumed; i < first->count; ++i) {
      items.push_back(first->sorted[i]);
    }
    for (BufferNode* node = untag(stolen); node; node = node->next) {
      if (!node->claimed.exchange(true, std::memory_order_acq_rel)) {
        items.emplace_back(node->key, node->value);
      }
    }

    // 3. Absorb the successor insert chunk when the remainder is small, so
    //    delete-heavy phases keep making progress. We hold the restructure
    //    lock, so the successor cannot be mid-split.
    Chunk* successor = first->next.load(std::memory_order_acquire);
    Chunk* tail = successor;
    Key absorbed_max = first->max_key;
    if (successor && items.size() < kChunkCapacity / 2) {
      successor->frozen.store(true, std::memory_order_release);
      freeze_and_collect(successor, items);
      absorbed_max = successor->max_key;
      tail = successor->next.load(std::memory_order_acquire);
    } else {
      successor = nullptr;  // not absorbed
    }

    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // 4. Distribute: the first kChunkCapacity items form the new sorted
    //    first chunk; any overflow (a bloated buffer, an absorbed chunk)
    //    becomes a chain of half-full insert chunks. Key-range bounds are
    //    taken from the item split points so that routing stays exact —
    //    this is what keeps the queue strict: the first chunk always covers
    //    a key range below every other chunk.
    std::vector<std::pair<Key, Value>> head_items;
    const std::size_t head_take =
        std::min<std::size_t>(items.size(), kChunkCapacity);
    head_items.assign(items.begin(), items.begin() + head_take);

    Chunk* new_next = tail;
    Key running_max = absorbed_max;  // max of the last range built so far
    // Build overflow chunks back-to-front so each links to its successor.
    std::size_t overflow_end = items.size();
    while (overflow_end > head_take) {
      const std::size_t begin =
          overflow_end - std::min<std::size_t>(overflow_end - head_take,
                                               kChunkCapacity / 2);
      // This chunk covers keys up to the last item it holds, except the
      // final overflow chunk, which inherits the absorbed upper bound.
      const Key chunk_max = (overflow_end == items.size())
                                ? running_max
                                : items[overflow_end - 1].first;
      Chunk* overflow = Chunk::create_insert(chunk_max, new_next);
      for (std::size_t i = begin; i < overflow_end; ++i) {
        fill_slot(overflow, i - begin, items[i]);
      }
      overflow->ins_idx.store(
          static_cast<std::uint32_t>(overflow_end - begin),
          std::memory_order_release);
      new_next = overflow;
      overflow_end = begin;
    }
    const Key first_max = (new_next == tail)
                              ? absorbed_max
                              : head_items.empty()
                                    ? Key{}
                                    : head_items.back().first;
    Chunk* fresh =
        Chunk::create_first(std::move(head_items), first_max, new_next);

    head_.store(fresh, std::memory_order_release);
    rebuild_index();
    mm::EbrDomain::global().retire(static_cast<void*>(first),
                                   &Chunk::ebr_deleter);
    if (successor) {
      mm::EbrDomain::global().retire(static_cast<void*>(successor),
                                     &Chunk::ebr_deleter);
    }
  }

  // Split a full insert chunk into two halves (serialized with rebuilds by
  // restructure_lock_; see rebuild_first for the rationale).
  void split_insert_chunk(Chunk* chunk) {
    std::lock_guard<Spinlock> lock(restructure_lock_.value);
    if (chunk->frozen.load(std::memory_order_acquire)) {
      return;  // already split or absorbed while we waited for the lock
    }
    // Under the lock the list is structurally stable: find the predecessor
    // first — if the chunk is no longer reachable it was already replaced.
    Chunk* pred = head_.load(std::memory_order_acquire);
    Chunk* cursor = pred->next.load(std::memory_order_acquire);
    while (cursor && cursor != chunk) {
      pred = cursor;
      cursor = cursor->next.load(std::memory_order_acquire);
    }
    if (!cursor) return;

    chunk->frozen.store(true, std::memory_order_release);
    std::vector<std::pair<Key, Value>> items;
    freeze_and_collect(chunk, items);
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    Chunk* tail = chunk->next.load(std::memory_order_acquire);
    Chunk* replacement;
    if (items.size() <= kChunkCapacity / 2) {
      // Racing deleters (via rebuild) cannot have drained it — only a
      // rebuild absorbs, and rebuilds hold this lock — but items can be
      // few if racing writers lost their slot CAS to the freeze. One chunk
      // suffices.
      replacement = Chunk::create_insert(chunk->max_key, tail);
      for (std::size_t i = 0; i < items.size(); ++i) {
        fill_slot(replacement, i, items[i]);
      }
      replacement->ins_idx.store(static_cast<std::uint32_t>(items.size()),
                                 std::memory_order_release);
    } else {
      const std::size_t half = items.size() / 2;
      const Key low_max = items[half - 1].first;
      Chunk* high = Chunk::create_insert(chunk->max_key, tail);
      Chunk* low = Chunk::create_insert(low_max, high);
      for (std::size_t i = 0; i < half; ++i) fill_slot(low, i, items[i]);
      low->ins_idx.store(static_cast<std::uint32_t>(half),
                         std::memory_order_release);
      for (std::size_t i = half; i < items.size(); ++i) {
        fill_slot(high, i - half, items[i]);
      }
      high->ins_idx.store(static_cast<std::uint32_t>(items.size() - half),
                          std::memory_order_release);
      replacement = low;
    }
    pred->next.store(replacement, std::memory_order_release);
    rebuild_index();
    mm::EbrDomain::global().retire(static_cast<void*>(chunk),
                                   &Chunk::ebr_deleter);
  }

  static void fill_slot(Chunk* chunk, std::size_t index,
                        const std::pair<Key, Value>& item) {
    chunk->slots[index].key = item.first;
    chunk->slots[index].value = item.second;
    chunk->slots[index].state.store(SlotState::kWritten,
                                    std::memory_order_release);
  }

  std::atomic<Chunk*> head_{nullptr};
  std::atomic<ChunkIndex*> index_{nullptr};
  CacheAligned<Spinlock> restructure_lock_;
};

static_assert(ConcurrentPriorityQueue<ChunkBasedQueue<bench_key, bench_value>>);

}  // namespace cpq
