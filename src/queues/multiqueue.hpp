// MultiQueue (Rihani, Sanders & Dementiev, SPAA 2015) — paper's "mq".
//
// c*P sequential priority queues, each protected by its own lock. insert
// pushes into a uniformly random queue; delete_min reads the minima of two
// uniformly random queues and pops from the one with the smaller minimum
// ("power of two choices"). The tuning parameter c is 4 in the paper's
// benchmarks. No hard bound on the rank of deleted items is known, but the
// observed rank error grows only linearly with the thread count (paper
// Tables 1-5, reproduced by `cpq_bench_cli --preset=table1`).
//
// The per-queue minimum is mirrored into an atomic so that the two-choice
// comparison does not need to take locks; it is refreshed by whoever holds
// the lock. The locked-queue cell (lock + mirrors + sequential heap) is
// shared with the engineered generation in multiqueue_eng.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "queues/queue_traits.hpp"
#include "seq/binary_heap.hpp"

namespace cpq {

namespace detail {

// One spinlocked sequential queue with lock-free selection mirrors — the
// building block of every MultiQueue variant (classic and engineered).
template <typename Key, typename Value, typename SeqQueue>
struct MqLocalQueue {
  // Sentinel mirrored for empty queues; insertions of this exact key still
  // work (the mirror is a heuristic for queue selection only).
  static constexpr Key kEmptyKey = std::numeric_limits<Key>::max();

  Spinlock lock;
  std::atomic<Key> min_mirror{kEmptyKey};
  // Exact size mirror: the min mirror alone cannot distinguish "empty"
  // from "holds an item with the maximal key".
  std::atomic<std::size_t> count{0};
  SeqQueue pq;

  // Caller holds `lock`.
  void refresh_min() {
    min_mirror.store(pq.empty() ? kEmptyKey : pq.min_key(),
                     std::memory_order_release);
    count.store(pq.size(), std::memory_order_release);
  }
};

}  // namespace detail

template <typename Key, typename Value,
          typename SeqQueue = seq::BinaryHeap<Key, Value>>
class MultiQueue {
 public:
  using key_type = Key;
  using value_type = Value;

  static constexpr Key kEmptyKey =
      detail::MqLocalQueue<Key, Value, SeqQueue>::kEmptyKey;

  explicit MultiQueue(unsigned max_threads, unsigned c = 4,
                      std::uint64_t seed = 1)
      : queues_(static_cast<std::size_t>(c == 0 ? 1 : c) *
                (max_threads == 0 ? 1 : max_threads)),
        c_(c == 0 ? 1 : c),
        seed_(seed) {}

  // Expected-case relaxation self-report (queue_traits.hpp concept): the
  // classic MultiQueue's observed rank error grows like c*P. Soft — no
  // worst-case guarantee exists.
  double soft_rank_bound(unsigned threads) const {
    return static_cast<double>(c_) * threads;
  }

  class Handle {
   public:
    Handle(MultiQueue& queue, unsigned thread_id)
        : queue_(&queue), rng_(thread_seed(queue.seed_, thread_id)) {}

    void insert(Key key, Value value) {
      auto& queues = queue_->queues_;
      for (;;) {
        LocalQueue& q = queues[rng_.next_below(queues.size())].value;
        // try_lock keeps inserters from convoying on a hot queue; a failed
        // attempt simply redraws.
        if (!q.lock.try_lock()) {
          CPQ_COUNT(kLockRetry);
          continue;
        }
        q.pq.insert(key, value);
        q.refresh_min();
        q.lock.unlock();
        return;
      }
    }

    bool delete_min(Key& key_out, Value& value_out) {
      auto& queues = queue_->queues_;
      const std::size_t n = queues.size();
      for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
        const std::size_t i = rng_.next_below(n);
        std::size_t j = rng_.next_below(n);
        const Key ki = queues[i].value.min_mirror.load(std::memory_order_acquire);
        const Key kj = queues[j].value.min_mirror.load(std::memory_order_acquire);
        std::size_t pick = (kj < ki) ? j : i;
        if (ki == kEmptyKey && kj == kEmptyKey) {
          // Both mirrors look empty — either truly empty, or they hold
          // maximal-key items. Check the exact counts; if items exist
          // somewhere, pop from the first non-empty queue found.
          if (all_empty()) return false;
          bool found = false;
          for (std::size_t probe = 0; probe < n; ++probe) {
            const std::size_t candidate = (i + probe) % n;
            if (queues[candidate].value.count.load(
                    std::memory_order_acquire) > 0) {
              pick = candidate;
              found = true;
              break;
            }
          }
          if (!found) continue;
        }
        LocalQueue& q = queues[pick].value;
        if (!q.lock.try_lock()) {
          CPQ_COUNT(kLockRetry);
          continue;
        }
        const bool ok = q.pq.delete_min(key_out, value_out);
        q.refresh_min();
        q.lock.unlock();
        if (ok) return true;
      }
      // Contention exhausted the attempt budget; report empty-looking.
      return false;
    }

   private:
    static constexpr unsigned kMaxAttempts = 64;

    bool all_empty() const {
      for (const auto& q : queue_->queues_) {
        if (q.value.count.load(std::memory_order_acquire) > 0) return false;
      }
      return true;
    }

    MultiQueue* queue_;
    Xoroshiro128 rng_;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  std::size_t queue_count() const noexcept { return queues_.size(); }

  // Sum of per-queue sizes; only meaningful when quiescent.
  std::size_t unsafe_size() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q.value.pq.size();
    return total;
  }

 private:
  using LocalQueue = detail::MqLocalQueue<Key, Value, SeqQueue>;

  std::vector<CacheAligned<LocalQueue>> queues_;
  unsigned c_;
  std::uint64_t seed_;

  friend class Handle;
};

}  // namespace cpq
