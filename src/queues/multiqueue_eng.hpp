// Engineered MultiQueue (Williams & Sanders, "Engineering MultiQueues",
// arXiv:2504.11652) — the post-paper generation of the SPAA'15 MultiQueue,
// built on the same spinlocked-local-queue cell as multiqueue.hpp.
//
// Three orthogonal refinements over the classic two-choice scheme, each
// aimed at one hot-path cost the perf counters can measure directly:
//
//   * insertion buffers — each handle stages up to `ins_buffer` items in a
//     small sorted thread-local array and flushes them into ONE locked
//     queue in ONE lock acquisition, amortizing the lock hand-off (and its
//     cache-line ping-pong) across the whole batch. Callers that already
//     batch (the PriorityService flush) skip the staging array through
//     Handle::insert_batch(items, n): one sticky lock acquisition lands all
//     n items in the heap, visible to every handle once it returns;
//   * deletion buffers — delete_min pops up to `del_buffer` minima from the
//     two-choice winner under ONE lock acquisition and serves subsequent
//     calls from the thread-local batch with no shared-memory traffic.
//     Callers that keep a deletion buffer of their own (the PriorityService
//     refill) skip this one through Handle::delete_batch(out, n): the same
//     probe and lock, with the minima written straight to the caller, so
//     what the caller does not take stays in the heap, visible to every
//     handle;
//   * sticky rounds — the queue indices used for insertion flushes and
//     deletion refills are redrawn only every `stickiness` uses (or on
//     try_lock failure), so consecutive operations hit cache-warm heaps
//     instead of spraying across c*P cache-cold ones.
//
// The price is relaxation: buffered items are invisible to other threads
// and batched minima skip ahead of globally smaller keys, so the expected
// rank error widens from O(c*P) to roughly (c*s + ins + del)*P —
// soft_rank_bound() self-reports exactly that (queue_traits.hpp concept),
// and the registry arms the live RankEstimator with it (always soft: no
// worst-case guarantee exists, violations are never counted).
//
// Conservation contract (CheckedQueue, harness drains): delete_min serves
// the handle's own staged insertions when the shared queues look empty and
// returns false ONLY when both thread-local buffers are empty — so a
// single-threaded drain through any one handle can always terminate without
// stranding items. Destroying a handle spills both buffers back into a
// shared queue under a blocking lock; the benchmark harnesses destroy every
// worker handle at join, before any reconcile()/drain() runs.
//
// Fault-injection seams (kDelay-safe; flush/refill are additionally
// kThrow-safe because they fire before the lock is taken and the buffers
// are only cleared after the locked work committed):
//   mq_eng.flush   — entry of insert_batch: every insertion-buffer flush,
//                    every unbuffered (ins_buffer = 0) insert, and every
//                    caller-supplied batch
//   mq_eng.refill  — entry of delete_batch: every deletion-buffer refill
//                    and every caller-supplied batch
//   mq_eng.spill   — entry of the destructor spill (delay-only: a throw
//                    here would escape a destructor)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "queues/multiqueue.hpp"
#include "queues/queue_traits.hpp"
#include "seq/binary_heap.hpp"
#include "validation/fault_injection.hpp"

namespace cpq {

// Tuning for one EngMultiQueue instance. stickiness=1 with no buffers does
// not replay the classic MultiQueue (del_uses_ wrap: EXPERIMENTS.md X21).
struct MqEngConfig {
  unsigned c = 4;           // local queues per thread
  unsigned stickiness = 8;  // lock acquisitions per queue draw (>= 1)
  unsigned ins_buffer = 16; // staged insertions per flush (0 = unbuffered)
  unsigned del_buffer = 16; // minima popped per refill (0 = pop singly)
};

template <typename Key, typename Value,
          typename SeqQueue = seq::BinaryHeap<Key, Value>>
class EngMultiQueue {
 public:
  using key_type = Key;
  using value_type = Value;
  using Item = std::pair<Key, Value>;

  static constexpr Key kEmptyKey =
      detail::MqLocalQueue<Key, Value, SeqQueue>::kEmptyKey;

  explicit EngMultiQueue(unsigned max_threads, MqEngConfig cfg = {},
                         std::uint64_t seed = 1)
      : queues_(static_cast<std::size_t>(cfg.c == 0 ? 1 : cfg.c) *
                (max_threads == 0 ? 1 : max_threads)),
        cfg_(sanitize(cfg)),
        seed_(seed) {}

  // Expected-case relaxation: during a sticky round a thread keeps popping
  // from the same two-choice winner (c*s term), while up to ins+del items
  // per thread sit in buffers invisible to (or ahead of) the global order.
  static double soft_rank_bound(const MqEngConfig& cfg, unsigned threads) {
    const MqEngConfig s = sanitize(cfg);
    const double per_thread = static_cast<double>(s.c) * s.stickiness +
                              static_cast<double>(s.ins_buffer) +
                              static_cast<double>(s.del_buffer);
    return per_thread * threads;
  }

  double soft_rank_bound(unsigned threads) const {
    return soft_rank_bound(cfg_, threads);
  }

  const MqEngConfig& config() const noexcept { return cfg_; }

  class Handle {
   public:
    Handle(EngMultiQueue& queue, unsigned thread_id)
        : queue_(&queue), rng_(thread_seed(queue.seed_, thread_id)) {
      ins_buf_.reserve(queue.cfg_.ins_buffer);
      del_buf_.resize(queue.cfg_.del_buffer == 0 ? 1 : queue.cfg_.del_buffer);
    }

    // Move-only: the destructor spills the thread-local buffers back into
    // the shared queues, so exactly one live handle may own them.
    Handle(Handle&& other) noexcept
        : queue_(other.queue_),
          rng_(other.rng_),
          ins_buf_(std::move(other.ins_buf_)),
          del_buf_(std::move(other.del_buf_)),
          del_pos_(other.del_pos_),
          del_end_(other.del_end_),
          ins_queue_(other.ins_queue_),
          ins_uses_(other.ins_uses_),
          del_queue_a_(other.del_queue_a_),
          del_queue_b_(other.del_queue_b_),
          del_uses_(other.del_uses_) {
      other.queue_ = nullptr;
    }

    Handle& operator=(Handle&& other) {
      if (this != &other) {
        spill();
        queue_ = other.queue_;
        rng_ = other.rng_;
        ins_buf_ = std::move(other.ins_buf_);
        del_buf_ = std::move(other.del_buf_);
        del_pos_ = other.del_pos_;
        del_end_ = other.del_end_;
        ins_queue_ = other.ins_queue_;
        ins_uses_ = other.ins_uses_;
        del_queue_a_ = other.del_queue_a_;
        del_queue_b_ = other.del_queue_b_;
        del_uses_ = other.del_uses_;
        other.queue_ = nullptr;
      }
      return *this;
    }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() { spill(); }

    void insert(Key key, Value value) {
      const unsigned cap = queue_->cfg_.ins_buffer;
      if (cap == 0) {
        const Item item{key, value};
        insert_batch(&item, 1);
        return;
      }
      // Kept sorted descending so the staged minimum is back(): delete_min
      // compares it against the deletion buffer's front in O(1).
      const auto pos = std::upper_bound(
          ins_buf_.begin(), ins_buf_.end(), key,
          [](Key k, const Item& item) { return k > item.first; });
      ins_buf_.insert(pos, Item{key, value});
      if (ins_buf_.size() >= cap) {
        // Cleared only after the batch landed: a throw leaves it staged for
        // the destructor spill.
        insert_batch(ins_buf_.data(), ins_buf_.size());
        ins_buf_.clear();
      }
    }

    bool delete_min(Key& key_out, Value& value_out) {
      if (del_pos_ == del_end_) {
        // del_end_ is written only once the batch is in: a throw at the
        // refill seam leaves the buffer empty.
        const std::size_t got = delete_batch(del_buf_.data(), del_buf_.size());
        del_pos_ = 0;
        del_end_ = got;
      }
      const bool have_del = del_pos_ < del_end_;
      const bool have_ins = !ins_buf_.empty();
      if (have_del &&
          (!have_ins || del_buf_[del_pos_].first <= ins_buf_.back().first)) {
        key_out = del_buf_[del_pos_].first;
        value_out = del_buf_[del_pos_].second;
        ++del_pos_;
        return true;
      }
      if (have_ins) {
        // Shared queues look empty (or the staged item is the smaller
        // choice): serve the handle's own staging buffer so no item is
        // ever stranded behind an empty-looking report.
        key_out = ins_buf_.back().first;
        value_out = ins_buf_.back().second;
        ins_buf_.pop_back();
        return true;
      }
      return false;
    }

    // Land `n` items in ONE sticky local queue under ONE lock acquisition
    // (redrawn on a failed try_lock), bypassing the insertion buffer: the
    // items are visible to every handle once this returns. Fires the
    // mq_eng.flush seam before locking, so a throw inserts nothing.
    void insert_batch(const Item* items, std::size_t n) {
      CPQ_INJECT("mq_eng.flush");
      auto& queues = queue_->queues_;
      const std::size_t count = queues.size();
      for (;;) {
        if (ins_uses_ == 0) {
          ins_queue_ = rng_.next_below(count);
          ins_uses_ = queue_->cfg_.stickiness;
        }
        LocalQueue& q = queues[ins_queue_].value;
        if (!q.lock.try_lock()) {
          CPQ_COUNT(kLockRetry);
          ins_uses_ = 0;  // the sticky queue is hot — redraw
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          q.pq.insert(items[i].first, items[i].second);
        }
        q.refresh_min();
        q.lock.unlock();
        --ins_uses_;
        return;
      }
    }

    // Pop up to `n` minima of ONE local queue into `out`, in ascending
    // order, under ONE lock acquisition: the sticky two-choice winner (its
    // pair redrawn on a failed try_lock or an empty pick). The handle's own
    // buffers are neither read nor filled, so the rest of that heap stays
    // visible to every handle. Fewer than `n` means the chosen heap ran
    // out; 0 means every local queue looked empty or contention used up
    // the attempt budget. Fires the mq_eng.refill seam before locking, so a
    // throw pops nothing.
    std::size_t delete_batch(Item* out, std::size_t n) {
      CPQ_INJECT("mq_eng.refill");
      auto& queues = queue_->queues_;
      const std::size_t count = queues.size();
      for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
        if (del_uses_ == 0) {
          del_queue_a_ = rng_.next_below(count);
          del_queue_b_ = rng_.next_below(count);
          del_uses_ = queue_->cfg_.stickiness;
        }
        const std::size_t i = del_queue_a_;
        const std::size_t j = del_queue_b_;
        const Key ki = queues[i].value.min_mirror.load(std::memory_order_acquire);
        const Key kj = queues[j].value.min_mirror.load(std::memory_order_acquire);
        std::size_t pick = (kj < ki) ? j : i;
        if (ki == kEmptyKey && kj == kEmptyKey) {
          del_uses_ = 0;  // the sticky pair went stale either way
          if (all_empty()) return 0;
          // Mirrors can hide maximal-key items; trust the exact counts.
          bool found = false;
          for (std::size_t probe = 0; probe < count; ++probe) {
            const std::size_t candidate = (i + probe) % count;
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
          del_uses_ = 0;
          continue;
        }
        std::size_t got = 0;
        while (got < n && q.pq.delete_min(out[got].first, out[got].second)) {
          ++got;
        }
        q.refresh_min();
        q.lock.unlock();
        if (got > 0) {
          --del_uses_;
          return got;
        }
        del_uses_ = 0;  // raced to empty under the lock — redraw
      }
      return 0;
    }

   private:
    friend class EngMultiQueue;
    using LocalQueue = detail::MqLocalQueue<Key, Value, SeqQueue>;
    static constexpr unsigned kMaxAttempts = 64;

    // Return every buffered item to a shared queue under one blocking lock
    // (the spill must land even under contention — handle teardown is the
    // last chance before reconcile()/drain() diffs the multisets).
    void spill() {
      if (queue_ == nullptr) return;
      const bool have_ins = !ins_buf_.empty();
      const bool have_del = del_pos_ < del_end_;
      if (!have_ins && !have_del) return;
      CPQ_INJECT("mq_eng.spill");
      auto& queues = queue_->queues_;
      LocalQueue& q = queues[rng_.next_below(queues.size())].value;
      q.lock.lock();
      for (const Item& item : ins_buf_) q.pq.insert(item.first, item.second);
      for (std::size_t p = del_pos_; p < del_end_; ++p) {
        q.pq.insert(del_buf_[p].first, del_buf_[p].second);
      }
      q.refresh_min();
      q.lock.unlock();
      ins_buf_.clear();
      del_pos_ = del_end_ = 0;
    }

    bool all_empty() const {
      for (const auto& q : queue_->queues_) {
        if (q.value.count.load(std::memory_order_acquire) > 0) return false;
      }
      return true;
    }

    EngMultiQueue* queue_;
    Xoroshiro128 rng_;
    std::vector<Item> ins_buf_;  // sorted descending; min at back()
    std::vector<Item> del_buf_;  // ascending batch in [del_pos_, del_end_)
    std::size_t del_pos_ = 0;
    std::size_t del_end_ = 0;
    std::size_t ins_queue_ = 0;  // sticky insertion target
    unsigned ins_uses_ = 0;      // flushes left before redrawing it
    std::size_t del_queue_a_ = 0;  // sticky deletion pair
    std::size_t del_queue_b_ = 0;
    unsigned del_uses_ = 0;      // refills left before redrawing it
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  std::size_t queue_count() const noexcept { return queues_.size(); }

  // Sum of per-queue sizes; only meaningful when quiescent, and excludes
  // items staged in live handles' buffers.
  std::size_t unsafe_size() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q.value.pq.size();
    return total;
  }

 private:
  using LocalQueue = detail::MqLocalQueue<Key, Value, SeqQueue>;

  static MqEngConfig sanitize(MqEngConfig cfg) {
    if (cfg.c == 0) cfg.c = 1;
    if (cfg.stickiness == 0) cfg.stickiness = 1;
    return cfg;
  }

  std::vector<CacheAligned<LocalQueue>> queues_;
  MqEngConfig cfg_;
  std::uint64_t seed_;

  friend class Handle;
};

}  // namespace cpq
