// Standalone DLSM and SLSM queues.
//
// The paper notes (§B) that "both the SLSM and the DLSM may be used as
// standalone priority queues, but have complementary advantages and
// disadvantages which can be balanced against each other by their
// composition". These wrappers expose each component through the common
// queue interface so `cpq_bench_cli --preset=ablation-klsm-components` can
// demonstrate exactly that: the DLSM scales embarrassingly but gives only
// thread-local ordering, the SLSM gives the global k+1 guarantee but
// centralizes contention, and the k-LSM sits between them depending on
// which component carries the load (the paper's §G explanation for the
// k-LSM's sensitivity).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "queues/klsm/dlsm.hpp"
#include "queues/klsm/slsm.hpp"
#include "queues/queue_traits.hpp"

namespace cpq {

// DLSM-only queue: thread-local LSMs with spy-based stealing, no shared
// component and no global relaxation bound (returned items are minimal on
// the deleting thread only).
template <typename Key, typename Value>
class DlsmQueue {
  using Local = klsm_detail::ThreadLocalLsm<Key, Value>;

 public:
  using key_type = Key;
  using value_type = Value;

  explicit DlsmQueue(unsigned max_threads, std::uint64_t seed = 1)
      : max_threads_(max_threads == 0 ? 1 : max_threads),
        seed_(seed),
        locals_(std::make_unique<CacheAligned<Local>[]>(max_threads_)) {}

  class Handle {
   public:
    Handle(DlsmQueue& queue, unsigned thread_id)
        : queue_(&queue),
          tid_(thread_id % queue.max_threads_),
          rng_(thread_seed(queue.seed_, thread_id)) {}

    void insert(Key key, Value value) {
      queue_->locals_[tid_].value.insert(key, value);
    }

    bool delete_min(Key& key_out, Value& value_out) {
      Local& local = queue_->locals_[tid_].value;
      if (local.delete_local_min(key_out, value_out)) return true;
      if (!spy()) return false;
      return local.delete_local_min(key_out, value_out);
    }

   private:
    // Reuses the handle-owned scratch buffer across spy() calls, exactly
    // like the composed k-LSM's handle.
    bool spy() {
      DlsmQueue& q = *queue_;
      if (q.max_threads_ <= 1) return false;
      std::vector<std::pair<Key, Value>>& stolen = spy_scratch_;
      stolen.clear();
      {
        mm::EbrDomain::Guard guard;
        const unsigned start =
            static_cast<unsigned>(rng_.next_below(q.max_threads_));
        for (unsigned i = 0; i < q.max_threads_ && stolen.empty(); ++i) {
          const unsigned victim = (start + i) % q.max_threads_;
          if (victim == tid_) continue;
          auto* array = q.locals_[victim].value.spy_array();
          if (array) Local::steal_all(array, stolen);
          q.locals_[victim].value.steal_staging(stolen);
        }
      }
      if (stolen.empty()) return false;
      std::sort(stolen.begin(), stolen.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      queue_->locals_[tid_].value.insert_sorted(
          stolen.data(), static_cast<std::uint32_t>(stolen.size()));
      return true;
    }

    DlsmQueue* queue_;
    unsigned tid_;
    Xoroshiro128 rng_;
    std::vector<std::pair<Key, Value>> spy_scratch_;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  std::uint64_t unsafe_size() const {
    std::uint64_t total = 0;
    for (unsigned t = 0; t < max_threads_; ++t) {
      total += locals_[t].value.live_estimate();
    }
    return total;
  }

 private:
  friend class Handle;
  const unsigned max_threads_;
  const std::uint64_t seed_;
  std::unique_ptr<CacheAligned<Local>[]> locals_;
};

// SLSM-only queue: every insert is a (serialized) one-item batch into the
// shared LSM; delete_min claims a random pivot candidate (one of the k+1
// smallest).
template <typename Key, typename Value>
class SlsmQueue {
  using SlsmT = klsm_detail::Slsm<Key, Value>;

 public:
  using key_type = Key;
  using value_type = Value;

  explicit SlsmQueue(unsigned max_threads, std::uint64_t relaxation_k = 256,
                     std::uint64_t seed = 1)
      : seed_(seed), slsm_(relaxation_k) {
    (void)max_threads;
  }

  class Handle {
   public:
    Handle(SlsmQueue& queue, unsigned thread_id)
        : queue_(&queue), rng_(thread_seed(queue.seed_, thread_id)) {}

    void insert(Key key, Value value) { queue_->slsm_.insert(key, value); }

    bool delete_min(Key& key_out, Value& value_out) {
      return queue_->slsm_.delete_min(key_out, value_out, rng_);
    }

   private:
    SlsmQueue* queue_;
    Xoroshiro128 rng_;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  std::uint64_t unsafe_size() const { return slsm_.live_estimate(); }

 private:
  friend class Handle;
  const std::uint64_t seed_;
  SlsmT slsm_;
};

static_assert(ConcurrentPriorityQueue<DlsmQueue<bench_key, bench_value>>);
static_assert(ConcurrentPriorityQueue<SlsmQueue<bench_key, bench_value>>);

}  // namespace cpq
