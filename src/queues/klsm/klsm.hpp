// k-LSM relaxed priority queue (Wimmer et al., PPoPP 2015) — the paper's
// primary subject ("klsm128", "klsm256", "klsm4096").
//
// Composition (paper §B): a DLSM limited to at most k items per thread, and
// an SLSM whose pivot range covers at most k+1 of its smallest items.
// Inserts go to the local DLSM; when it overflows, its largest block is
// batch-inserted into the SLSM. delete_min peeks both components and claims
// the smaller candidate. DLSM deletions skip at most k(P-1) items and SLSM
// deletions at most k, so delete_min returns one of the kP+1 smallest items.
//
// The relaxation parameter k is a runtime constructor argument; the paper's
// variants are k = 128, 256, 4096 (k = 16 behaves like the strict Lindén
// queue and is exercised by `cpq_bench_cli --preset=ablation-klsm-k`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "queues/klsm/dlsm.hpp"
#include "queues/klsm/slsm.hpp"
#include "queues/queue_traits.hpp"

namespace cpq {

template <typename Key, typename Value>
class KLsmQueue {
  using Local = klsm_detail::ThreadLocalLsm<Key, Value>;
  using SlsmT = klsm_detail::Slsm<Key, Value>;

 public:
  using key_type = Key;
  using value_type = Value;

  explicit KLsmQueue(unsigned max_threads, std::uint64_t relaxation_k = 256,
                     std::uint64_t seed = 1)
      : max_threads_(max_threads == 0 ? 1 : max_threads),
        k_(relaxation_k),
        seed_(seed),
        locals_(std::make_unique<CacheAligned<Local>[]>(max_threads_)),
        slsm_(relaxation_k) {}

  std::uint64_t relaxation() const noexcept { return k_; }

  class Handle {
   public:
    Handle(KLsmQueue& queue, unsigned thread_id)
        : queue_(&queue),
          tid_(thread_id % queue.max_threads_),
          rng_(thread_seed(queue.seed_, thread_id)) {}

    void insert(Key key, Value value) {
      Local& local = queue_->local(tid_);
      local.insert(key, value);
      if (local.live_estimate() > queue_->k_) {
        auto batch = local.extract_largest_block();
        queue_->slsm_.insert_batch(std::move(batch));
      }
    }

    bool delete_min(Key& key_out, Value& value_out) {
      KLsmQueue& q = *queue_;
      Local& local = q.local(tid_);
      for (unsigned round = 0; round < kMaxRounds; ++round) {
        // Peek both components (paper §B): the local minimum and a random
        // SLSM pivot candidate — one of the k+1 smallest shared items.
        // Claim the smaller of the two; on a lost race, rescan. Comparing
        // against the *candidate* (not the SLSM front) is what composes the
        // k(P-1) local and k shared skips into the kP bound.
        typename Local::PeekResult local_peek;
        const bool have_local = local.peek_local_min(local_peek);

        mm::EbrDomain::Guard guard;
        typename SlsmT::Candidate candidate;
        const bool have_shared =
            q.slsm_.peek_random_candidate(candidate, rng_);

        if (have_local &&
            (!have_shared || !(candidate.key < local_peek.key))) {
          if (local.claim_peeked(local_peek, key_out, value_out)) {
            return true;
          }
          continue;  // lost the local item to a spy or merge
        }
        if (have_shared) {
          if (q.slsm_.claim_candidate(candidate, key_out, value_out)) {
            return true;
          }
          continue;  // candidate taken by a racing deleter
        }
        // Both components empty: adopt another thread's items, then give
        // the loop one more chance before reporting emptiness.
        if (!spy() && round > 0) return false;
      }
      return false;
    }

   private:
    static constexpr unsigned kMaxRounds = 8;

    // Claim-move the items of a random victim's DLSM into our own. The
    // scratch buffer is a handle member: spy() fires on every empty-looking
    // delete_min, and reusing the capacity keeps that path allocation-free.
    bool spy() {
      KLsmQueue& q = *queue_;
      if (q.max_threads_ <= 1) return false;
      std::vector<std::pair<Key, Value>>& stolen = spy_scratch_;
      stolen.clear();
      {
        mm::EbrDomain::Guard guard;
        const unsigned start = static_cast<unsigned>(
            rng_.next_below(q.max_threads_));
        for (unsigned i = 0; i < q.max_threads_ && stolen.empty(); ++i) {
          const unsigned victim = (start + i) % q.max_threads_;
          if (victim == tid_) continue;
          auto* array = q.local(victim).spy_array();
          if (array) Local::steal_all(array, stolen);
          q.local(victim).steal_staging(stolen);
        }
      }
      if (stolen.empty()) return false;
      std::sort(stolen.begin(), stolen.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      queue_->local(tid_).insert_sorted(
          stolen.data(), static_cast<std::uint32_t>(stolen.size()));
      return true;
    }

    KLsmQueue* queue_;
    unsigned tid_;
    Xoroshiro128 rng_;
    std::vector<std::pair<Key, Value>> spy_scratch_;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  // Quiescent-only live-item estimate across all components.
  std::uint64_t unsafe_size() const {
    std::uint64_t total = slsm_.live_estimate();
    for (unsigned t = 0; t < max_threads_; ++t) {
      total += locals_[t].value.live_estimate();
    }
    return total;
  }

 private:
  friend class Handle;

  Local& local(unsigned tid) { return locals_[tid].value; }

  const unsigned max_threads_;
  const std::uint64_t k_;
  const std::uint64_t seed_;
  std::unique_ptr<CacheAligned<Local>[]> locals_;
  SlsmT slsm_;
};

static_assert(ConcurrentPriorityQueue<KLsmQueue<bench_key, bench_value>>);

}  // namespace cpq
