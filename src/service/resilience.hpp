// Overload-resilience building blocks for the priority service:
//
//   * DeadlinePool — a fixed-capacity slot pool that attaches an absolute
//     expiry timestamp to a queued value without widening the queue's value
//     type. The service stores the pool index (tagged) as the queue value and
//     resolves it back at pop time, shedding tasks whose deadline passed.
//     Free indices sit in per-handle caches and move through one shared
//     list in batches.
//   * TierMap / tier_admitted — priority-aware admission: instead of the
//     binary block/reject choice, the key space is split into tiers and
//     lower-priority tiers are refused first as the in-flight window fills.
//   * CircuitBreaker — per-shard trip wire. Shards whose flush/refill batches
//     repeatedly exceed a duration budget are taken out of the two-choice
//     routing until a cooldown passes and a half-open probe succeeds.
//
// Everything here is header-only and queue-agnostic; PriorityService wires
// the pieces together (see priority_service.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "platform/cache.hpp"
#include "platform/clock.hpp"
#include "platform/spinlock.hpp"

namespace cpq::service {

// Steady-clock microseconds on the canonical monotonic timeline
// (platform/clock.hpp). Deadlines and breaker budgets are compared within
// one process run, so the epoch never matters; sharing monotonic_us() with
// the telemetry/trace exporters makes service-layer timestamps directly
// comparable to TelemetryRecord::t_ns and Chrome trace event times.
inline std::uint64_t steady_now_us() noexcept { return monotonic_us(); }

// Fixed-capacity pool of (value, deadline) slots. Free slot indices live in
// per-handle Caches and, between them, in one spinlocked shared list:
// acquire() pops an index from the caller's cache (refilling up to kBatch
// indices from the shared list when it is empty) and fills the slot; take()
// reads a slot back and pushes its index onto the caller's cache, which
// returns kBatch indices to the shared list once it holds 2 * kBatch. A
// producer and a consumer thread therefore meet on the list's lock once per
// kBatch tasks, not on every task. Ordering: slot indices travel through
// the inner queue, so the queue's insert/delete_min synchronization orders
// the writes in acquire() before the reads in take(); the list's lock orders
// a take() before the same slot's next acquire() on another thread.
template <typename V>
class DeadlinePool {
 public:
  // Indices moved between a cache and the shared list at a time.
  static constexpr std::size_t kBatch = 32;

  struct Entry {
    V value{};
    std::uint64_t deadline_us = 0;
  };

  // Free slot indices owned by one handle; used by one thread at a time.
  // Holds at most 2 * kBatch - 1 between calls. A move hands the indices
  // over, so exactly one cache can give them back.
  struct Cache {
    Cache() = default;
    Cache(Cache&& other) noexcept : count(std::exchange(other.count, 0)) {
      std::copy_n(other.free, count, free);
    }
    Cache& operator=(Cache&&) = delete;

    std::uint32_t free[2 * kBatch]{};
    std::size_t count = 0;
  };

  explicit DeadlinePool(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity),
        free_(slots_.size()),
        free_count_(free_.size()) {
    std::iota(free_.begin(), free_.end(), std::uint32_t{0});
  }

  DeadlinePool(const DeadlinePool&) = delete;
  DeadlinePool& operator=(const DeadlinePool&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  // Number of acquire() calls refused because neither the caller's cache
  // nor the shared list held a free slot. The caller falls back to
  // enqueueing the value without a deadline, so exhaustion degrades
  // shedding fidelity but never loses tasks.
  std::uint64_t exhausted() const noexcept {
    return exhausted_.load(std::memory_order_relaxed);
  }

  // Take a free slot from `cache`, store (value, deadline_us) into it, and
  // return its index through `slot`. Returns false (and counts the
  // exhaustion) when no slot is free.
  bool acquire(Cache& cache, const V& value, std::uint64_t deadline_us,
               std::uint32_t& slot) noexcept {
    if (cache.count == 0) {
      std::lock_guard<UncountedSpinlock> guard(lock_);
      const std::size_t n = std::min(kBatch, free_count_);
      free_count_ -= n;
      std::copy_n(free_.data() + free_count_, n, cache.free);
      cache.count = n;
    }
    if (cache.count == 0) {
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slot = cache.free[--cache.count];
    slots_[slot] = Entry{value, deadline_us};
    return true;
  }

  // Read slot `slot` back and return it to `cache`. The caller must own the
  // slot (obtained from acquire() and routed through the queue exactly
  // once).
  Entry take(Cache& cache, std::uint32_t slot) noexcept {
    const Entry entry = slots_[slot];
    cache.free[cache.count++] = slot;
    if (cache.count == 2 * kBatch) give_back(cache, kBatch);
    return entry;
  }

  // Return every index `cache` holds to the shared list (handle teardown).
  void release(Cache& cache) noexcept {
    if (cache.count > 0) give_back(cache, cache.count);
  }

 private:
  void give_back(Cache& cache, std::size_t n) noexcept {
    cache.count -= n;
    std::lock_guard<UncountedSpinlock> guard(lock_);
    std::copy_n(cache.free + cache.count, n, free_.data() + free_count_);
    free_count_ += n;
  }

  std::vector<Entry> slots_;
  std::vector<std::uint32_t> free_;  // shared list: free_[0, free_count_)
  std::atomic<std::uint64_t> exhausted_{0};
  // What every cache refill and give-back writes, on a line of its own.
  alignas(kCacheLineSize) UncountedSpinlock lock_;
  std::size_t free_count_ = 0;  // guarded by lock_
};

// Key-space tiers for priority-aware admission. Tier 0 holds the smallest
// (highest-priority) keys; boundaries are ascending upper bounds, so a key is
// in the first tier whose boundary exceeds it and in the last tier otherwise.
struct TierMap {
  std::vector<std::uint64_t> boundaries;

  unsigned tiers() const noexcept {
    return static_cast<unsigned>(boundaries.size()) + 1;
  }

  unsigned tier_of(std::uint64_t key) const noexcept {
    unsigned t = 0;
    for (const std::uint64_t bound : boundaries) {
      if (key < bound) return t;
      ++t;
    }
    return t;
  }

  // Split [0, key_space) into `tiers` equal-width tiers.
  static TierMap uniform(unsigned tiers, std::uint64_t key_space) {
    TierMap map;
    if (tiers < 2) return map;
    const std::uint64_t width = key_space / tiers;
    for (unsigned t = 1; t < tiers; ++t) {
      map.boundaries.push_back(width * t);
    }
    return map;
  }
};

// Graduated admission: tier t (0 = highest priority) is admitted while the
// in-flight occupancy is below capacity * (tiers - t) / tiers. Tier 0 may use
// the whole window; the lowest tier is refused once the window is 1/tiers
// full. With tiers <= 1 this degenerates to the plain capacity check.
inline bool tier_admitted(std::size_t occupancy, std::size_t capacity,
                          unsigned tier, unsigned tiers) noexcept {
  if (occupancy >= capacity) return false;
  if (tiers <= 1) return true;
  if (tier >= tiers) tier = tiers - 1;
  return occupancy < capacity / tiers * (tiers - tier) +
                         capacity % tiers * (tiers - tier) / tiers;
}

// Per-shard circuit breaker. Shard maintenance batches (flush, refill) report
// their duration; `consecutive` reports at or above `trip_us` trip the
// breaker to Open, taking the shard out of preferred routing for
// `cooldown_us`. After the cooldown one caller is admitted as a Half-Open
// probe; a fast batch closes the breaker, a slow one re-opens it. All state
// is relaxed atomics — the breaker is a routing hint, not a correctness
// gate, and torn decisions only cost one misrouted batch.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  void configure(std::uint64_t trip_us, unsigned consecutive,
                 std::uint64_t cooldown_us) noexcept {
    trip_us_ = trip_us;
    consecutive_ = consecutive == 0 ? 1 : consecutive;
    cooldown_us_ = cooldown_us == 0 ? 1 : cooldown_us;
  }

  bool enabled() const noexcept { return trip_us_ > 0; }

  State state() const noexcept {
    return static_cast<State>(state_.load(std::memory_order_relaxed));
  }

  std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

  // May the caller route a batch to this shard right now? Open shards refuse
  // until the cooldown elapses, then exactly one caller wins the CAS and
  // probes in Half-Open; the rest keep routing elsewhere. A Half-Open probe
  // that never reports (its thread died or rerouted) goes stale after one
  // more cooldown and the probe token is reissued.
  bool allow(std::uint64_t now_us) noexcept {
    if (!enabled()) return true;
    std::uint8_t state = state_.load(std::memory_order_relaxed);
    if (state == static_cast<std::uint8_t>(State::kClosed)) return true;
    const std::uint64_t wait_until =
        deadline_us_.load(std::memory_order_relaxed);
    if (now_us < wait_until) return false;
    if (state == static_cast<std::uint8_t>(State::kOpen)) {
      if (state_.compare_exchange_strong(
              state, static_cast<std::uint8_t>(State::kHalfOpen),
              std::memory_order_relaxed)) {
        deadline_us_.store(now_us + cooldown_us_, std::memory_order_relaxed);
        return true;  // this caller is the probe
      }
      return state == static_cast<std::uint8_t>(State::kClosed);
    }
    // Half-Open past its probe window: reissue the probe token.
    std::uint64_t expected = wait_until;
    return deadline_us_.compare_exchange_strong(expected, now_us + cooldown_us_,
                                                std::memory_order_relaxed);
  }

  // Report a completed batch against this shard. Returns true when this
  // report tripped (or re-tripped) the breaker.
  bool record(std::uint64_t now_us, std::uint64_t duration_us) noexcept {
    if (!enabled()) return false;
    const std::uint8_t state = state_.load(std::memory_order_relaxed);
    if (duration_us >= trip_us_) {
      if (state == static_cast<std::uint8_t>(State::kHalfOpen)) {
        reopen(now_us);
        return true;
      }
      const std::uint32_t streak =
          slow_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (streak >= consecutive_ &&
          state == static_cast<std::uint8_t>(State::kClosed)) {
        reopen(now_us);
        return true;
      }
      return false;
    }
    slow_streak_.store(0, std::memory_order_relaxed);
    if (state == static_cast<std::uint8_t>(State::kHalfOpen)) {
      state_.store(static_cast<std::uint8_t>(State::kClosed),
                   std::memory_order_relaxed);
    }
    return false;
  }

 private:
  void reopen(std::uint64_t now_us) noexcept {
    deadline_us_.store(now_us + cooldown_us_, std::memory_order_relaxed);
    state_.store(static_cast<std::uint8_t>(State::kOpen),
                 std::memory_order_relaxed);
    slow_streak_.store(0, std::memory_order_relaxed);
    trips_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t trip_us_ = 0;
  unsigned consecutive_ = 2;
  std::uint64_t cooldown_us_ = 5000;
  std::atomic<std::uint8_t> state_{0};
  std::atomic<std::uint64_t> deadline_us_{0};
  std::atomic<std::uint32_t> slow_streak_{0};
  std::atomic<std::uint64_t> trips_{0};
};

}  // namespace cpq::service
