// Spinlocks used by the lock-based queues (GlobalLock, MultiQueue, Hunt heap)
// and, uncounted, by pools that sit beside them.
//
// A test-and-test-and-set lock with exponential backoff is what the original
// klsm benchmark used to protect std::priority_queue instances; we provide
// TAS and TTAS variants so the difference is benchmarkable (bench_components).
// Both satisfy the C++ Lockable requirements, so they work with
// std::lock_guard / std::unique_lock.
#pragma once

#include <atomic>
#include <thread>

#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "validation/fault_injection.hpp"

namespace cpq {

// Plain test-and-set lock. Simple but generates a cache-line invalidation on
// every failed attempt; kept as the baseline for the lock microbenchmark.
class TasSpinlock {
 public:
  void lock() noexcept {
    while (flag_.exchange(true, std::memory_order_acquire)) cpu_relax();
  }

  bool try_lock() noexcept {
    return !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// Test-and-test-and-set with randomized exponential backoff: spins on a
// local read until the lock looks free, then attempts the exchange. This is
// the lock used throughout the library.
class Spinlock {
 public:
  void lock() noexcept {
    Backoff backoff(reinterpret_cast<std::uintptr_t>(this));
    unsigned rounds = 0;
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) {
        // Fault injection: stretch the critical section right after the
        // acquire, the window where a preempted lock holder stalls waiters.
        CPQ_INJECT("spinlock.acquired");
        return;
      }
      // Contended path only: the uncontended acquire above stays hook-free.
      CPQ_COUNT(kLockRetry);
      do {
        // After sustained spinning, yield so a preempted lock holder can
        // run (essential when benchmark threads outnumber cores).
        if (++rounds < 64) {
          backoff.pause();
        } else {
          std::this_thread::yield();
        }
      } while (flag_.load(std::memory_order_relaxed));
    }
  }

  bool try_lock() noexcept {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept {
    // Fault injection: delay the release so waiters observe long holds.
    CPQ_INJECT("spinlock.release");
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
};

// Minimal TTAS lock for infrastructure that must stay invisible to the
// contention counters and the injection seams (the k-LSM block pool, the
// service's deadline-slot free list): CPQ_COUNT would attribute its traffic
// to the queue under test. Like Spinlock it yields after sustained spinning
// — with more runnable threads than cores a preempted holder otherwise costs
// every spinner its full quantum.
class UncountedSpinlock {
 public:
  void lock() noexcept {
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      unsigned spins = 0;
      while (flag_.load(std::memory_order_relaxed)) {
        if (++spins < 64) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }
  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// A sequence lock for single-writer structures read by occasional foreign
// threads (the DLSM spy path). The writer is wait-free: it bumps the counter
// to odd before mutating and back to even after. Readers snapshot, copy, and
// validate that the counter is even and unchanged.
class SeqLock {
 public:
  // Writer side. Calls must be balanced and single-threaded.
  void write_begin() noexcept {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }

  void write_end() noexcept {
    std::atomic_thread_fence(std::memory_order_release);
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  // Reader side: read_begin() returns a token; after copying the protected
  // data, read_validate(token) says whether the copy is consistent.
  std::uint64_t read_begin() const noexcept {
    std::uint64_t s = seq_.load(std::memory_order_acquire);
    return s;
  }

  bool read_validate(std::uint64_t token) const noexcept {
    std::atomic_thread_fence(std::memory_order_acquire);
    return (token & 1) == 0 && seq_.load(std::memory_order_acquire) == token;
  }

 private:
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace cpq
