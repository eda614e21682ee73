// Spinlocks used by the lock-based queues (GlobalLock, MultiQueue, Hunt heap)
// and, uncounted, by pools that sit beside them.
//
// Spinlock is a test-and-test-and-set lock with exponential backoff, the
// lock the original klsm benchmark used to protect std::priority_queue
// instances. Both locks satisfy the C++ BasicLockable requirements, so they
// work with std::lock_guard / std::unique_lock.
#pragma once

#include <atomic>
#include <thread>

#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "validation/fault_injection.hpp"

namespace cpq {

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

}  // namespace cpq
