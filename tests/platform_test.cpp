// Unit tests for the platform substrate: RNG quality/determinism, backoff,
// cache-line alignment, spinlocks, barrier, and timers.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"

namespace cpq {
namespace {

// ---- cache ----------------------------------------------------------------

TEST(Cache, AlignedWrapperIsOneLinePerElement) {
  std::vector<CacheAligned<std::uint64_t>> counters(4);
  for (std::size_t i = 1; i < counters.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&counters[i - 1]);
    const auto b = reinterpret_cast<std::uintptr_t>(&counters[i]);
    EXPECT_EQ(b - a, kCacheLineSize);
    EXPECT_EQ(b % kCacheLineSize, 0u);
  }
}

TEST(Cache, AccessorsWork) {
  CacheAligned<int> x(41);
  EXPECT_EQ(*x, 41);
  *x += 1;
  EXPECT_EQ(x.value, 42);
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoroshiro128 a(123);
  Xoroshiro128 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoroshiro128 a(1);
  Xoroshiro128 b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInBounds) {
  Xoroshiro128 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextInClosedRange) {
  Xoroshiro128 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_in(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, RoughlyUniformBuckets) {
  Xoroshiro128 rng(99);
  std::array<int, 16> buckets{};
  const int draws = 160000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.next_below(16)];
  for (int count : buckets) {
    EXPECT_GT(count, draws / 16 * 0.9);
    EXPECT_LT(count, draws / 16 * 1.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoroshiro128 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ThreadSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (unsigned tid = 0; tid < 256; ++tid) {
    seeds.insert(thread_seed(42, tid));
  }
  EXPECT_EQ(seeds.size(), 256u);
}

TEST(Rng, AllZeroSeedIsRepaired) {
  // SplitMix of any seed never yields the all-zero xoroshiro state, but the
  // constructor guards it anyway; just check output is nonconstant.
  Xoroshiro128 rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 10; ++i) values.insert(rng.next());
  EXPECT_GT(values.size(), 1u);
}

// ---- backoff ---------------------------------------------------------------

TEST(Backoff, LimitGrowsAndTruncates) {
  Backoff backoff(1, 4, 64);
  EXPECT_EQ(backoff.current_limit(), 4u);
  for (int i = 0; i < 10; ++i) backoff.pause();
  EXPECT_EQ(backoff.current_limit(), 64u);
  backoff.reset();
  EXPECT_EQ(backoff.current_limit(), 4u);
}

// ---- spinlocks -------------------------------------------------------------

template <typename Lock>
void mutual_exclusion_stress() {
  Lock lock;
  std::uint64_t counter = 0;
  const unsigned threads = 4;
  const std::uint64_t per_thread = 20000;
  run_team(threads, [&](unsigned) {
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      lock.lock();
      ++counter;
      lock.unlock();
    }
  });
  EXPECT_EQ(counter, threads * per_thread);
}

TEST(Spinlock, TtasMutualExclusion) { mutual_exclusion_stress<Spinlock>(); }
TEST(Spinlock, UncountedMutualExclusion) {
  mutual_exclusion_stress<UncountedSpinlock>();
}

TEST(Spinlock, TryLockReflectsState) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// ---- barrier ---------------------------------------------------------------

TEST(SpinBarrier, SynchronizesPhases) {
  const unsigned threads = 4;
  const int phases = 50;
  SpinBarrier barrier(threads);
  std::atomic<int> phase_counter{0};
  run_team(threads, [&](unsigned) {
    for (int p = 0; p < phases; ++p) {
      phase_counter.fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier, all arrivals of this phase must be visible.
      EXPECT_GE(phase_counter.load(), (p + 1) * static_cast<int>(threads));
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(phase_counter.load(), phases * static_cast<int>(threads));
}

// ---- thread helpers ---------------------------------------------------------

TEST(ThreadUtil, RunTeamPassesDistinctIds) {
  const unsigned threads = 4;
  std::vector<std::atomic<int>> hits(threads);
  for (auto& h : hits) h.store(0);
  run_team(threads, [&](unsigned tid) {
    ASSERT_LT(tid, threads);
    hits[tid].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadUtil, RunTeamUnpinnedWorks) {
  std::atomic<int> total{0};
  run_team(3, [&](unsigned) { total.fetch_add(1); }, /*pin=*/false);
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadUtil, PinToCoreIsBestEffort) {
  // Indexes far beyond the core count must be tolerated silently.
  pin_to_core(0);
  pin_to_core(10000);
}

// ---- timing ----------------------------------------------------------------

TEST(Timing, StopwatchMeasuresSleep) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = watch.elapsed_seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
}

TEST(Timing, FastTimestampAdvances) {
  const std::uint64_t a = fast_timestamp();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::uint64_t b = fast_timestamp();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace cpq
