// Size-class chunk pool for the k-LSM's block storage.
//
// The k-LSM merge cascade allocates and retires a block (header + slot
// array) on every structural insert, and EBR only *defers* the matching
// frees — under load the allocator sees the full churn, and malloc/free
// round-trips (plus their lock and page-fault traffic) show up directly in
// the merge path's cycles/op. This pool removes that churn without changing
// lifetime semantics:
//
//   * Chunks are grouped into power-of-two size classes (64 B .. 1 MiB;
//     larger requests fall through to ::operator new). Block capacities are
//     already powers of two (Block::capacity_for), so classes fit tightly.
//   * Each thread keeps a small per-class magazine of free chunks. The hot
//     allocate/deallocate path is a thread-local pointer pop/push — no
//     atomics, no lock.
//   * Magazines overflow into (and refill in batches from) a spinlocked
//     global freelist per class, so chunks freed by EBR on one thread are
//     recycled by inserters on another.
//
// Lifetime robustness: blocks retired through EBR can be freed during
// static destruction (EbrDomain drain), potentially after the pool's own
// destructor has run (singleton destruction order follows first-use order,
// which tests do not control). pool_alloc/pool_free therefore route through
// a liveness flag: once the pool is gone, they degrade to plain
// ::operator new/delete, which is always safe because pooled chunks are
// ordinary operator-new storage.
//
// The pool is deliberately NOT a general allocator: callers must pass the
// same byte count to pool_free that they passed to pool_alloc (the k-LSM
// recomputes it from the block's slot count), and chunks are never returned
// to the OS until trim() or process exit.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <thread>

#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/spinlock.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::mm {

namespace arena_detail {

// Tracks whether the pool singleton is alive. Zero-initialized before any
// dynamic initialization; flipped by the pool's constructor/destructor.
inline std::atomic<bool> g_pool_alive{false};

}  // namespace arena_detail

class BlockPool {
 public:
  static constexpr unsigned kMinClassLog = 6;   // 64 B
  static constexpr unsigned kMaxClassLog = 20;  // 1 MiB
  static constexpr unsigned kClassCount = kMaxClassLog - kMinClassLog + 1;
  // Per-thread magazine depth per class; half is flushed/refilled at a time
  // so a producer/consumer pair doesn't thrash the global freelist. EBR
  // systematically frees blocks on a different thread than the one that
  // allocated them, so in steady state every class sees cross-thread flow:
  // the depth bounds how often that flow serializes on the freelist lock
  // (once per kMagazineDepth/2 operations, in batches of the same size).
  static constexpr unsigned kMagazineDepth = 32;

  struct Stats {
    std::uint64_t fresh = 0;     // chunks obtained from ::operator new
    std::uint64_t reused = 0;    // allocations served from pooled chunks
    std::uint64_t recycled = 0;  // deallocations captured by the pool
    std::uint64_t oversize = 0;  // requests above kMaxClassLog (not pooled)
  };

  static BlockPool& global() {
    static BlockPool pool;
    return pool;
  }

  BlockPool() { arena_detail::g_pool_alive.store(true, std::memory_order_release); }

  ~BlockPool() {
    arena_detail::g_pool_alive.store(false, std::memory_order_release);
    trim();
  }

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  // Smallest pooled chunk size covering `bytes` (the size class), or
  // `bytes` itself for oversize requests.
  static std::size_t chunk_size_for(std::size_t bytes) noexcept {
    if (bytes <= (std::size_t{1} << kMinClassLog)) {
      return std::size_t{1} << kMinClassLog;
    }
    if (bytes > (std::size_t{1} << kMaxClassLog)) return bytes;
    return std::bit_ceil(bytes);
  }

  void* allocate(std::size_t bytes) {
    MagazineSet& set = magazines();
    const int cls = class_for(bytes);
    if (cls < 0) {
      ++set.local.oversize;
      return ::operator new(bytes);
    }
    // Fault injection: an allocation seam before any state mutates — a
    // throw here must leave pool and caller consistent.
    CPQ_INJECT("arena.alloc");
    Magazine& mag = set.classes[cls];
    if (mag.count == 0) refill(cls, mag);
    if (mag.count > 0) {
      ++set.local.reused;
      return mag.chunks[--mag.count];
    }
    ++set.local.fresh;
    return ::operator new(std::size_t{1} << (kMinClassLog + cls));
  }

  void deallocate(void* ptr, std::size_t bytes) noexcept {
    MagazineSet& set = magazines();
    const int cls = class_for(bytes);
    if (cls < 0) {
      ::operator delete(ptr);
      return;
    }
    ++set.local.recycled;
    Magazine& mag = set.classes[cls];
    if (mag.count == kMagazineDepth) flush_half(cls, mag);
    mag.chunks[mag.count++] = ptr;
  }

  // Global view plus the calling thread's not-yet-retired deltas. The hot
  // path counts into plain thread-local integers (shared fetch_adds on
  // every block alloc/free would serialize exactly the cache line this pool
  // exists to stop bouncing); each thread's tally merges into the global
  // atomics when the thread exits. Same-thread before/after deltas are
  // exact; another still-running thread's tally becomes visible at its
  // exit.
  Stats stats() const noexcept {
    const Stats& local = magazines().local;
    Stats s;
    s.fresh = stat_fresh_.load(std::memory_order_relaxed) + local.fresh;
    s.reused = stat_reused_.load(std::memory_order_relaxed) + local.reused;
    s.recycled =
        stat_recycled_.load(std::memory_order_relaxed) + local.recycled;
    s.oversize =
        stat_oversize_.load(std::memory_order_relaxed) + local.oversize;
    return s;
  }

  // Release every chunk parked in the GLOBAL freelists back to the runtime.
  // Thread magazines are untouched (they drain on thread exit). Safe at any
  // time — freelist chunks are by definition not in use.
  void trim() noexcept {
    for (unsigned cls = 0; cls < kClassCount; ++cls) {
      FreeChunk* head;
      {
        std::lock_guard<UncountedSpinlock> lock(freelists_[cls].value.lock);
        head = freelists_[cls].value.head;
        freelists_[cls].value.head = nullptr;
        freelists_[cls].value.length = 0;
      }
      while (head != nullptr) {
        FreeChunk* next = head->next;
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  }

 private:
  // Free chunks are linked through their own storage.
  struct FreeChunk {
    FreeChunk* next;
  };
  static_assert(sizeof(FreeChunk) <= (std::size_t{1} << kMinClassLog));

  struct FreeList {
    UncountedSpinlock lock;
    FreeChunk* head = nullptr;
    std::size_t length = 0;
  };

  struct Magazine {
    void* chunks[kMagazineDepth];
    unsigned count = 0;
  };

  // Thread magazines flush to the global pool on thread exit (chunks into
  // the freelists, the stats tally into the global counters); after the
  // pool itself died (static destruction) they free directly.
  struct MagazineSet {
    Magazine classes[kClassCount];
    Stats local;

    ~MagazineSet() {
      const bool alive =
          arena_detail::g_pool_alive.load(std::memory_order_acquire);
      for (unsigned cls = 0; cls < kClassCount; ++cls) {
        Magazine& mag = classes[cls];
        if (alive) {
          BlockPool::global().flush_all(cls, mag);
        } else {
          while (mag.count > 0) ::operator delete(mag.chunks[--mag.count]);
        }
      }
      if (alive) BlockPool::global().merge_stats(local);
    }
  };

  static int class_for(std::size_t bytes) noexcept {
    if (bytes > (std::size_t{1} << kMaxClassLog)) return -1;
    const unsigned log =
        std::bit_width(bytes <= 1 ? std::size_t{1} : bytes - 1);
    return log <= kMinClassLog ? 0 : static_cast<int>(log - kMinClassLog);
  }

  static MagazineSet& magazines() {
    thread_local MagazineSet set;
    return set;
  }

  void merge_stats(const Stats& local) noexcept {
    stat_fresh_.fetch_add(local.fresh, std::memory_order_relaxed);
    stat_reused_.fetch_add(local.reused, std::memory_order_relaxed);
    stat_recycled_.fetch_add(local.recycled, std::memory_order_relaxed);
    stat_oversize_.fetch_add(local.oversize, std::memory_order_relaxed);
  }

  void refill(unsigned cls, Magazine& mag) {
    FreeList& list = freelists_[cls].value;
    std::lock_guard<UncountedSpinlock> lock(list.lock);
    while (mag.count < kMagazineDepth / 2 && list.head != nullptr) {
      mag.chunks[mag.count++] = static_cast<void*>(list.head);
      list.head = list.head->next;
      --list.length;
    }
  }

  void flush_half(unsigned cls, Magazine& mag) noexcept {
    FreeList& list = freelists_[cls].value;
    std::lock_guard<UncountedSpinlock> lock(list.lock);
    while (mag.count > kMagazineDepth / 2) {
      auto* chunk = static_cast<FreeChunk*>(mag.chunks[--mag.count]);
      chunk->next = list.head;
      list.head = chunk;
      ++list.length;
    }
  }

  void flush_all(unsigned cls, Magazine& mag) noexcept {
    FreeList& list = freelists_[cls].value;
    std::lock_guard<UncountedSpinlock> lock(list.lock);
    while (mag.count > 0) {
      auto* chunk = static_cast<FreeChunk*>(mag.chunks[--mag.count]);
      chunk->next = list.head;
      list.head = chunk;
      ++list.length;
    }
  }

  CacheAligned<FreeList> freelists_[kClassCount];
  std::atomic<std::uint64_t> stat_fresh_{0};
  std::atomic<std::uint64_t> stat_reused_{0};
  std::atomic<std::uint64_t> stat_recycled_{0};
  std::atomic<std::uint64_t> stat_oversize_{0};
};

// Pool entry points with static-destruction fallback (see header comment).
// All k-LSM block storage goes through these.
inline void* pool_alloc(std::size_t bytes) {
  if (!arena_detail::g_pool_alive.load(std::memory_order_acquire)) {
    // First call constructs the singleton (which flips the flag); calls
    // after its destruction take the plain-new fallback forever.
    static thread_local bool constructing = false;
    if (!constructing) {
      constructing = true;
      BlockPool& pool = BlockPool::global();
      constructing = false;
      if (arena_detail::g_pool_alive.load(std::memory_order_acquire)) {
        return pool.allocate(bytes);
      }
    }
    return ::operator new(bytes);
  }
  return BlockPool::global().allocate(bytes);
}

inline void pool_free(void* ptr, std::size_t bytes) noexcept {
  if (!arena_detail::g_pool_alive.load(std::memory_order_acquire)) {
    ::operator delete(ptr);
    return;
  }
  BlockPool::global().deallocate(ptr, bytes);
}

}  // namespace cpq::mm
