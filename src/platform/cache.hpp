// Cache-line geometry, alignment and prefetch helpers.
//
// Every mutable shared word in this library is placed on its own cache line:
// false sharing between per-thread counters is the dominant scalability bug
// in concurrent priority queues (see e.g. the MultiQueue paper's discussion
// of lock placement), and it is cheap to rule out structurally.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cpq {

// std::hardware_destructive_interference_size is 64 on every platform we
// target but is not constexpr-usable on all standard libraries; pin it.
inline constexpr std::size_t kCacheLineSize = 64;

// Wraps T so that it occupies (and is aligned to) a whole number of cache
// lines. Use for elements of arrays shared across threads.
template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};

  CacheAligned() = default;

  template <typename... Args>
  explicit CacheAligned(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(alignof(CacheAligned<int>) == kCacheLineSize);
static_assert(sizeof(CacheAligned<int>) == kCacheLineSize);

// Read-intent prefetch hint (high temporal locality). Pointer-chasing
// traversals issue this for the next node while comparing the current one,
// overlapping the dependent-load miss with useful work. A hint only —
// incorrect or null addresses are harmless.
inline void prefetch_read(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

}  // namespace cpq
