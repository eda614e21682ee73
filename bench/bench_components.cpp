// C1 — component microbenchmarks (google-benchmark).
//
// Isolates the building blocks that the full-system benchmarks compose:
// sequential queues (the MultiQueue's and GlobalLock's engines), the LSM
// block merge (the k-LSM's insert amortization), the order-statistic replay
// engine (quality-benchmark cost), RNG and lock primitives, EBR overhead,
// and single-threaded operation cost of every concurrent queue (the y-axis
// intercepts of the paper's figures).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mm/epoch.hpp"
#include "mm/hazard.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "queues/flat_combining.hpp"
#include "queues/globallock.hpp"
#include "queues/hunt_heap.hpp"
#include "queues/klsm/block.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/linden.hpp"
#include "queues/multiqueue.hpp"
#include "queues/spraylist.hpp"
#include "seq/binary_heap.hpp"
#include "seq/order_statistic_tree.hpp"
#include "seq/pairing_heap.hpp"
#include "seq/seq_lsm.hpp"
#include "workloads/keyspace.hpp"

namespace {

using K = std::uint64_t;
using V = std::uint64_t;

// ---- primitives -------------------------------------------------------

void BM_RngNext(benchmark::State& state) {
  cpq::Xoroshiro128 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngNextBelow(benchmark::State& state) {
  cpq::Xoroshiro128 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(12345));
  }
}
BENCHMARK(BM_RngNextBelow);

template <typename Lock>
void BM_LockUncontended(benchmark::State& state) {
  Lock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_LockUncontended<cpq::TasSpinlock>);
BENCHMARK(BM_LockUncontended<cpq::Spinlock>);

void BM_EbrGuard(benchmark::State& state) {
  for (auto _ : state) {
    cpq::mm::EbrDomain::Guard guard;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EbrGuard);

// The read-side cost EBR avoids: one seq_cst publish + revalidation per
// protected pointer (see mm/hazard.hpp's tradeoff discussion).
void BM_HazardAcquire(benchmark::State& state) {
  static cpq::mm::HazardDomain<int> domain;
  std::atomic<int*> published{new int(7)};
  auto slot = domain.make_slot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot.protect(published));
    slot.clear();
  }
  delete published.load();
}
BENCHMARK(BM_HazardAcquire);

void BM_KeyGenerator(benchmark::State& state) {
  using cpq::workloads::KeyConfig;
  const KeyConfig configs[] = {KeyConfig::uniform(32), KeyConfig::uniform(8),
                               KeyConfig::ascending(),
                               KeyConfig::descending()};
  cpq::workloads::KeyGenerator gen(configs[state.range(0)], 1, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_KeyGenerator)->DenseRange(0, 3);

// ---- sequential queues --------------------------------------------------

template <typename Heap>
void BM_SeqQueueSteadyState(benchmark::State& state) {
  Heap heap;
  cpq::Xoroshiro128 rng(7);
  const std::int64_t prefill = state.range(0);
  for (std::int64_t i = 0; i < prefill; ++i) {
    heap.insert(rng.next_below(1u << 20), i);
  }
  K k;
  V v;
  for (auto _ : state) {
    heap.insert(rng.next_below(1u << 20), 0);
    benchmark::DoNotOptimize(heap.delete_min(k, v));
  }
}
BENCHMARK(BM_SeqQueueSteadyState<cpq::seq::BinaryHeap<K, V>>)
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK(BM_SeqQueueSteadyState<cpq::seq::PairingHeap<K, V>>)
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK(BM_SeqQueueSteadyState<cpq::seq::SeqLsm<K, V>>)
    ->Arg(1000)
    ->Arg(100000);

// ---- k-LSM block machinery ---------------------------------------------

// Claim-merge two interleaved n-slot blocks, the step every k-LSM merge
// cascade repeats. `claimed_front` slots at the head of each block are
// claimed beforehand, as deleters leave them at the front of an SLSM block;
// items/s counts the live items the merge moves.
void block_claim_merge(benchmark::State& state, std::int64_t claimed_front) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::pair<K, V>> ia, ib;
    for (std::int64_t i = 0; i < n; ++i) ia.emplace_back(2 * i, i);
    for (std::int64_t i = 0; i < n; ++i) ib.emplace_back(2 * i + 1, i);
    auto* a = cpq::klsm_detail::Block<K, V>::create(std::move(ia));
    auto* b = cpq::klsm_detail::Block<K, V>::create(std::move(ib));
    for (std::int64_t i = 0; i < claimed_front; ++i) {
      a->claim(static_cast<std::uint32_t>(i));
      b->claim(static_cast<std::uint32_t>(i));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(cpq::klsm_detail::claim_merge(*a, *b));
    state.PauseTiming();
    a->unref();
    b->unref();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * (n - claimed_front));
}

void BM_BlockClaimMerge(benchmark::State& state) {
  block_claim_merge(state, 0);
}
// 65536: the SSSP workload's SLSM merges reach blocks of this size.
BENCHMARK(BM_BlockClaimMerge)->Arg(128)->Arg(4096)->Arg(65536);

void BM_BlockClaimMergeHalfClaimed(benchmark::State& state) {
  block_claim_merge(state, state.range(0) / 2);
}
BENCHMARK(BM_BlockClaimMergeHalfClaimed)->Arg(4096)->Arg(65536);

// The raw merge kernels, decoupled from slot claiming: scalar oracle vs the
// branch-free unrolled loop vs the SSE4.2 variant (when the host supports
// it). Items/sec here bound how fast claim_merge can ever go. The second
// argument selects the take pattern, which decides the contest: 0 strictly
// alternates (a branch predictor's best case, flattering the scalar loop),
// 1 draws both runs from the same uniform distribution — rotating through
// many distinct input pairs, because repeating ONE random merge lets the
// predictor memorize its take sequence and report a fantasy number; the
// k-LSM cascade merges a fresh pattern every time.
template <int Kernel>
void BM_MergeKernel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool random_keys = state.range(1) != 0;
  using Item = std::pair<K, V>;
  constexpr std::size_t kVariants = 32;
  std::vector<std::vector<Item>> as, bs;
  std::vector<Item> out(2 * n);
  cpq::Xoroshiro128 rng(99);
  for (std::size_t variant = 0; variant < (random_keys ? kVariants : 1);
       ++variant) {
    std::vector<Item> a, b;
    if (random_keys) {
      for (std::size_t i = 0; i < n; ++i) {
        a.emplace_back(rng.next_below(1u << 20), i);
      }
      for (std::size_t i = 0; i < n; ++i) {
        b.emplace_back(rng.next_below(1u << 20), i);
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
    } else {
      for (std::size_t i = 0; i < n; ++i) a.emplace_back(2 * i, i);
      for (std::size_t i = 0; i < n; ++i) b.emplace_back(2 * i + 1, i);
    }
    as.push_back(std::move(a));
    bs.push_back(std::move(b));
  }
  if constexpr (Kernel == 2) {
#if CPQ_MERGE_HAVE_SSE42_TARGET
    if (!cpq::klsm_detail::merge_simd_available()) {
      state.SkipWithError("SSE4.2 not available");
      return;
    }
#else
    state.SkipWithError("SSE4.2 kernel not compiled in");
    return;
#endif
  }
  std::size_t which = 0;
  for (auto _ : state) {
    const Item* a = as[which].data();
    const Item* b = bs[which].data();
    which = (which + 1) % as.size();
    std::size_t produced = 0;
    if constexpr (Kernel == 0) {
      produced =
          cpq::klsm_detail::merge_sorted_scalar(a, n, b, n, out.data());
    } else if constexpr (Kernel == 1) {
      produced =
          cpq::klsm_detail::merge_sorted_branchfree(a, n, b, n, out.data());
    } else {
#if CPQ_MERGE_HAVE_SSE42_TARGET
      produced = cpq::klsm_detail::merge_sorted_simd(a, n, b, n, out.data());
#endif
    }
    benchmark::DoNotOptimize(produced);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_MergeKernel<0>)
    ->Args({128, 0})
    ->Args({4096, 0})
    ->Args({128, 1})
    ->Args({4096, 1});
BENCHMARK(BM_MergeKernel<1>)
    ->Args({128, 0})
    ->Args({4096, 0})
    ->Args({128, 1})
    ->Args({4096, 1});
BENCHMARK(BM_MergeKernel<2>)
    ->Args({128, 0})
    ->Args({4096, 0})
    ->Args({128, 1})
    ->Args({4096, 1});

// ---- order-statistic replay engine ---------------------------------------

void BM_OstInsertErase(benchmark::State& state) {
  cpq::seq::OrderStatisticTree<K> tree;
  cpq::Xoroshiro128 rng(3);
  const std::int64_t prefill = state.range(0);
  for (std::int64_t i = 0; i < prefill; ++i) {
    tree.insert(rng.next_below(1u << 20), i);
  }
  std::uint64_t id = prefill;
  for (auto _ : state) {
    const K key = rng.next_below(1u << 20);
    tree.insert(key, id);
    benchmark::DoNotOptimize(tree.erase(key, id));
    ++id;
  }
}
BENCHMARK(BM_OstInsertErase)->Arg(100000);

// ---- concurrent queues, single-threaded op cost ---------------------------

template <typename Queue>
void BM_QueueSteadyState1T(benchmark::State& state) {
  Queue queue(1);
  auto handle = queue.get_handle(0);
  cpq::Xoroshiro128 rng(11);
  for (int i = 0; i < 100000; ++i) {
    handle.insert(rng.next_below(1u << 20), i);
  }
  K k;
  V v;
  for (auto _ : state) {
    handle.insert(rng.next_below(1u << 20), 0);
    benchmark::DoNotOptimize(handle.delete_min(k, v));
  }
}
BENCHMARK(BM_QueueSteadyState1T<cpq::GlobalLockQueue<K, V>>);
BENCHMARK(BM_QueueSteadyState1T<cpq::LindenQueue<K, V>>);
BENCHMARK(BM_QueueSteadyState1T<cpq::SprayList<K, V>>);
BENCHMARK(BM_QueueSteadyState1T<cpq::MultiQueue<K, V>>);
BENCHMARK(BM_QueueSteadyState1T<cpq::HuntHeap<K, V>>);
BENCHMARK(BM_QueueSteadyState1T<cpq::FcPriorityQueue<K, V>>);

void BM_KlsmSteadyState1T(benchmark::State& state) {
  cpq::KLsmQueue<K, V> queue(1, static_cast<std::uint64_t>(state.range(0)));
  auto handle = queue.get_handle(0);
  cpq::Xoroshiro128 rng(11);
  for (int i = 0; i < 100000; ++i) {
    handle.insert(rng.next_below(1u << 20), i);
  }
  K k;
  V v;
  for (auto _ : state) {
    handle.insert(rng.next_below(1u << 20), 0);
    benchmark::DoNotOptimize(handle.delete_min(k, v));
  }
}
BENCHMARK(BM_KlsmSteadyState1T)->Arg(128)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
