// Latency measurement mode — the paper's "throughput/latency switch" (§F):
// "Alternatively, a number of queue operations could be prescribed, and the
// time (latency) for this number and mix of operations measured."
//
// Every thread executes a fixed number of operations and timestamps each
// one individually (RDTSCP, calibrated against the wall clock per
// repetition). Per-operation latencies are recorded into per-thread
// log-linear histograms (src/obs/histogram.hpp) — O(1) memory per
// operation, so the mode runs in bounded memory at any operation count —
// and split by operation type. Percentiles summarize the merged
// histograms: throughput hides convoying and tail effects (e.g. a
// GlobalLock queue can post decent throughput while its p99 explodes),
// which is precisely why the paper proposes the switch.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "bench_framework/harness.hpp"
#include "obs/histogram.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"

namespace cpq::bench {

struct LatencyPercentiles {
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
  std::uint64_t samples = 0;
};

struct LatencyResult {
  LatencyPercentiles insert;
  LatencyPercentiles delete_min;
  // Merged over all threads and completed repetitions, in nanoseconds.
  obs::LogHistogram insert_ns;
  obs::LogHistogram delete_ns;
  unsigned completed_reps = 0;
  unsigned failed_reps = 0;
  bool failed() const { return completed_reps == 0; }
};

// Destructive percentile extraction (sorts `samples_ns` in place).
//
// Nearest-rank indexing: the q-quantile of n sorted samples is element
// ceil(q*n) (1-based). The previous floor(q*(n-1)) indexing under-reported
// the tail — with 10 samples "p99" read the 9th value instead of the max.
inline LatencyPercentiles percentiles_of(std::vector<double>& samples_ns) {
  LatencyPercentiles result;
  result.samples = samples_ns.size();
  if (samples_ns.empty()) return result;
  std::sort(samples_ns.begin(), samples_ns.end());
  auto at = [&](double q) {
    const double rank = std::ceil(q * static_cast<double>(samples_ns.size()));
    std::size_t index =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    index = std::min(index, samples_ns.size() - 1);
    return samples_ns[index];
  };
  result.p50_ns = at(0.50);
  result.p90_ns = at(0.90);
  result.p99_ns = at(0.99);
  result.max_ns = samples_ns.back();
  return result;
}

// Percentiles from a (nanosecond-domain) histogram; same nearest-rank
// convention, quantized to the histogram's ~3% relative bucket width
// (max is exact).
inline LatencyPercentiles percentiles_of(const obs::LogHistogram& hist) {
  LatencyPercentiles result;
  result.samples = hist.count();
  if (result.samples == 0) return result;
  result.p50_ns = static_cast<double>(hist.quantile(0.50));
  result.p90_ns = static_cast<double>(hist.quantile(0.90));
  result.p99_ns = static_cast<double>(hist.quantile(0.99));
  result.max_ns = static_cast<double>(hist.max_value());
  return result;
}

// Run `cfg.repetitions` latency repetitions; `cfg.ops_per_thread` operations
// per thread per repetition, workload/key distribution as configured.
// A failed repetition (bad_alloc, a queue-reported error) is reported and
// skipped, mirroring run_throughput; callers check result.failed().
template <typename Factory>
LatencyResult run_latency(Factory&& make_queue, const BenchConfig& cfg) {
  LatencyResult result;

  for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
    const std::uint64_t seed = cfg.seed + 31337ULL * rep;
    try {
      auto queue = make_queue(cfg.threads, seed);
      prefill_queue(*queue, cfg, seed, nullptr);

      // Calibrate fast_timestamp ticks against wall time for this rep.
      const std::uint64_t tsc0 = fast_timestamp();
      Stopwatch calibration;

      // Tick-domain recordings, one histogram pair per thread (single
      // writer); scaled into the nanosecond accumulators after the join.
      std::vector<obs::LogHistogram> ins(cfg.threads);
      std::vector<obs::LogHistogram> del(cfg.threads);
      SpinBarrier barrier(cfg.threads);
      run_team(cfg.threads, [&](unsigned tid) {
        auto handle = queue->get_handle(tid);
        workloads::KeyGenerator gen(cfg.keys, seed, tid);
        workloads::OpChooser chooser(cfg.workload, tid, cfg.threads, seed,
                                     cfg.insert_fraction, cfg.batch_size,
                                     cfg.producer_fraction);
        auto& my_ins = ins[tid];
        auto& my_del = del[tid];
        std::uint64_t counter = 0;
        barrier.arrive_and_wait();
        for (std::uint64_t op = 0; op < cfg.ops_per_thread; ++op) {
          if (chooser.next_is_insert()) {
            const std::uint64_t key = gen.next();
            const std::uint64_t start = fast_timestamp();
            handle.insert(key, detail::item_id(tid, counter++));
            my_ins.record(fast_timestamp() - start);
            CPQ_TRACE_OP(op + 1, ::cpq::obs::TraceOp::kInsert, key);
          } else {
            std::uint64_t key = 0;
            std::uint64_t value;
            const std::uint64_t start = fast_timestamp();
            const bool ok = handle.delete_min(key, value);
            my_del.record(fast_timestamp() - start);
            if (ok) gen.observe_deleted(key);
            CPQ_TRACE_OP(op + 1,
                         ok ? ::cpq::obs::TraceOp::kDeleteHit
                            : ::cpq::obs::TraceOp::kDeleteEmpty,
                         key);
          }
        }
      }, cfg.pin_threads);

      const double ns_per_tick =
          static_cast<double>(calibration.elapsed_ns()) /
          static_cast<double>(fast_timestamp() - tsc0);
      for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        result.insert_ns.add_scaled(ins[tid], ns_per_tick);
        result.delete_ns.add_scaled(del[tid], ns_per_tick);
      }
      obs::MetricsRegistry::global().add_cell_ops(
          static_cast<std::uint64_t>(cfg.threads) * cfg.ops_per_thread);
      ++result.completed_reps;
    } catch (const std::exception& e) {
      ++result.failed_reps;
      std::fprintf(stderr,
                   "[cpq] %s: latency repetition %u/%u failed: %s\n",
                   cfg.label.empty() ? "queue" : cfg.label.c_str(), rep + 1,
                   cfg.repetitions, e.what());
    }
  }
  if (result.failed() && cfg.repetitions > 0) {
    std::fprintf(stderr, "[cpq] %s: every latency repetition failed\n",
                 cfg.label.empty() ? "queue" : cfg.label.c_str());
  }

  result.insert = percentiles_of(result.insert_ns);
  result.delete_min = percentiles_of(result.delete_ns);
  return result;
}

// Sorting phases (Larkin–Sen–Tarjan; paper §F "large batches"): all threads
// insert their share of cfg.prefill random items (phase 1, timed), then
// delete until the queue drains (phase 2, timed). Fixed work, not fixed
// time, so a fast queue cannot inflate its number on a drained queue.
struct SortResult {
  double insert_mops = 0.0;  // averaged over completed repetitions
  double delete_mops = 0.0;
  unsigned completed_reps = 0;
  unsigned failed_reps = 0;
  bool failed() const { return completed_reps == 0; }
};

// One repetition: {insert MOps/s, delete MOps/s}. A worker whose operation
// throws still crosses the barrier and ends its phases, so the team
// finishes; the first such error is rethrown once the team has joined.
template <typename Queue>
std::pair<double, double> sort_rep(Queue& queue, const BenchConfig& cfg,
                                   std::uint64_t seed) {
  const std::uint64_t per_thread =
      (cfg.prefill + cfg.threads - 1) / cfg.threads;
  const std::uint64_t total = per_thread * cfg.threads;

  // Each worker records its own phase-boundary timestamps; the phase
  // duration is max(end) - min(start) over the team. (A coordinator
  // thread reading the clock around barrier crossings can be descheduled
  // for a whole phase when threads outnumber cores, measuring ~0.)
  auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  struct PhaseStamp {
    std::int64_t insert_start, insert_end, delete_start, delete_end;
    std::exception_ptr error;
  };
  std::vector<CacheAligned<PhaseStamp>> stamps(cfg.threads);

  SpinBarrier barrier(cfg.threads);
  std::atomic<std::uint64_t> remaining{total};
  run_team(cfg.threads, [&](unsigned tid) {
    PhaseStamp& stamp = stamps[tid].value;
    auto handle = queue.get_handle(tid);
    workloads::KeyGenerator gen(cfg.keys, seed, tid);
    barrier.arrive_and_wait();
    stamp.insert_start = now_ns();
    try {
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        handle.insert(gen.next(), detail::item_id(tid, i));
      }
    } catch (...) {
      stamp.error = std::current_exception();
    }
    stamp.insert_end = now_ns();
    barrier.arrive_and_wait();
    stamp.delete_start = now_ns();
    std::uint64_t key;
    std::uint64_t value;
    unsigned misses = 0;
    try {
      while (remaining.load(std::memory_order_relaxed) > 0 &&
             misses < 1024) {
        if (handle.delete_min(key, value)) {
          remaining.fetch_sub(1, std::memory_order_relaxed);
          misses = 0;
        } else {
          ++misses;
        }
      }
    } catch (...) {
      if (!stamp.error) stamp.error = std::current_exception();
    }
    stamp.delete_end = now_ns();
  }, cfg.pin_threads);

  std::int64_t ins_start = stamps[0].value.insert_start;
  std::int64_t ins_end = stamps[0].value.insert_end;
  std::int64_t del_start = stamps[0].value.delete_start;
  std::int64_t del_end = stamps[0].value.delete_end;
  for (unsigned tid = 0; tid < cfg.threads; ++tid) {
    if (stamps[tid].value.error) {
      std::rethrow_exception(stamps[tid].value.error);
    }
    ins_start = std::min(ins_start, stamps[tid].value.insert_start);
    ins_end = std::max(ins_end, stamps[tid].value.insert_end);
    del_start = std::min(del_start, stamps[tid].value.delete_start);
    del_end = std::max(del_end, stamps[tid].value.delete_end);
  }
  return {static_cast<double>(total) /
              static_cast<double>(ins_end - ins_start) * 1e3,
          static_cast<double>(total) /
              static_cast<double>(del_end - del_start) * 1e3};
}

// A failed repetition (bad_alloc, a queue-reported error, in any worker) is
// reported and skipped, mirroring run_latency; callers check failed().
template <typename Factory>
SortResult run_sort_phases(Factory&& make_queue, const BenchConfig& cfg) {
  SortResult result;
  for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
    const std::uint64_t seed = cfg.seed + 7331ULL * rep;
    try {
      auto queue = make_queue(cfg.threads, seed);
      const auto [insert_mops, delete_mops] = sort_rep(*queue, cfg, seed);
      result.insert_mops += insert_mops;
      result.delete_mops += delete_mops;
      ++result.completed_reps;
    } catch (const std::exception& e) {
      ++result.failed_reps;
      std::fprintf(stderr, "[cpq] %s: sort repetition %u/%u failed: %s\n",
                   cfg.label.empty() ? "queue" : cfg.label.c_str(), rep + 1,
                   cfg.repetitions, e.what());
    }
  }
  if (result.failed()) {
    if (cfg.repetitions > 0) {
      std::fprintf(stderr, "[cpq] %s: every sort repetition failed\n",
                   cfg.label.empty() ? "queue" : cfg.label.c_str());
    }
  } else {
    result.insert_mops /= result.completed_reps;
    result.delete_mops /= result.completed_reps;
  }
  return result;
}

}  // namespace cpq::bench
