// The throughput and quality measurement harnesses (paper §2/§F).
//
// Throughput: prefill the queue, release P worker threads at a barrier,
// run the chosen workload/key-distribution mix for a fixed duration, and
// report operations per second (insertions + deletions; a deletion that
// finds the queue empty still counts as one operation, as in the paper's
// steady-state setup). Every repetition uses a fresh queue and a derived
// seed.
//
// Quality (rank error): identical setup but every thread performs a fixed
// number of operations and logs each with a fast timestamp. The logs are
// merged into one linear sequence and replayed through an order-statistic
// tree (seq/order_statistic_tree.hpp) to determine, for every deletion, the
// rank of the deleted item at its deletion point. Values carry unique item
// ids so the replay can delete exact items; equal keys are broken by id,
// which makes the measurement "pessimistic" for duplicate keys exactly as
// the paper describes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_framework/stats.hpp"
#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"
#include "validation/watchdog.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/hygiene.hpp"
#include "workloads/keyspace.hpp"
#include "workloads/shape.hpp"

namespace cpq::bench {

struct BenchConfig {
  unsigned threads = 1;
  workloads::Workload workload = workloads::Workload::kUniform;
  workloads::KeyConfig keys = workloads::KeyConfig::uniform(32);
  std::size_t prefill = 100'000;
  double duration_s = 0.1;            // throughput mode
  std::uint64_t ops_per_thread = 0;   // quality mode
  unsigned repetitions = 3;
  std::uint64_t seed = 42;
  bool pin_threads = true;
  double insert_fraction = 0.5;
  std::uint64_t batch_size = 1;  // for Workload::kBatch
  double producer_fraction = 0.5;  // for Workload::kPcSplit
  // Open-loop arrival pacing (workloads/arrivals.hpp); kClosed = the
  // paper's back-to-back issue model.
  workloads::ArrivalConfig arrivals;
  // Anti-artifact hygiene (workloads/hygiene.hpp): insert prefill items in
  // seeded-random order, and hold a randomized heap-layout perturbation
  // alive for each repetition.
  bool shuffle_prefill = false;
  bool perturb_layout = false;
  // Progress-watchdog deadline in seconds (src/validation/watchdog.hpp):
  // < 0 defers to CPQ_WATCHDOG_S (default 120), 0 disables supervision.
  double watchdog_s = -1.0;
  // Queue name for watchdog dumps and per-repetition failure reports
  // (filled in by the registry; empty for direct harness callers).
  std::string label;
};

struct ThroughputResult {
  Summary mops;                    // million operations per second
  std::vector<double> per_rep;     // raw MOps/s per repetition
  unsigned failed_reps = 0;        // repetitions that threw
  // Open-loop repetitions only (burst_* metric family): measured ON-time
  // fraction per repetition (averaged over threads) and OFF->ON burst
  // transitions per repetition. Empty under closed-loop arrivals.
  std::vector<double> on_fraction_per_rep;
  std::vector<double> bursts_per_rep;
  // True when no repetition completed: the zeroed Summary is then a failure
  // marker, not a measurement, and must not be reported as one.
  bool failed() const { return per_rep.empty(); }
};

// One logged operation for the quality benchmark.
struct OpLogEntry {
  std::uint64_t timestamp;
  std::uint64_t key;
  std::uint64_t id;    // unique item id (== the inserted value)
  bool is_insert;
};

struct QualityResult {
  Summary rank_error;          // over all logged deletions, all repetitions
  // Median rank error: robust against the replay-timestamp outliers that
  // oversubscribed machines produce (see EXPERIMENTS.md caveats).
  double median_rank_error = 0.0;
  std::uint64_t max_rank_error = 0;
  std::uint64_t deletions = 0;
  unsigned completed_reps = 0;
  unsigned failed_reps = 0;
  bool failed() const { return completed_reps == 0; }
};

// Replay engine (implemented in quality_replay.cpp): merges per-thread logs
// by timestamp and computes the rank error of every deletion. Rank error 0
// means the true minimum was deleted.
void replay_rank_errors(std::vector<std::vector<OpLogEntry>>& logs,
                        std::vector<double>& rank_errors_out,
                        std::uint64_t& max_out);

namespace detail {

inline std::uint64_t item_id(unsigned thread_id, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(thread_id + 1) << 40) | counter;
}

constexpr unsigned kPrefillThread = 0xFFFFF;  // id-space slot for prefill

}  // namespace detail

// Watchdog diagnostics callback that appends the metrics registry state
// (counter totals + per-thread sampled-operation rings) and, when armed,
// the live rank-error estimate to a stall dump. Always wired in: the dump
// itself is off the hot path, and when the CPQ_COUNT/CPQ_TRACE_OP hooks are
// compiled out it simply prints zeros.
inline validation::Watchdog::Diagnostics metrics_diagnostics() {
  return [](std::FILE* out) {
    obs::MetricsRegistry::global().dump(out);
    obs::RankEstimator::global().dump(out);
  };
}

// Prefill the queue with `cfg.prefill` items drawn from the configured key
// distribution (single-threaded, before the measurement starts). When `logs`
// is non-null the insertions are recorded for the quality replay.
template <typename Queue>
void prefill_queue(Queue& queue, const BenchConfig& cfg, std::uint64_t seed,
                   std::vector<OpLogEntry>* log) {
  auto handle = queue.get_handle(0);
  workloads::KeyGenerator gen(cfg.keys, seed ^ 0x9e3779b9ULL,
                            detail::kPrefillThread);
  if (cfg.shuffle_prefill) {
    // Hygiene: generate first, insert in seeded-random order, so the queue
    // cannot inherit a conveniently ordered initial structure from the
    // generator (ascending/descending/hold produce near-sorted streams).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> items;
    items.reserve(cfg.prefill);
    for (std::size_t i = 0; i < cfg.prefill; ++i) {
      items.emplace_back(gen.next(),
                         detail::item_id(detail::kPrefillThread, i));
    }
    workloads::deterministic_shuffle(items, gen.rng());
    for (const auto& [key, id] : items) {
      handle.insert(key, id);
      if (log) log->push_back({fast_timestamp(), key, id, true});
    }
    return;
  }
  for (std::size_t i = 0; i < cfg.prefill; ++i) {
    const std::uint64_t key = gen.next();
    const std::uint64_t id = detail::item_id(detail::kPrefillThread, i);
    handle.insert(key, id);
    if (log) log->push_back({fast_timestamp(), key, id, true});
  }
}

// Run one timed throughput repetition. Returns MOps/s.
//
// Every worker ticks a heartbeat (one relaxed store to its own cache line
// per operation) that a progress watchdog samples: a queue that livelocks
// mid-repetition aborts the process with a per-thread diagnostic dump
// instead of hanging the benchmark forever (validation/watchdog.hpp).
// Per-repetition burst diagnostics, filled in under open-loop arrivals.
struct RepArrivalStats {
  double on_fraction = 0.0;    // mean over threads
  std::uint64_t bursts = 0;    // total OFF->ON transitions
  std::uint64_t arrivals = 0;  // total paced arrivals consumed
};

template <typename Queue>
double throughput_rep(Queue& queue, const BenchConfig& cfg,
                      std::uint64_t seed,
                      RepArrivalStats* arrival_stats = nullptr) {
  SpinBarrier barrier(cfg.threads + 1);
  std::atomic<bool> stop{false};
  std::vector<validation::WorkerProgress> progress(cfg.threads);
  std::vector<double> on_fraction(cfg.threads, 0.0);
  std::vector<std::uint64_t> bursts(cfg.threads, 0);
  std::vector<std::uint64_t> arrivals(cfg.threads, 0);
  validation::Watchdog watchdog(
      cfg.label.empty() ? "throughput" : cfg.label, progress.data(),
      cfg.threads, validation::watchdog_deadline(cfg.watchdog_s),
      metrics_diagnostics());

  std::vector<std::thread> team;
  team.reserve(cfg.threads);
  for (unsigned tid = 0; tid < cfg.threads; ++tid) {
    team.emplace_back([&, tid] {
      if (cfg.pin_threads) pin_to_core(tid);
      auto handle = queue.get_handle(tid);
      workloads::KeyGenerator gen(cfg.keys, seed, tid);
      workloads::OpChooser chooser(cfg.workload, tid, cfg.threads, seed,
                                   cfg.insert_fraction, cfg.batch_size,
                                   cfg.producer_fraction);
      std::optional<workloads::ArrivalProcess> arrival;
      if (cfg.arrivals.enabled()) {
        arrival.emplace(cfg.arrivals, seed, tid);
      }
      std::uint64_t ops = 0;
      std::uint64_t insert_counter = 0;
      barrier.arrive_and_wait();
      Stopwatch clock;
      while (!stop.load(std::memory_order_relaxed)) {
        if (arrival) {
          // Open-loop pacing: spin until this operation's scheduled arrival
          // time. A worker that falls behind sees arrival times in the past
          // and issues the backlog at full speed — open-loop lag, exactly
          // what the model intends (no pacing debt is forgiven).
          const double due_ns = arrival->next_arrival_ns();
          bool stopped = false;
          while (static_cast<double>(clock.elapsed_ns()) < due_ns) {
            if (stop.load(std::memory_order_relaxed)) {
              stopped = true;
              break;
            }
            cpu_relax();
          }
          if (stopped) break;
        }
        if (chooser.next_is_insert()) {
          const std::uint64_t key = gen.next();
          handle.insert(key, detail::item_id(tid, insert_counter++));
          progress[tid].tick(++ops, validation::LastOp::kInsert);
          CPQ_TRACE_OP(ops, ::cpq::obs::TraceOp::kInsert, key);
        } else {
          std::uint64_t key = 0;
          std::uint64_t value;
          const bool hit = handle.delete_min(key, value);
          if (hit) gen.observe_deleted(key);
          progress[tid].tick(++ops, hit ? validation::LastOp::kDeleteHit
                                        : validation::LastOp::kDeleteEmpty);
          CPQ_TRACE_OP(ops,
                       hit ? ::cpq::obs::TraceOp::kDeleteHit
                           : ::cpq::obs::TraceOp::kDeleteEmpty,
                       key);
        }
      }
      if (arrival) {
        on_fraction[tid] = arrival->on_time_fraction();
        bursts[tid] = arrival->bursts();
        arrivals[tid] = arrival->arrivals();
      }
    });
  }

  barrier.arrive_and_wait();
  Stopwatch watch;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(cfg.duration_s));
  stop.store(true, std::memory_order_release);
  const double elapsed = watch.elapsed_seconds();
  for (auto& t : team) t.join();
  watchdog.stop();

  std::uint64_t total = 0;
  for (const auto& p : progress) {
    total += p.ops.load(std::memory_order_relaxed);
  }
  if (arrival_stats != nullptr && cfg.arrivals.enabled()) {
    double on_sum = 0.0;
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
      on_sum += on_fraction[tid];
      arrival_stats->bursts += bursts[tid];
      arrival_stats->arrivals += arrivals[tid];
    }
    arrival_stats->on_fraction = on_sum / cfg.threads;
  }
  // Denominator for per-op hardware-counter metrics (bench_common.hpp);
  // recorded once per repetition, after all workers joined.
  obs::MetricsRegistry::global().add_cell_ops(total);
  return static_cast<double>(total) / elapsed / 1e6;
}

// Full throughput measurement: `cfg.repetitions` fresh queues.
// `make_queue(threads, seed)` constructs the queue under test.
template <typename Factory>
ThroughputResult run_throughput(Factory&& make_queue, const BenchConfig& cfg) {
  ThroughputResult result;
  for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
    const std::uint64_t seed = cfg.seed + 7919ULL * rep;
    // One failed repetition (bad_alloc, a queue-reported error) is reported
    // and skipped rather than taking down the whole sweep; the summary is
    // computed over the repetitions that completed.
    try {
      // Held for the whole repetition: randomizes the allocator state the
      // queue is built into, turning layout accidents into per-rep noise.
      workloads::LayoutPerturbation perturb(cfg.perturb_layout, seed);
      auto queue = make_queue(cfg.threads, seed);
      prefill_queue(*queue, cfg, seed, nullptr);
      RepArrivalStats arrival_stats;
      result.per_rep.push_back(
          throughput_rep(*queue, cfg, seed, &arrival_stats));
      if (cfg.arrivals.enabled()) {
        result.on_fraction_per_rep.push_back(arrival_stats.on_fraction);
        result.bursts_per_rep.push_back(
            static_cast<double>(arrival_stats.bursts));
      }
    } catch (const std::exception& e) {
      ++result.failed_reps;
      std::fprintf(stderr,
                   "[cpq] %s: throughput repetition %u/%u failed: %s\n",
                   cfg.label.empty() ? "queue" : cfg.label.c_str(), rep + 1,
                   cfg.repetitions, e.what());
    }
  }
  if (result.per_rep.empty() && cfg.repetitions > 0) {
    std::fprintf(stderr, "[cpq] %s: every throughput repetition failed\n",
                 cfg.label.empty() ? "queue" : cfg.label.c_str());
  }
  result.mops = summarize(result.per_rep);
  return result;
}

// Run one quality repetition, filling per-thread logs. Heartbeats and
// watchdog supervision mirror throughput_rep.
template <typename Queue>
void quality_rep(Queue& queue, const BenchConfig& cfg, std::uint64_t seed,
                 std::vector<std::vector<OpLogEntry>>& logs) {
  logs.assign(cfg.threads + 1, {});
  prefill_queue(queue, cfg, seed, &logs[cfg.threads]);

  std::vector<validation::WorkerProgress> progress(cfg.threads);
  validation::Watchdog watchdog(
      cfg.label.empty() ? "quality" : cfg.label, progress.data(),
      cfg.threads, validation::watchdog_deadline(cfg.watchdog_s),
      metrics_diagnostics());

  SpinBarrier barrier(cfg.threads);
  std::vector<std::thread> team;
  team.reserve(cfg.threads);
  for (unsigned tid = 0; tid < cfg.threads; ++tid) {
    team.emplace_back([&, tid] {
      if (cfg.pin_threads) pin_to_core(tid);
      auto handle = queue.get_handle(tid);
      workloads::KeyGenerator gen(cfg.keys, seed, tid);
      workloads::OpChooser chooser(cfg.workload, tid, cfg.threads, seed,
                                   cfg.insert_fraction, cfg.batch_size,
                                   cfg.producer_fraction);
      auto& log = logs[tid];
      log.reserve(cfg.ops_per_thread);
      std::uint64_t insert_counter = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t op = 0; op < cfg.ops_per_thread; ++op) {
        if (chooser.next_is_insert()) {
          const std::uint64_t key = gen.next();
          const std::uint64_t id = detail::item_id(tid, insert_counter++);
          handle.insert(key, id);
          log.push_back({fast_timestamp(), key, id, true});
          progress[tid].tick(op + 1, validation::LastOp::kInsert);
          CPQ_TRACE_OP(op + 1, ::cpq::obs::TraceOp::kInsert, key);
        } else {
          std::uint64_t key = 0;
          std::uint64_t id;
          const bool hit = handle.delete_min(key, id);
          if (hit) {
            log.push_back({fast_timestamp(), key, id, false});
            gen.observe_deleted(key);
          }
          progress[tid].tick(op + 1, hit ? validation::LastOp::kDeleteHit
                                         : validation::LastOp::kDeleteEmpty);
          CPQ_TRACE_OP(op + 1,
                       hit ? ::cpq::obs::TraceOp::kDeleteHit
                           : ::cpq::obs::TraceOp::kDeleteEmpty,
                       key);
        }
      }
    });
  }
  for (auto& t : team) t.join();
  watchdog.stop();
  obs::MetricsRegistry::global().add_cell_ops(
      static_cast<std::uint64_t>(cfg.threads) * cfg.ops_per_thread);
}

template <typename Factory>
QualityResult run_quality(Factory&& make_queue, const BenchConfig& cfg) {
  QualityResult result;
  std::vector<double> all_errors;
  for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
    const std::uint64_t seed = cfg.seed + 104729ULL * rep;
    try {
      workloads::LayoutPerturbation perturb(cfg.perturb_layout, seed);
      auto queue = make_queue(cfg.threads, seed);
      std::vector<std::vector<OpLogEntry>> logs;
      quality_rep(*queue, cfg, seed, logs);
      std::uint64_t max_err = 0;
      replay_rank_errors(logs, all_errors, max_err);
      if (max_err > result.max_rank_error) result.max_rank_error = max_err;
      ++result.completed_reps;
    } catch (const std::exception& e) {
      ++result.failed_reps;
      std::fprintf(stderr,
                   "[cpq] %s: quality repetition %u/%u failed: %s\n",
                   cfg.label.empty() ? "queue" : cfg.label.c_str(), rep + 1,
                   cfg.repetitions, e.what());
    }
  }
  result.deletions = all_errors.size();
  if (!all_errors.empty()) {
    const std::size_t mid = all_errors.size() / 2;
    std::nth_element(all_errors.begin(), all_errors.begin() + mid,
                     all_errors.end());
    result.median_rank_error = all_errors[mid];
  }
  result.rank_error = summarize(all_errors);
  return result;
}

}  // namespace cpq::bench
