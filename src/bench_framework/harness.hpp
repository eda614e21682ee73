// The closed-loop measurement harness (paper §2/§F) behind the throughput,
// quality, latency and sort modes: one worker loop, one supervised team and
// one repetition loop.
//
// A repetition builds a fresh queue, prefills it from the configured key
// distribution, and releases cfg.threads pinned workers at one barrier.
// Every worker draws its operations from the workload's OpChooser and its
// keys from a KeyGenerator, optionally paced by an ArrivalProcess, and ticks
// a heartbeat per operation that a progress watchdog samples: a queue that
// livelocks mid-repetition aborts the process with a per-thread diagnostic
// dump instead of hanging the benchmark forever (validation/watchdog.hpp).
// A mode chooses only what a worker records per operation and when it
// stops:
//
//   * throughput records nothing and stops when the cfg.duration_s window
//     closes; it reports operations per second (insertions + deletions; a
//     deletion that finds the queue empty still counts as one operation, as
//     in the paper's steady-state setup).
//   * quality logs every insertion and every successful deletion, stamped
//     at return, and stops after cfg.ops_per_thread operations. The logs
//     are merged into one linear sequence and replayed through an
//     order-statistic tree (seq/order_statistic_tree.hpp) to determine, for
//     every deletion, the rank of the deleted item at its deletion point.
//     Values carry unique item ids so the replay can delete exact items;
//     equal keys are broken by id, which makes the measurement
//     "pessimistic" for duplicate keys exactly as the paper describes.
//   * latency times every operation in fast_timestamp() ticks into
//     per-thread log-linear histograms (O(1) memory at any operation
//     count), converted to ns through the process-wide TscClock, and stops
//     after cfg.ops_per_thread operations.
//
// Sort (Larkin–Sen–Tarjan phases) keeps its own body, two timed phases of
// fixed work, on the same team and watchdog. Every repetition uses a fresh
// queue and its own seed (rep_seed).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_framework/latency.hpp"
#include "bench_framework/stats.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/clock.hpp"
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
  std::uint64_t ops_per_thread = 0;   // quality and latency modes
  unsigned repetitions = 3;
  std::uint64_t seed = 42;
  bool pin_threads = true;
  double insert_fraction = 0.5;
  std::uint64_t batch_size = 1;  // for Workload::kBatch
  double producer_fraction = 0.5;  // for Workload::kPcSplit
  // Open-loop arrival pacing (workloads/arrivals.hpp); kClosed = the
  // paper's back-to-back issue model.
  workloads::ArrivalConfig arrivals;
  // Anti-artifact hygiene (workloads/hygiene.hpp): hold a randomized
  // heap-layout perturbation alive for each repetition, and insert the
  // prefill items in seeded-random order.
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

struct SortResult {
  double insert_mops = 0.0;  // averaged over completed repetitions
  double delete_mops = 0.0;
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

// The median of `values` (the upper one for an even count), 0 when empty.
// Reorders `values`.
inline double median_in_place(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + values.size() / 2;
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

namespace detail {

inline std::uint64_t item_id(unsigned thread_id, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(thread_id + 1) << 40) | counter;
}

constexpr unsigned kPrefillThread = 0xFFFFF;  // id-space slot for prefill

// Hold a worker until `due_ns` on its stopwatch. False when the run stopped
// first; sleeps only while the due time is more than 100 µs away, in slices
// of at most 1 ms so the stop is seen.
inline bool wait_until(const Stopwatch& watch, double due_ns,
                       const std::atomic<bool>& stop) {
  for (;;) {
    const double wait_ns = due_ns - static_cast<double>(watch.elapsed_ns());
    if (wait_ns <= 0.0) return true;
    if (stop.load(std::memory_order_relaxed)) return false;
    if (wait_ns > 100'000.0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::min(wait_ns, 1e6))));
    } else {
      cpu_relax();
    }
  }
}

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

// Insert `count` items drawn from `keys` through a handle of its own, before
// any worker starts (a service handle flushes as it goes out of scope).
// `shuffle` inserts them in seeded-random order, so the queue cannot inherit
// a conveniently ordered initial structure from the generator
// (ascending/descending/hold produce near-sorted streams). When `log` is
// non-null the insertions are recorded for a rank replay.
template <typename Queue>
void prefill_queue(Queue& queue, const workloads::KeyConfig& keys,
                   std::size_t count, std::uint64_t seed, bool shuffle,
                   std::vector<OpLogEntry>* log) {
  auto handle = queue.get_handle(0);
  workloads::KeyGenerator gen(keys, seed ^ 0x9e3779b9ULL,
                              detail::kPrefillThread);
  const auto insert = [&](std::uint64_t key, std::uint64_t id) {
    handle.insert(key, id);
    if (log) log->push_back({fast_timestamp(), key, id, true});
  };
  if (!shuffle) {
    for (std::size_t i = 0; i < count; ++i) {
      insert(gen.next(), detail::item_id(detail::kPrefillThread, i));
    }
    return;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    items.emplace_back(gen.next(),
                       detail::item_id(detail::kPrefillThread, i));
  }
  workloads::deterministic_shuffle(items, gen.rng());
  for (const auto& [key, id] : items) insert(key, id);
}

namespace detail {

// What a worker records around each operation: begin() runs just before the
// queue call, inserted() and deleted() just after it. Throughput and sort
// record nothing.
struct NoRecord {
  std::uint64_t begin() const { return 0; }
  void inserted(std::uint64_t, std::uint64_t, std::uint64_t) {}
  void deleted(std::uint64_t, bool, std::uint64_t, std::uint64_t) {}
};

// Quality: every insertion and successful deletion, stamped at return.
struct LogRecord {
  std::vector<OpLogEntry>& log;
  std::uint64_t begin() const { return 0; }
  void inserted(std::uint64_t, std::uint64_t key, std::uint64_t id) {
    log.push_back({fast_timestamp(), key, id, true});
  }
  void deleted(std::uint64_t, bool hit, std::uint64_t key, std::uint64_t id) {
    if (hit) log.push_back({fast_timestamp(), key, id, false});
  }
};

// Latency: the ticks every operation took, one histogram per operation type.
struct TickRecord {
  obs::LogHistogram& inserts;
  obs::LogHistogram& deletes;
  std::uint64_t begin() const { return fast_timestamp(); }
  void inserted(std::uint64_t start, std::uint64_t, std::uint64_t) {
    inserts.record(fast_timestamp() - start);
  }
  void deleted(std::uint64_t start, bool, std::uint64_t, std::uint64_t) {
    deletes.record(fast_timestamp() - start);
  }
};

// One worker's operations: the queue call between its mode's record hooks,
// then the heartbeat (one relaxed store to the worker's own cache line) and
// the CPQ_TRACE_OP seam, which samples one operation in 64 into the trace
// rings and, when it is armed, the live rank estimator.
template <typename Handle, typename Record>
struct Worker {
  Handle& handle;
  Record record;
  validation::WorkerProgress& progress;
  std::uint64_t ops = 0;

  void insert(std::uint64_t key, std::uint64_t id) {
    const std::uint64_t start = record.begin();
    handle.insert(key, id);
    record.inserted(start, key, id);
    progress.tick(++ops, validation::LastOp::kInsert);
    CPQ_TRACE_OP(ops, ::cpq::obs::TraceOp::kInsert, key);
  }

  bool delete_min(std::uint64_t& key) {
    std::uint64_t id = 0;
    key = 0;
    const std::uint64_t start = record.begin();
    const bool hit = handle.delete_min(key, id);
    record.deleted(start, hit, key, id);
    progress.tick(++ops, hit ? validation::LastOp::kDeleteHit
                             : validation::LastOp::kDeleteEmpty);
    CPQ_TRACE_OP(ops,
                 hit ? ::cpq::obs::TraceOp::kDeleteHit
                     : ::cpq::obs::TraceOp::kDeleteEmpty,
                 key);
    return hit;
  }
};

// Run body(tid, progress, start) on cfg.threads threads (pinned when
// cfg.pin_threads) under the progress watchdog, which names cfg.label (or
// `mode`) in its dump. Each body crosses `start` once it is set up; the
// calling thread crosses it too and then runs control() before joining.
// Returns the operations the workers ticked, which also become the cell's
// denominator for per-op hardware-counter metrics.
template <typename Body, typename Control>
std::uint64_t supervised_team(const BenchConfig& cfg, const char* mode,
                              Body&& body, Control&& control) {
  std::vector<validation::WorkerProgress> progress(cfg.threads);
  validation::Watchdog watchdog(
      cfg.label.empty() ? mode : cfg.label, progress.data(), cfg.threads,
      validation::watchdog_deadline(cfg.watchdog_s), metrics_diagnostics());
  SpinBarrier start(cfg.threads + 1);
  std::vector<std::thread> team;
  team.reserve(cfg.threads);
  for (unsigned tid = 0; tid < cfg.threads; ++tid) {
    team.emplace_back([&, tid] {
      if (cfg.pin_threads) pin_to_core(tid);
      body(tid, progress[tid], start);
    });
  }
  start.arrive_and_wait();
  control();
  for (auto& t : team) t.join();
  watchdog.stop();
  std::uint64_t ops = 0;
  for (const auto& p : progress) ops += p.ops.load(std::memory_order_relaxed);
  obs::MetricsRegistry::global().add_cell_ops(ops);
  return ops;
}

struct RepRun {
  std::uint64_t ops = 0;
  double elapsed_s = 0.0;  // timed repetitions: release to stop
  // Under arrival pacing: the measured ON-time fraction (mean over
  // workers) and the OFF->ON burst transitions (total).
  double on_fraction = 0.0;
  std::uint64_t bursts = 0;
};

// One closed-loop repetition (see the top of this file): the prefill, then
// the workers issue the configured mix until the window closes (kTimed) or
// each has issued cfg.ops_per_thread operations. make_record(tid) builds a
// worker's recorder on the worker's own thread; `prefill_log` receives the
// prefill's insertions.
template <bool kTimed, typename Queue, typename MakeRecord>
RepRun closed_loop_rep(Queue& queue, const BenchConfig& cfg,
                       std::uint64_t seed, const char* mode,
                       MakeRecord&& make_record,
                       std::vector<OpLogEntry>* prefill_log = nullptr) {
  prefill_queue(queue, cfg.keys, cfg.prefill, seed, cfg.perturb_layout,
                prefill_log);
  RepRun run;
  std::atomic<bool> stop{false};
  std::vector<double> on_fraction(cfg.threads, 0.0);
  std::vector<std::uint64_t> bursts(cfg.threads, 0);
  run.ops = supervised_team(
      cfg, mode,
      [&](unsigned tid, validation::WorkerProgress& progress,
          SpinBarrier& start) {
        // Cache-line aligned: a handle that straddles a line boundary costs
        // every operation one more line, and where the frame puts it would
        // otherwise move with the code around it.
        alignas(kCacheLineSize) auto handle = queue.get_handle(tid);
        Worker worker{handle, make_record(tid), progress};
        workloads::KeyGenerator gen(cfg.keys, seed, tid);
        workloads::OpChooser chooser(cfg.workload, tid, cfg.threads, seed,
                                     cfg.insert_fraction, cfg.batch_size,
                                     cfg.producer_fraction);
        std::optional<workloads::ArrivalProcess> arrival;
        if (cfg.arrivals.enabled()) arrival.emplace(cfg.arrivals, seed, tid);
        std::uint64_t inserted = 0;
        start.arrive_and_wait();
        Stopwatch watch;
        while (kTimed ? !stop.load(std::memory_order_relaxed)
                      : worker.ops < cfg.ops_per_thread) {
          // Open-loop pacing: a worker that falls behind sees due times in
          // the past and issues the backlog at full speed — open-loop lag,
          // exactly what the model intends (no pacing debt is forgiven).
          if (arrival &&
              !detail::wait_until(watch, arrival->next_arrival_ns(), stop)) {
            break;
          }
          if (chooser.next_is_insert()) {
            worker.insert(gen.next(), detail::item_id(tid, inserted++));
          } else {
            std::uint64_t key;
            if (worker.delete_min(key)) gen.observe_deleted(key);
          }
        }
        if (arrival) {
          on_fraction[tid] = arrival->on_time_fraction();
          bursts[tid] = arrival->bursts();
        }
      },
      [&] {
        if (!kTimed) return;
        Stopwatch watch;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg.duration_s));
        stop.store(true, std::memory_order_release);
        run.elapsed_s = watch.elapsed_seconds();
      });
  for (unsigned tid = 0; tid < cfg.threads; ++tid) {
    run.on_fraction += on_fraction[tid];
    run.bursts += bursts[tid];
  }
  run.on_fraction /= cfg.threads;
  return run;
}

}  // namespace detail

// ---- the modes ------------------------------------------------------------
//
// A mode runs one repetition on a fresh queue (rep) and summarizes the
// completed ones into its result (finish); run_closed_loop below drives
// it and counts the failed ones into result.failed_reps.

struct ThroughputMode {
  static constexpr const char* kName = "throughput";
  ThroughputResult result;

  template <typename Queue>
  void rep(Queue& queue, const BenchConfig& cfg, std::uint64_t seed) {
    const detail::RepRun run = detail::closed_loop_rep<true>(
        queue, cfg, seed, kName, [](unsigned) { return detail::NoRecord{}; });
    result.per_rep.push_back(static_cast<double>(run.ops) / run.elapsed_s /
                             1e6);
    if (cfg.arrivals.enabled()) {
      result.on_fraction_per_rep.push_back(run.on_fraction);
      result.bursts_per_rep.push_back(static_cast<double>(run.bursts));
    }
  }
  ThroughputResult finish() {
    result.mops = summarize(result.per_rep);
    return std::move(result);
  }
};

struct QualityMode {
  static constexpr const char* kName = "quality";
  QualityResult result;
  std::vector<double> errors;  // every repetition's, in replay order

  template <typename Queue>
  void rep(Queue& queue, const BenchConfig& cfg, std::uint64_t seed) {
    std::vector<std::vector<OpLogEntry>> logs(cfg.threads + 1);
    detail::closed_loop_rep<false>(
        queue, cfg, seed, kName,
        [&](unsigned tid) {
          logs[tid].reserve(cfg.ops_per_thread);
          return detail::LogRecord{logs[tid]};
        },
        &logs[cfg.threads]);
    std::uint64_t max_err = 0;
    replay_rank_errors(logs, errors, max_err);
    result.max_rank_error = std::max(result.max_rank_error, max_err);
    ++result.completed_reps;
  }
  QualityResult finish() {
    result.deletions = errors.size();
    result.median_rank_error = median_in_place(errors);
    result.rank_error = summarize(errors);
    return std::move(result);
  }
};

struct LatencyMode {
  static constexpr const char* kName = "latency";
  LatencyResult result;

  template <typename Queue>
  void rep(Queue& queue, const BenchConfig& cfg, std::uint64_t seed) {
    // Tick-domain recordings, one histogram pair per thread (single
    // writer); scaled into the nanosecond accumulators after the join.
    std::vector<obs::LogHistogram> inserts(cfg.threads);
    std::vector<obs::LogHistogram> deletes(cfg.threads);
    detail::closed_loop_rep<false>(
        queue, cfg, seed, kName, [&](unsigned tid) {
          return detail::TickRecord{inserts[tid], deletes[tid]};
        });
    const double ns_per_tick = tsc_clock().ns_per_tick();
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
      result.insert_ns.add_scaled(inserts[tid], ns_per_tick);
      result.delete_ns.add_scaled(deletes[tid], ns_per_tick);
    }
    ++result.completed_reps;
  }
  LatencyResult finish() {
    result.insert = percentiles_of(result.insert_ns);
    result.delete_min = percentiles_of(result.delete_ns);
    return std::move(result);
  }
};

// Sorting phases (Larkin–Sen–Tarjan; paper §F "large batches"): the team
// inserts cfg.prefill random items, each thread its share (phase 1, timed),
// then deletes until the queue drains (phase 2, timed). Fixed work, not
// fixed time, so a fast queue cannot inflate its number on a drained queue.
struct SortMode {
  static constexpr const char* kName = "sort";
  SortResult result;

  // Each worker stamps its own phase boundaries and a phase lasts max(end)
  // - min(start) over the team (a coordinator reading the clock around
  // barrier crossings can be descheduled for a whole phase when threads
  // outnumber cores, measuring ~0). A worker whose operation throws still
  // crosses the barrier and ends its phases, so the team finishes; the
  // first such error is rethrown once the team has joined.
  template <typename Queue>
  void rep(Queue& queue, const BenchConfig& cfg, std::uint64_t seed) {
    const std::uint64_t per_thread =
        (cfg.prefill + cfg.threads - 1) / cfg.threads;
    const std::uint64_t total = per_thread * cfg.threads;
    struct PhaseStamp {
      std::uint64_t insert_start, insert_end, delete_start, delete_end;
      std::exception_ptr error;
    };
    std::vector<CacheAligned<PhaseStamp>> stamps(cfg.threads);
    SpinBarrier phase(cfg.threads);
    std::atomic<std::uint64_t> remaining{total};
    detail::supervised_team(
        cfg, kName,
        [&](unsigned tid, validation::WorkerProgress& progress,
            SpinBarrier& start) {
          PhaseStamp& stamp = stamps[tid].value;
          alignas(kCacheLineSize) auto handle = queue.get_handle(tid);
          detail::Worker worker{handle, detail::NoRecord{}, progress};
          workloads::KeyGenerator gen(cfg.keys, seed, tid);
          start.arrive_and_wait();
          stamp.insert_start = monotonic_ns();
          try {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
              worker.insert(gen.next(), detail::item_id(tid, i));
            }
          } catch (...) {
            stamp.error = std::current_exception();
          }
          stamp.insert_end = monotonic_ns();
          phase.arrive_and_wait();
          stamp.delete_start = monotonic_ns();
          std::uint64_t key;
          unsigned misses = 0;
          try {
            while (remaining.load(std::memory_order_relaxed) > 0 &&
                   misses < 1024) {
              if (worker.delete_min(key)) {
                remaining.fetch_sub(1, std::memory_order_relaxed);
                misses = 0;
              } else {
                ++misses;
              }
            }
          } catch (...) {
            if (!stamp.error) stamp.error = std::current_exception();
          }
          stamp.delete_end = monotonic_ns();
        },
        [] {});

    PhaseStamp span = *stamps[0];
    for (const auto& slot : stamps) {
      const PhaseStamp& stamp = *slot;
      if (stamp.error) std::rethrow_exception(stamp.error);
      span.insert_start = std::min(span.insert_start, stamp.insert_start);
      span.insert_end = std::max(span.insert_end, stamp.insert_end);
      span.delete_start = std::min(span.delete_start, stamp.delete_start);
      span.delete_end = std::max(span.delete_end, stamp.delete_end);
    }
    result.insert_mops += static_cast<double>(total) /
                          static_cast<double>(span.insert_end -
                                              span.insert_start) * 1e3;
    result.delete_mops += static_cast<double>(total) /
                          static_cast<double>(span.delete_end -
                                              span.delete_start) * 1e3;
    ++result.completed_reps;
  }
  SortResult finish() {
    if (!result.failed()) {
      result.insert_mops /= result.completed_reps;
      result.delete_mops /= result.completed_reps;
    }
    return result;
  }
};

// Repetition r runs on this seed; rep 0 on the configured seed itself.
inline std::uint64_t rep_seed(std::uint64_t seed, unsigned rep) {
  return seed + 7919ULL * rep;
}

// Run cfg.repetitions repetitions of `Mode` and summarize them. Each one
// builds a fresh queue with make_queue(threads, seed, cfg) on its own
// rep_seed, inside a layout perturbation when cfg.perturb_layout is set (it
// randomizes the allocator state the queue is built into, turning layout
// accidents into per-rep noise). A repetition that throws (bad_alloc, a
// queue-reported error) is reported and skipped rather than taking down the
// whole sweep; callers check the result's failed().
template <typename Mode, typename Factory>
auto run_closed_loop(Factory&& make_queue, const BenchConfig& cfg) {
  const char* label = cfg.label.empty() ? "queue" : cfg.label.c_str();
  Mode mode;
  for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
    const std::uint64_t seed = rep_seed(cfg.seed, rep);
    try {
      workloads::LayoutPerturbation perturb(cfg.perturb_layout, seed);
      auto queue = make_queue(cfg.threads, seed, cfg);
      mode.rep(*queue, cfg, seed);
    } catch (const std::exception& e) {
      ++mode.result.failed_reps;
      std::fprintf(stderr, "[cpq] %s: %s repetition %u/%u failed: %s\n",
                   label, Mode::kName, rep + 1, cfg.repetitions, e.what());
    }
  }
  if (cfg.repetitions > 0 && mode.result.failed_reps == cfg.repetitions) {
    std::fprintf(stderr, "[cpq] %s: every %s repetition failed\n", label,
                 Mode::kName);
  }
  return mode.finish();
}

}  // namespace cpq::bench
