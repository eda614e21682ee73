// The open-loop driver behind every run of service traffic: cpq_bench_cli
// --mode=service (service/service_bench.hpp: raw queue handles or a
// PriorityService, either one optionally inside a CheckedQueue) and the
// chaos campaigns (validation/chaos_campaign.hpp).
//
// The paper's harness is closed-loop: every worker issues its next operation
// the moment the previous one returns, so the offered load adapts to the
// queue under test. A service faces the opposite regime — tasks arrive when
// clients send them, not when the queue is ready — so here producers submit
// on the schedule of a workloads::ArrivalProcess (closed = back to back, the
// saturation bound) and consumers pop continuously:
//
//   * producers draw keys from the KeyConfig and ids from the harness
//     convention (bench::detail::item_id). They submit through try_submit
//     when the engine has one (a PriorityService, or a CheckedQueue of one),
//     so the admission policy acts, and through insert otherwise. A
//     submission that throws (an injected fault) is counted as a submit
//     fault, never as accepted; a pop that throws pops nothing.
//   * pacing spins to each due time and sleeps only while the next arrival
//     is more than 100 µs away.
//   * every accepted submission and every delivery is recorded (tick, key,
//     id); callers derive rank error, sojourn and per-window figures from
//     these records after the run (for_each_sojourn below).
//   * the prefill is inserted before any worker starts, at most
//     service.max_in_flight items when that bounds the window: no consumer
//     could release a slot yet.
//   * a progress watchdog supervises every worker; a stall dump carries the
//     service's counters (when there is a service), the metrics registry and
//     the rank estimator. While the telemetry plane samples, the worker
//     totals, the service's gauges, delete latency and sojourn stamps feed
//     it. Accepted submissions and deliveries pass the 1-in-64 trace seam
//     (CPQ_TRACE_OP), which also feeds the rank estimator when it is armed.
//   * the calling thread runs `control` between the release and the stop (a
//     sleep of duration_s, or a chaos schedule), then closes a closable
//     engine, waking producers parked on a full window, and joins.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_framework/harness.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/clock.hpp"
#include "platform/thread_util.hpp"
#include "platform/timing.hpp"
#include "service/priority_service.hpp"
#include "validation/watchdog.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/keyspace.hpp"

namespace cpq::service {

struct ServiceBenchConfig {
  unsigned producers = 2;
  unsigned consumers = 2;
  double duration_s = 0.1;
  // Per-producer arrival process (workloads/arrivals.hpp); closed, the
  // default, submits back to back: the saturation upper bound.
  workloads::ArrivalConfig arrivals;
  // Capped at service.max_in_flight when that is set (see above).
  std::size_t prefill = 0;
  workloads::KeyConfig keys = workloads::KeyConfig::uniform(32);
  ServiceConfig service;
  // Wrap the engine in validation::CheckedQueue and reconcile at the end
  // (combine with a CPQ_FAULT_INJECTION build for torture coverage).
  bool checked = false;
  std::uint64_t seed = 42;
  bool pin_threads = true;
  double watchdog_s = -1.0;
  std::string label;
};

// What one run leaves for its caller to score.
struct OpenLoopRun {
  // Accepted submissions and deliveries per worker (producers first, then
  // consumers), then the prefill's; timestamps in fast_timestamp() ticks.
  std::vector<std::vector<bench::OpLogEntry>> logs;
  std::uint64_t start_tick = 0;  // the workers' release
  double elapsed_s = 0.0;        // release to stop
  std::uint64_t submitted = 0;   // accepted worker submissions
  std::uint64_t delivered = 0;
  std::uint64_t submit_faults = 0;  // submissions that threw
  obs::LogHistogram delete_ns;      // successful pops only
  // Measured ON-time fraction (mean over producers) and OFF->ON bursts;
  // left at 0 without arrival pacing.
  double burst_on_fraction = 0.0;
  std::uint64_t bursts = 0;
};

namespace detail {

// Stands in for the service behind a raw queue: nothing to dump or gauge.
struct NoService {
  void dump_stats(std::FILE*) const {}
  template <typename GaugeSetT>
  void fill_gauges(GaugeSetT&) const {}
};

// The PriorityService an engine is, or wraps in a CheckedQueue; null for a
// raw queue.
template <typename Engine>
auto* service_of(Engine& engine) {
  if constexpr (requires { engine.inner().dump_stats(stderr); }) {
    return &engine.inner();
  } else if constexpr (requires { engine.dump_stats(stderr); }) {
    return &engine;
  } else {
    return static_cast<NoService*>(nullptr);
  }
}

template <typename Handle>
bool submit(Handle& handle, std::uint64_t key, std::uint64_t id,
            std::uint64_t& faults) {
  try {
    if constexpr (requires { handle.try_submit(key, id); }) {
      return handle.try_submit(key, id);
    } else {
      handle.insert(key, id);
      return true;
    }
  } catch (const std::exception&) {
    ++faults;
    return false;
  }
}

// Hold a producer until `due_ns` on its stopwatch. False when the run
// stopped first; sleeps come in slices of at most 1 ms so the stop is seen.
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

// Drive `engine` (anything with get_handle(tid) -> insert/delete_min) with
// cfg.producers producers and cfg.consumers consumers. `control()` runs on
// the calling thread while the workers run; `idle()` runs on a consumer
// whose pop found nothing.
template <typename Engine, typename Control, typename Idle>
OpenLoopRun run_open_loop(Engine& engine, const ServiceBenchConfig& cfg,
                          Control&& control, Idle&& idle) {
  const unsigned threads = cfg.producers + cfg.consumers;
  OpenLoopRun run;
  run.logs.assign(threads + 1, {});

  {  // Prefill through a scoped handle (service handles flush on exit).
    auto handle = engine.get_handle(0);
    workloads::KeyGenerator gen(cfg.keys, cfg.seed ^ 0x9e3779b9ULL,
                                bench::detail::kPrefillThread);
    const std::size_t window = cfg.service.max_in_flight;
    const std::size_t prefill =
        window == 0 ? cfg.prefill : std::min(cfg.prefill, window);
    for (std::size_t i = 0; i < prefill; ++i) {
      const std::uint64_t key = gen.next();
      const std::uint64_t id =
          bench::detail::item_id(bench::detail::kPrefillThread, i);
      handle.insert(key, id);
      run.logs[threads].push_back({fast_timestamp(), key, id, true});
    }
  }

  auto* service = detail::service_of(engine);
  std::vector<validation::WorkerProgress> progress(threads);
  validation::Watchdog watchdog(
      cfg.label.empty() ? "service-bench" : cfg.label, progress.data(),
      threads, validation::watchdog_deadline(cfg.watchdog_s),
      [service, metrics = bench::metrics_diagnostics()](std::FILE* out) {
        if (service != nullptr) service->dump_stats(out);
        metrics(out);
      });

  // fast_timestamp ticks -> ns via the process-wide TscClock calibration
  // (shared with the telemetry sampler and the Chrome trace exporter, so
  // every artifact sits on the same timeline).
  const double ns_per_tick = tsc_clock().ns_per_tick();
  std::vector<obs::LogHistogram> delete_ticks(threads);
  std::vector<CacheAligned<std::uint64_t>> faults(threads);
  std::vector<CacheAligned<double>> on_fraction(threads);
  std::vector<CacheAligned<std::uint64_t>> bursts(threads);
  // Single-writer per-thread totals, atomic so the telemetry sampler may
  // read them live. The provider is registered after them so it
  // unregisters (and quiesces against the sampler) before they go.
  std::vector<CacheAligned<std::atomic<std::uint64_t>>> submitted(threads);
  std::vector<CacheAligned<std::atomic<std::uint64_t>>> delivered(threads);
  obs::ScopedTelemetryProvider gauges([&](obs::GaugeSet& g) {
    if (service != nullptr) service->fill_gauges(g);
    std::uint64_t sub = 0;
    std::uint64_t del = 0;
    for (unsigned tid = 0; tid < threads; ++tid) {
      sub += submitted[tid].value.load(std::memory_order_relaxed);
      del += delivered[tid].value.load(std::memory_order_relaxed);
    }
    g.set("submitted", static_cast<double>(sub));
    g.set("delivered", static_cast<double>(del));
  });

  SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> team;
  team.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    team.emplace_back([&, tid] {
      if (cfg.pin_threads) pin_to_core(tid);
      auto handle = engine.get_handle(tid);
      auto& log = run.logs[tid];
      // Hoisted: the plane starts before and stops after the run, so one
      // acquire load decides the whole loop. plane_on == false is the
      // default path and must stay free of telemetry work.
      obs::TelemetryPlane& plane = obs::TelemetryPlane::global();
      const bool plane_on = plane.active();
      if (tid < cfg.producers) {
        workloads::KeyGenerator gen(cfg.keys, cfg.seed, tid);
        std::optional<workloads::ArrivalProcess> arrival;
        if (cfg.arrivals.enabled()) {
          arrival.emplace(cfg.arrivals, cfg.seed ^ 0xa441a1, tid);
        }
        std::uint64_t attempts = 0;
        std::uint64_t accepted = 0;
        barrier.arrive_and_wait();
        Stopwatch watch;
        while (!stop.load(std::memory_order_relaxed)) {
          // Open loop: wait for the wall clock, never for the engine. A
          // producer that falls behind issues the backlog at full speed.
          if (arrival && !detail::wait_until(
                             watch, arrival->next_arrival_ns(), stop)) {
            break;
          }
          const std::uint64_t key = gen.next();
          const std::uint64_t id = bench::detail::item_id(tid, attempts++);
          if (detail::submit(handle, key, id, faults[tid].value)) {
            const std::uint64_t now = fast_timestamp();
            log.push_back({now, key, id, true});
            submitted[tid].value.store(++accepted, std::memory_order_relaxed);
            if (plane_on) plane.note_submit(id, now);
            CPQ_TRACE_OP(accepted, ::cpq::obs::TraceOp::kInsert, key);
          }
          progress[tid].tick(attempts, validation::LastOp::kInsert);
        }
        if (arrival) {
          on_fraction[tid].value = arrival->on_time_fraction();
          bursts[tid].value = arrival->bursts();
        }
        return;
      }
      obs::LogHistogram& ticks = delete_ticks[tid];
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t key = 0;
        std::uint64_t id = 0;
        bool hit = false;
        const std::uint64_t start = fast_timestamp();
        try {
          hit = handle.delete_min(key, id);
        } catch (const std::exception&) {
        }
        if (hit) {
          const std::uint64_t end = fast_timestamp();
          ticks.record(end - start);
          log.push_back({end, key, id, false});
          delivered[tid].value.store(++hits, std::memory_order_relaxed);
          if (plane_on) {
            plane.record_latency_ticks(end - start);
            plane.note_delivery(id, end);
          }
          CPQ_TRACE_OP(hits, ::cpq::obs::TraceOp::kDeleteHit, key);
        } else {
          ++misses;
          CPQ_TRACE_OP(misses, ::cpq::obs::TraceOp::kDeleteEmpty, key);
          idle();
        }
        progress[tid].tick(hits + misses,
                           hit ? validation::LastOp::kDeleteHit
                               : validation::LastOp::kDeleteEmpty);
      }
    });
  }

  barrier.arrive_and_wait();
  run.start_tick = fast_timestamp();
  Stopwatch watch;
  control();
  stop.store(true, std::memory_order_release);
  run.elapsed_s = watch.elapsed_seconds();
  // A producer can be parked in a blocking submission on a full window
  // while every consumer is about to exit, so nobody would release a slot.
  // Closing a closable engine wakes it; its submission reports rejection.
  if constexpr (requires { engine.close(); }) engine.close();
  for (auto& t : team) t.join();
  watchdog.stop();

  for (unsigned tid = 0; tid < threads; ++tid) {
    run.submitted += submitted[tid].value.load(std::memory_order_relaxed);
    run.delivered += delivered[tid].value.load(std::memory_order_relaxed);
    run.submit_faults += faults[tid].value;
    run.delete_ns.add_scaled(delete_ticks[tid], ns_per_tick);
  }
  if (cfg.arrivals.enabled() && cfg.producers > 0) {
    double on_sum = 0.0;
    for (unsigned tid = 0; tid < cfg.producers; ++tid) {
      on_sum += on_fraction[tid].value;
      run.bursts += bursts[tid].value;
    }
    run.burst_on_fraction = on_sum / cfg.producers;
  }
  obs::MetricsRegistry::global().add_cell_ops(run.submitted + run.delivered);
  return run;
}

// Call visit(delivered_at, sojourn), both in ticks, for every delivery whose
// submission is on record (item ids are unique across the workers and the
// prefill; a delivery stamped no later than its submission is skipped).
template <typename Visit>
void for_each_sojourn(const OpenLoopRun& run, Visit&& visit) {
  std::unordered_map<std::uint64_t, std::uint64_t> submitted_at;
  submitted_at.reserve(run.submitted + run.logs.back().size());
  for (const auto& log : run.logs) {
    for (const bench::OpLogEntry& entry : log) {
      if (entry.is_insert) submitted_at.emplace(entry.id, entry.timestamp);
    }
  }
  for (const auto& log : run.logs) {
    for (const bench::OpLogEntry& entry : log) {
      if (entry.is_insert) continue;
      const auto it = submitted_at.find(entry.id);
      if (it != submitted_at.end() && entry.timestamp > it->second) {
        visit(entry.timestamp, entry.timestamp - it->second);
      }
    }
  }
}

}  // namespace cpq::service
