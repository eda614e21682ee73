// cpq_bench_cli --mode=service: the same open-loop traffic
// (service/open_loop.hpp) against raw queue handles and through
// PriorityService-wrapped shards, either one optionally inside a
// CheckedQueue, so the table prints service-vs-raw columns from one code
// path. Measured per run:
//
//   * offered and delivered task rates (tasks/s),
//   * completion-rank error, reusing the quality replay engine over the
//     driver's submission and delivery records, so the service's extra
//     relaxation (buffering, sharding) is quantified with the same metric
//     as the raw queues,
//   * delete_min latency and submit-to-delivery sojourn,
//   * the service's counters (batch fill, steals, sheds, rejections).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_framework/harness.hpp"
#include "obs/histogram.hpp"
#include "platform/backoff.hpp"
#include "platform/clock.hpp"
#include "platform/rng.hpp"
#include "service/open_loop.hpp"
#include "service/priority_service.hpp"
#include "validation/checked_queue.hpp"

namespace cpq::service {

struct ServiceBenchResult {
  double offered_per_s = 0.0;    // producer submissions / elapsed
  double delivered_per_s = 0.0;  // consumer deliveries / elapsed
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drained = 0;  // tasks recovered after shutdown
  double median_rank_error = 0.0;
  std::uint64_t max_rank_error = 0;
  std::uint64_t deletions = 0;  // deliveries scored by the replay
  // Consumer-side delete_min latency over successful pops, nanoseconds
  // (empty polls are excluded: at low arrival rates they would drown the
  // delivery latencies the table reports).
  obs::LogHistogram delete_ns;
  // Submit-to-delivery sojourn per task, nanoseconds, matched through the
  // records' unique item ids. This is the latency that overload actually
  // inflates: under arrival > service rate it grows without bound unless
  // deadline shedding caps it.
  obs::LogHistogram sojourn_ns;
  std::uint64_t shed = 0;  // tasks dropped past their deadline (service)
  // Measured ON-time fraction across producers (burst_* family); 1.0 for
  // plain Poisson arrivals, 0 when pacing is disabled.
  double burst_on_fraction = 0.0;
  std::uint64_t bursts = 0;  // total OFF->ON transitions across producers
  ServiceStats stats;           // zeroed for raw-queue runs
  bool conservation_ok = true;  // meaningful when cfg.checked
  std::string conservation_report;
};

namespace detail {

// One run of the driver, paced by a sleep of cfg.duration_s, with
// consumers spinning on an empty pop; scored into `result`.
template <typename Engine>
void run_and_score(Engine& engine, const ServiceBenchConfig& cfg,
                   ServiceBenchResult& result) {
  OpenLoopRun run = run_open_loop(
      engine, cfg,
      [&cfg] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg.duration_s));
      },
      [] { cpu_relax(); });
  result.submitted = run.submitted;
  result.delivered = run.delivered;
  result.offered_per_s = static_cast<double>(run.submitted) / run.elapsed_s;
  result.delivered_per_s = static_cast<double>(run.delivered) / run.elapsed_s;
  result.delete_ns.merge(run.delete_ns);
  result.burst_on_fraction = run.burst_on_fraction;
  result.bursts = run.bursts;
  obs::LogHistogram sojourn_ticks;
  for_each_sojourn(run, [&](std::uint64_t, std::uint64_t ticks) {
    sojourn_ticks.record(ticks);
  });
  result.sojourn_ns.add_scaled(sojourn_ticks, tsc_clock().ns_per_tick());

  std::vector<double> errors;
  bench::replay_rank_errors(run.logs, errors, result.max_rank_error);
  result.deletions = errors.size();
  if (!errors.empty()) {
    const std::size_t mid = errors.size() / 2;
    std::nth_element(errors.begin(), errors.begin() + mid, errors.end());
    result.median_rank_error = errors[mid];
  }
}

}  // namespace detail

// Open-loop run against raw queue handles (the baseline column).
// `make_queue(threads, seed)` constructs the queue under test.
template <typename Factory>
ServiceBenchResult run_open_loop_raw(Factory&& make_queue,
                                     const ServiceBenchConfig& cfg) {
  const unsigned threads = cfg.producers + cfg.consumers;
  ServiceBenchResult result;
  auto queue = make_queue(threads, cfg.seed);
  if (cfg.checked) {
    using Q = typename std::decay_t<decltype(*queue)>;
    validation::CheckedQueue<Q> checked(threads, std::move(queue));
    detail::run_and_score(checked, cfg, result);
    const validation::ReconcileReport report = checked.reconcile();
    result.conservation_ok = report.ok();
    result.conservation_report = report.to_string();
    result.drained = report.drained;
  } else {
    detail::run_and_score(*queue, cfg, result);
  }
  return result;
}

// Open-loop run through PriorityService-wrapped shards. Each shard queue is
// built by `make_queue(threads, shard_seed)`.
template <typename Factory>
ServiceBenchResult run_open_loop_service(Factory&& make_queue,
                                         const ServiceBenchConfig& cfg) {
  const unsigned threads = cfg.producers + cfg.consumers;
  using Q = typename std::decay_t<decltype(*make_queue(threads, cfg.seed))>;
  using Service = PriorityService<Q>;
  ServiceConfig scfg = cfg.service;
  scfg.seed = cfg.seed;
  auto service =
      std::make_unique<Service>(threads, scfg, [&](unsigned shard) {
        return make_queue(threads, thread_seed(cfg.seed, shard));
      });
  Service& ref = *service;
  ServiceBenchResult result;
  if (cfg.checked) {
    validation::CheckedQueue<Service> checked(threads, std::move(service));
    detail::run_and_score(checked, cfg, result);
    // reconcile() drains through a service handle, which can still shed
    // expired tasks — harvest stats after it so `shed` covers the drain too.
    const validation::ReconcileReport report = checked.reconcile();
    result.stats = ref.stats();
    result.shed = result.stats.shed_deadline;
    // Deadline-shed tasks were accepted and then deliberately dropped, so
    // they appear as `lost` in the diff; conservation holds exactly when
    // every lost item is accounted for by a shed.
    result.conservation_ok = report.duplicated == 0 &&
                             report.fabricated == 0 &&
                             report.lost == result.shed;
    result.conservation_report =
        report.to_string() + " shed=" + std::to_string(result.shed);
    result.drained = report.drained;
  } else {
    detail::run_and_score(ref, cfg, result);
    result.drained = ref.drain([](std::uint64_t, std::uint64_t) {});
    result.stats = ref.stats();
    result.shed = result.stats.shed_deadline;
  }
  return result;
}

}  // namespace cpq::service
