// The table printers of cpq_bench_cli, one per benchmark mode, shared by
// --mode and the presets: sweep the thread ladder over a queue roster and
// print one table per configuration, in the layout the paper's
// figures/tables encode (rows = thread counts, columns = queues), with one
// JSON record per cell.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_framework/json_out.hpp"
#include "bench_framework/latency.hpp"
#include "bench_framework/options.hpp"
#include "bench_framework/registry.hpp"
#include "bench_framework/table.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/rank_estimator.hpp"
#include "platform/rng.hpp"
#include "workloads/hygiene.hpp"

namespace cpq::bench {

// --metrics: report per-cell observability data alongside the measurement
// tables — metrics-registry counter deltas, the live rank-error estimate
// (queues with a published relaxation bound), and hardware perf-counter
// events per operation — one stdout line per cell plus JSON records.
// Works in every build; without CPQ_METRICS_ENABLED the hooks are compiled
// out, every counter reads zero, and the rank estimator sees no samples.
inline bool& metrics_report_enabled() {
  static bool enabled = false;
  return enabled;
}

// One process-wide perf-counter set, reused across cells: opened (with
// inherit=1) in the driver thread before a cell's workers spawn, so every
// worker's events aggregate into it. Unavailable events stay NaN.
inline obs::PerfCounters& cell_perf_counters() {
  static obs::PerfCounters counters;
  return counters;
}

// Arm the observability layer for one table cell: zero the registry so the
// post-cell totals are that cell's delta, arm the rank estimator with the
// queue's theoretical bound, and start the hardware counters. Benchmark
// cells run their workers strictly between table cells, so nothing is
// recording concurrently.
inline void metrics_cell_begin(const QueueSpec* spec, unsigned threads) {
  if (!metrics_report_enabled()) return;
  obs::MetricsRegistry::global().reset();
  if (spec != nullptr && !spec->strict) {
    const double bound = spec->rank_bound ? spec->rank_bound(threads) : 0.0;
    obs::RankEstimator::global().enable(
        bound, spec->rank_bound_hard,
        static_cast<unsigned>(obs::kTraceSampleMask) + 1);
  }
  obs::PerfCounters& perf = cell_perf_counters();
  perf.open();
  perf.start();
}

inline void metrics_cell_report(const std::string& experiment,
                                const std::string& queue, unsigned threads) {
  if (!metrics_report_enabled()) return;
  cell_perf_counters().stop();
  const auto totals = obs::MetricsRegistry::global().totals();
  // Finish each "#" text line before emitting its JSON records: with
  // --json=- the sink shares stdout, and an unterminated printf would glue
  // the records onto the text line, corrupting both.
  std::printf("# metrics %s t=%u:", queue.c_str(), threads);
  for (unsigned c = 0; c < obs::kNumCounters; ++c) {
    std::printf(" %s=%llu", obs::counter_name(c),
                static_cast<unsigned long long>(totals[c]));
  }
  std::printf("\n");
  for (unsigned c = 0; c < obs::kNumCounters; ++c) {
    JsonSink::instance().record(
        {experiment, queue, std::string("counter_") + obs::counter_name(c),
         threads, static_cast<double>(totals[c]), 0.0, 1});
  }

  // Live rank-error estimate (armed only for relaxed queues; silent unless
  // the cell's sampled trace stream scored at least one deletion).
  obs::RankEstimator& estimator = obs::RankEstimator::global();
  if (estimator.enabled()) {
    const obs::RankEstimator::Snapshot snap = estimator.snapshot();
    if (snap.samples > 0) {
      std::printf("# rank-est %s t=%u: p50=%.0f p90=%.0f max=%llu",
                  queue.c_str(), threads, snap.p50, snap.p90,
                  static_cast<unsigned long long>(snap.max));
      if (snap.bound > 0.0) {
        std::printf(" bound=%.0f (%s) violations=%llu", snap.bound,
                    snap.hard_bound ? "hard" : "soft",
                    static_cast<unsigned long long>(snap.violations));
      }
      std::printf(" samples=%llu (x%u sampling)\n",
                  static_cast<unsigned long long>(snap.samples),
                  snap.sample_period);
      JsonSink::instance().record({experiment, queue, "rank_est_p50",
                                   threads, snap.p50, 0.0, 1});
      JsonSink::instance().record({experiment, queue, "rank_est_max", threads,
                                   static_cast<double>(snap.max), 0.0, 1});
      if (snap.hard_bound && snap.bound > 0.0) {
        JsonSink::instance().record(
            {experiment, queue, "rank_bound_violations", threads,
             static_cast<double>(snap.violations), 0.0, 1});
      }
    }
    estimator.disable();
  }

  // Hardware counters per operation. Unavailable events (no perf access,
  // virtualized PMU) render as null, never as a fake zero; when the cell
  // executed no accounted operations the per-op division is skipped.
  const std::uint64_t ops = obs::MetricsRegistry::global().cell_ops();
  const auto events = cell_perf_counters().read();
  cell_perf_counters().close();
  std::printf("# perf %s t=%u:", queue.c_str(), threads);
  for (unsigned i = 0; i < obs::PerfCounters::kNumEvents; ++i) {
    const bool have = ops > 0 && !std::isnan(events[i]);
    if (have) {
      std::printf(" %s/op=%.2f", obs::PerfCounters::event_name(i),
                  events[i] / static_cast<double>(ops));
    } else {
      std::printf(" %s/op=null", obs::PerfCounters::event_name(i));
    }
  }
  std::printf("\n");
  for (unsigned i = 0; i < obs::PerfCounters::kNumEvents; ++i) {
    const bool have = ops > 0 && !std::isnan(events[i]);
    JsonRecord record{experiment, queue,
                      std::string("perf_") + obs::PerfCounters::event_name(i) +
                          "_per_op",
                      threads,
                      have ? events[i] / static_cast<double>(ops) : 0.0, 0.0,
                      1};
    record.mean_is_null = !have;
    JsonSink::instance().record(record);
  }
}

// A failed cell (every repetition threw) renders as "failed" instead of a
// zero that looks like a measurement; if every queue in a row failed the
// row is dropped entirely. Each table returns false when any cell failed so
// drivers can exit non-zero.
inline constexpr const char* kFailedCell = "failed";

inline std::vector<std::string> roster_names(
    const std::vector<const QueueSpec*>& roster) {
  std::vector<std::string> names;
  for (const QueueSpec* spec : roster) names.push_back(spec->name);
  return names;
}

inline std::string config_title(const std::string& label,
                                const BenchConfig& cfg) {
  return label + " — " + workloads::workload_name(cfg.workload) +
         " workload, " + cfg.keys.name() + " keys";
}

// What one cell of a closed-loop sweep measured: its completed repetitions
// (0 = the cell failed), its JSON metrics and its text, one per table.
struct CellResult {
  struct Metric {
    std::string name;
    double mean = 0.0;
    double ci95 = 0.0;
  };
  unsigned reps = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> text;
};

// The sweep behind every closed-loop table: the thread ladder × the roster,
// one table per entry of `titles` (rows = thread counts, columns = queues).
// measure(spec, cfg, cell) runs one cell; `cell` numbers the cells
// row-major from 0 (row × roster.size() + column). The sweep arms and
// reports --metrics around it (unless `cell_metrics` is false), records its
// metrics as JSON with the cell's status, renders a failed cell as
// kFailedCell and drops a row whose every cell failed. Returns false when
// any cell failed.
template <typename Measure>
bool sweep(const std::string& label, const std::string& experiment,
           const std::vector<std::string>& titles, BenchConfig cfg,
           const Options& options,
           const std::vector<const QueueSpec*>& roster, Measure&& measure,
           bool cell_metrics = true) {
  std::vector<Table> tables;
  for (const std::string& title : titles) {
    tables.emplace_back(experiment + " — " + title, "threads",
                        roster_names(roster));
  }
  bool all_ok = true;
  std::size_t next_cell = 0;
  for (unsigned threads : options.thread_ladder) {
    cfg.threads = threads;
    std::vector<std::vector<std::string>> cells(tables.size());
    unsigned ok_cells = 0;
    for (const QueueSpec* spec : roster) {
      if (cell_metrics) metrics_cell_begin(spec, threads);
      const CellResult cell = measure(*spec, cfg, next_cell++);
      const bool failed = cell.reps == 0;
      all_ok &= !failed;
      ok_cells += failed ? 0 : 1;
      for (std::size_t t = 0; t < tables.size(); ++t) {
        cells[t].push_back(failed ? kFailedCell : cell.text[t]);
      }
      for (const CellResult::Metric& metric : cell.metrics) {
        JsonSink::instance().record({experiment, spec->name, metric.name,
                                     threads, metric.mean, metric.ci95,
                                     cell.reps, failed ? "failed" : "ok"});
      }
      if (cell_metrics) metrics_cell_report(experiment, spec->name, threads);
    }
    if (ok_cells == 0) {
      std::fprintf(stderr,
                   "[cpq] %s: dropping thread row %u (every cell failed)\n",
                   label.c_str(), threads);
      continue;
    }
    for (std::size_t t = 0; t < tables.size(); ++t) {
      tables[t].add_row(std::to_string(threads), std::move(cells[t]));
    }
  }
  for (const Table& table : tables) table.print();
  return all_ok;
}

// Throughput sweep: MOps/s mean ± 95% CI per (threads, queue). Open-loop
// runs add the burst_* family: the configured offered load plus the
// measured burst shape, so an achieved-vs-offered gap (a queue saturating
// under bursts) is visible in the JSON.
inline bool throughput_table(const std::string& label, BenchConfig cfg,
                             const Options& options,
                             const std::vector<const QueueSpec*>& roster) {
  return sweep(
      label, config_title(label, cfg), {"throughput [MOps/s]"}, cfg, options,
      roster,
      [](const QueueSpec& spec, const BenchConfig& cell_cfg, std::size_t) {
        const ThroughputResult result = spec.throughput(cell_cfg);
        CellResult cell{static_cast<unsigned>(result.per_rep.size()),
                        {{"throughput_mops", result.mops.mean,
                          result.mops.ci95}},
                        {Table::format_mean_ci(result.mops.mean,
                                               result.mops.ci95)}};
        if (cell_cfg.arrivals.enabled() && !result.failed()) {
          const Summary on = summarize(result.on_fraction_per_rep);
          const Summary bursts = summarize(result.bursts_per_rep);
          const double offered_mops =
              cell_cfg.arrivals.mean_hz() * cell_cfg.threads / 1e6;
          std::printf(
              "# burst %s t=%u: offered=%.3fMOps/s on=%.3f bursts=%.0f\n",
              spec.name.c_str(), cell_cfg.threads, offered_mops, on.mean,
              bursts.mean);
          cell.metrics.push_back({"burst_offered_mops", offered_mops});
          cell.metrics.push_back({"burst_on_fraction", on.mean, on.ci95});
          cell.metrics.push_back({"burst_count", bursts.mean, bursts.ci95});
        }
        return cell;
      });
}

// Interleaved throughput sweep (anti-artifact hygiene, arXiv:2208.08469):
// all queues run inside one process lifetime, one repetition at a time, in
// a freshly shuffled queue order per repetition. Back-to-back per-queue
// processes always present each queue with a pristine heap; interleaving
// makes every queue inherit the allocator state its rivals left behind —
// as in any real comparison harness — and the per-queue spread across
// repetitions ((max-min)/mean) is reported as the layout_* metric family
// instead of silently contaminating the means. Every row runs before the
// table is built, so per-cell metrics/rank-est reporting is skipped: the
// registry deltas would mix queues. Returns false when any queue produced
// no completed rep.
inline bool interleaved_throughput_table(
    const std::string& label, BenchConfig cfg, const Options& options,
    const std::vector<const QueueSpec*>& roster) {
  std::vector<std::vector<double>> samples;  // per sweep cell, row-major
  for (unsigned threads : options.thread_ladder) {
    cfg.threads = threads;
    const std::size_t row_start = samples.size();
    samples.resize(row_start + roster.size());
    std::vector<std::size_t> order(roster.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
      // Fresh shuffled order per repetition so position-in-process effects
      // average out instead of systematically favoring one queue.
      Xoroshiro128 order_rng(cfg.seed ^ (0x17ecaf3ULL * (rep + 1)) ^ threads);
      workloads::deterministic_shuffle(order, order_rng);
      for (std::size_t idx : order) {
        BenchConfig rep_cfg = cfg;
        rep_cfg.repetitions = 1;
        // Repetition `rep`'s own seed, so an interleaved rep replays the
        // same key streams as rep `rep` of a plain sweep — only the
        // process-lifetime context differs.
        rep_cfg.seed = rep_seed(cfg.seed, rep);
        rep_cfg.label = roster[idx]->name;
        const ThroughputResult result = roster[idx]->throughput(rep_cfg);
        if (!result.failed()) {
          samples[row_start + idx].push_back(result.per_rep.front());
        }
      }
    }
  }
  return sweep(
      label, config_title(label, cfg),
      {"interleaved throughput [MOps/s] (layout spread)"}, cfg, options,
      roster,
      [&](const QueueSpec& spec, const BenchConfig& cell_cfg,
          std::size_t cell) {
        const std::vector<double>& runs = samples[cell];
        if (runs.empty()) return CellResult{0, {{"throughput_mops"}}, {}};
        const Summary mops = summarize(runs);
        const auto [min_it, max_it] =
            std::minmax_element(runs.begin(), runs.end());
        const double spread_pct =
            mops.mean > 0.0 ? (*max_it - *min_it) / mops.mean * 100.0 : 0.0;
        std::printf(
            "# layout %s t=%u: spread=%.1f%% min=%.2f max=%.2f (n=%zu)\n",
            spec.name.c_str(), cell_cfg.threads, spread_pct, *min_it,
            *max_it, runs.size());
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2f (±%.1f%%)", mops.mean,
                      spread_pct / 2.0);
        return CellResult{static_cast<unsigned>(runs.size()),
                          {{"throughput_mops", mops.mean, mops.ci95},
                           {"layout_spread_pct", spread_pct},
                           {"layout_min_mops", *min_it},
                           {"layout_max_mops", *max_it}},
                          {buf}};
      },
      /*cell_metrics=*/false);
}

// Rank-error sweep: mean (stddev) per (threads, queue), as in the paper's
// quality tables.
inline bool quality_table(const std::string& label, BenchConfig cfg,
                          const Options& options,
                          const std::vector<const QueueSpec*>& roster) {
  return sweep(label, config_title(label, cfg), {"rank error mean (σ)"}, cfg,
               options, roster,
               [](const QueueSpec& spec, const BenchConfig& cell_cfg,
                  std::size_t) {
                 const QualityResult result = spec.quality(cell_cfg);
                 const Summary& error = result.rank_error;
                 return CellResult{
                     result.completed_reps,
                     {{"rank_error_mean", error.mean, error.ci95}},
                     {Table::format_mean_std(error.mean, error.stddev)}};
               });
}

// Per-operation latency sweep (the paper's §F throughput/latency switch):
// every operation timed individually, p50 / p99 ns per (threads, queue) in
// one insert and one delete_min table from the same runs. With --metrics
// each cell also prints its full insert and delete_min histograms.
inline bool latency_table(const std::string& label, BenchConfig cfg,
                          const Options& options,
                          const std::vector<const QueueSpec*>& roster) {
  const auto p50_p99 = [](const LatencyPercentiles& p) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.0f / %.0f", p.p50_ns, p.p99_ns);
    return std::string(buf);
  };
  return sweep(
      label, config_title(label, cfg),
      {"insert latency [ns] p50 / p99", "delete_min latency [ns] p50 / p99"},
      cfg, options, roster,
      [&](const QueueSpec& spec, const BenchConfig& cell_cfg, std::size_t) {
        const LatencyResult result = spec.latency(cell_cfg);
        if (metrics_report_enabled() && !result.failed()) {
          result.insert_ns.print(
              stdout, (spec.name + " insert latency [ns]").c_str());
          result.delete_ns.print(
              stdout, (spec.name + " delete_min latency [ns]").c_str());
        }
        return CellResult{
            result.completed_reps,
            {{"latency_delete_p50_ns", result.delete_min.p50_ns},
             {"latency_delete_p99_ns", result.delete_min.p99_ns},
             {"latency_insert_p99_ns", result.insert.p99_ns}},
            {p50_p99(result.insert), p50_p99(result.delete_min)}};
      });
}

// Larkin-Sen-Tarjan-style sorting phases (the paper's §F batch mode): all
// threads insert cfg.prefill items, then delete until the queue is drained.
// Fixed work instead of a time window, so the insert path (where the
// appendix says Mounds dominate) and the delete path (CBPQ's FAA tickets,
// Lindén's prefix batching) are timed apart: one MOps/s table per phase,
// and sort_insert_mops / sort_delete_mops records per cell. The workload
// shape does not apply; only the key distribution does.
inline bool sort_table(const std::string& label, BenchConfig cfg,
                       const Options& options,
                       const std::vector<const QueueSpec*>& roster) {
  const auto mops = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", value);
    return std::string(buf);
  };
  return sweep(
      label, label + " — " + cfg.keys.name() + " keys",
      {"sort insert phase [MOps/s]", "sort delete phase [MOps/s]"}, cfg,
      options, roster,
      [&](const QueueSpec& spec, const BenchConfig& cell_cfg, std::size_t) {
        const SortResult result = spec.sort_phases(cell_cfg);
        return CellResult{result.completed_reps,
                          {{"sort_insert_mops", result.insert_mops},
                           {"sort_delete_mops", result.delete_mops}},
                          {mops(result.insert_mops), mops(result.delete_mops)}};
      });
}

// Open-loop service sweep: every roster queue driven raw and through
// PriorityService by identical Poisson client traffic. Rows are total
// thread counts from the ladder (split half producers / half consumers);
// cells show raw -> service delivered kTasks/s, and a second table shows
// the completion-rank error medians. Returns false if any checked run
// reported a conservation violation.
inline bool service_table(const std::string& label,
                          service::ServiceBenchConfig cfg,
                          const Options& options,
                          const std::vector<const QueueSpec*>& roster) {
  const std::vector<std::string> columns = roster_names(roster);
  Table throughput(label + " — delivered raw -> service [kTasks/s]",
                   "threads", columns);
  Table quality(label + " — completion rank error median raw -> service",
                "threads", columns);
  Table latency(label + " — delete_min latency [ns] p50/p99 raw -> service",
                "threads", columns);
  Table overload(label + " — sojourn p99 [us] raw -> service"
                         " (shed/reroutes/trips)",
                 "threads", columns);
  bool conserved = true;
  for (unsigned threads : options.thread_ladder) {
    cfg.producers = (threads + 1) / 2;
    cfg.consumers = threads - cfg.producers;
    if (cfg.consumers == 0) cfg.consumers = 1;
    const unsigned total = cfg.producers + cfg.consumers;
    std::vector<std::string> tcells;
    std::vector<std::string> qcells;
    std::vector<std::string> lcells;
    std::vector<std::string> ocells;
    for (const QueueSpec* spec : roster) {
      metrics_cell_begin(spec, total);
      const ServiceComparison comparison = spec->service_bench(cfg);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f -> %.0f",
                    comparison.raw.delivered_per_s / 1e3,
                    comparison.service.delivered_per_s / 1e3);
      tcells.emplace_back(buf);
      std::snprintf(buf, sizeof(buf), "%.1f -> %.1f",
                    comparison.raw.median_rank_error,
                    comparison.service.median_rank_error);
      qcells.emplace_back(buf);
      const LatencyPercentiles raw_lat =
          percentiles_of(comparison.raw.delete_ns);
      const LatencyPercentiles svc_lat =
          percentiles_of(comparison.service.delete_ns);
      std::snprintf(buf, sizeof(buf), "%.0f/%.0f -> %.0f/%.0f",
                    raw_lat.p50_ns, raw_lat.p99_ns, svc_lat.p50_ns,
                    svc_lat.p99_ns);
      lcells.emplace_back(buf);
      const double raw_sojourn_p99 =
          comparison.raw.sojourn_ns.count() > 0
              ? comparison.raw.sojourn_ns.quantile(0.99)
              : 0.0;
      const double svc_sojourn_p99 =
          comparison.service.sojourn_ns.count() > 0
              ? comparison.service.sojourn_ns.quantile(0.99)
              : 0.0;
      const service::ServiceStats& sstats = comparison.service.stats;
      std::snprintf(buf, sizeof(buf),
                    "%.0f -> %.0f (%llu/%llu/%llu)", raw_sojourn_p99 / 1e3,
                    svc_sojourn_p99 / 1e3,
                    static_cast<unsigned long long>(sstats.shed_deadline),
                    static_cast<unsigned long long>(sstats.reroutes),
                    static_cast<unsigned long long>(sstats.breaker_trips));
      ocells.emplace_back(buf);
      JsonSink::instance().record({label, spec->name, "raw_tasks_per_s",
                                   total, comparison.raw.delivered_per_s,
                                   0.0, 1});
      JsonSink::instance().record({label, spec->name, "service_tasks_per_s",
                                   total, comparison.service.delivered_per_s,
                                   0.0, 1});
      JsonSink::instance().record({label, spec->name,
                                   "service_rank_error_median", total,
                                   comparison.service.median_rank_error, 0.0,
                                   1});
      JsonSink::instance().record({label, spec->name,
                                   "service_delete_p50_ns", total,
                                   svc_lat.p50_ns, 0.0, 1});
      JsonSink::instance().record({label, spec->name,
                                   "service_delete_p99_ns", total,
                                   svc_lat.p99_ns, 0.0, 1});
      JsonSink::instance().record({label, spec->name,
                                   "service_sojourn_p99_ns", total,
                                   svc_sojourn_p99, 0.0, 1});
      JsonSink::instance().record({label, spec->name, "service_shed_total",
                                   total,
                                   static_cast<double>(sstats.shed_deadline),
                                   0.0, 1});
      JsonSink::instance().record({label, spec->name,
                                   "service_tier_rejected", total,
                                   static_cast<double>(sstats.tier_rejected),
                                   0.0, 1});
      JsonSink::instance().record({label, spec->name, "service_reroutes",
                                   total,
                                   static_cast<double>(sstats.reroutes), 0.0,
                                   1});
      JsonSink::instance().record({label, spec->name,
                                   "service_breaker_trips", total,
                                   static_cast<double>(sstats.breaker_trips),
                                   0.0, 1});
      if (cfg.arrivals.enabled()) {
        JsonSink::instance().record(
            {label, spec->name, "burst_on_fraction", total,
             comparison.service.burst_on_fraction, 0.0, 1});
        JsonSink::instance().record(
            {label, spec->name, "burst_count", total,
             static_cast<double>(comparison.service.bursts), 0.0, 1});
      }
      metrics_cell_report(label, spec->name, total);
      if (cfg.checked) {
        for (const service::ServiceBenchResult* result :
             {&comparison.raw, &comparison.service}) {
          if (!result->conservation_ok) {
            conserved = false;
            std::fprintf(stderr,
                         "[cpq] %s: service conservation violation: %s\n",
                         spec->name.c_str(),
                         result->conservation_report.c_str());
          }
        }
      }
    }
    throughput.add_row(std::to_string(total), std::move(tcells));
    quality.add_row(std::to_string(total), std::move(qcells));
    latency.add_row(std::to_string(total), std::move(lcells));
    overload.add_row(std::to_string(total), std::move(ocells));
  }
  throughput.print();
  quality.print();
  latency.print();
  overload.print();
  return conserved;
}

// Every panel of a preset over `roster`, through the mode printers above.
// Returns false when any cell failed.
inline bool run_preset(const PresetSpec& preset, const Options& options,
                       const std::vector<const QueueSpec*>& roster) {
  bool ok = true;
  for (const PresetPanel& panel : preset.panels) {
    BenchConfig cfg = base_config(options, panel.shape);
    switch (panel.mode) {
      case PanelMode::kThroughput:
        ok &= throughput_table(panel.label, cfg, options, roster);
        break;
      case PanelMode::kQuality:
        ok &= quality_table(panel.label, cfg, options, roster);
        break;
      case PanelMode::kInterleaved:
        cfg.perturb_layout = true;
        ok &= interleaved_throughput_table(panel.label, cfg, options, roster);
        break;
    }
  }
  return ok;
}

inline void print_bench_header(const std::string& name,
                               const std::string& reproduces,
                               const Options& options) {
  std::printf("# %s\n", name.c_str());
  std::printf("# reproduces: %s\n", reproduces.c_str());
  std::printf(
      "# prefill=%zu window=%.0fms reps=%u seed=%llu threads=",
      options.prefill, options.duration_s * 1000.0, options.repetitions,
      static_cast<unsigned long long>(options.seed));
  for (unsigned t : options.thread_ladder) std::printf("%u,", t);
  std::printf(
      "\n# scale up with --threads/--ms/--reps/--prefill "
      "(paper: 10^6 prefill, 10 s windows, 10 reps)\n");
}

}  // namespace cpq::bench
