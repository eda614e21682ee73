// ChaosCampaign: execute a declarative fault schedule (chaos.hpp) against a
// live PriorityService and measure what the resilience layer promises.
//
// The service-traffic driver (service/open_loop.hpp) runs the open-loop
// Poisson workload through a CheckedQueue, so conservation is audited end to
// end, with consumers sleeping 20 us when a pop finds nothing. In place of
// the driver's sleep, the calling thread walks the schedule, applying and
// clearing faults at their offsets:
//
//   stall_shard / kill_shard  -> PriorityService::chaos_stall_shard
//   inject / inject_throw     -> fault_injection_configure over the
//                                CPQ_INJECT seams (site-filtered)
//
// After the run it asserts the three properties the overload work is about:
//
//   conservation  every accepted task was delivered, recovered by the final
//                 drain, or shed through the shed sink — lost must equal
//                 shed exactly, duplicated/fabricated must be zero.
//   rank error    RankEstimator violations against schedule.rank_bound are
//                 attributed per fault window (plus rank_grace_s of
//                 after-clear drain); violations OUTSIDE every window fail.
//                 The estimator is fed by the driver's trace seam, so a
//                 build with -DCPQ_METRICS=OFF scores no samples.
//   recovery      per scenario, the time from fault clear until the first
//                 clean window whose sojourn p99 (from the driver's
//                 delivery records) returns within recovery_factor x the
//                 fault-free baseline p99 (or under recovery_floor_ms). A
//                 scenario that never recovers reports recovery_ms = -1 and
//                 fails the campaign.
//
// Overlapping stall scenarios compose; overlapping inject scenarios do not
// (the injection configuration is global — the last clear wins), so keep
// inject windows disjoint in schedules.
//
// The runner stays free of registry.cpp (the driver needs only the
// queue-free cpq_bench_io half of the bench framework), so fault-injected
// test binaries can link it without pulling in uninjected queue template
// instantiations and tripping the ODR constraint documented in
// tests/CMakeLists.txt.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/rank_estimator.hpp"
#include "obs/timeseries.hpp"
#include "platform/clock.hpp"
#include "service/open_loop.hpp"
#include "service/priority_service.hpp"
#include "validation/chaos.hpp"
#include "validation/checked_queue.hpp"
#include "validation/fault_injection.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/keyspace.hpp"

namespace cpq::validation {

struct ChaosScenarioOutcome {
  std::string name;
  std::string kind;
  double start_s = 0.0;
  double clear_s = 0.0;
  // Fault actually exercised. False only for inject* scenarios in a binary
  // built without CPQ_FAULT_INJECTION — reported, never silently dropped.
  bool applied = false;
  double recovery_ms = -1.0;  // -1 = p99 never came back within bounds
  double fault_p99_ms = 0.0;  // sojourn p99 over the fault window
  std::uint64_t rank_violations = 0;  // attributed to this fault's bracket
  // Independent recovery measurement from the telemetry plane: time from
  // fault clear to the first sampled snapshot with every SLO objective
  // clean (slo_breached mask == 0). -1 when the plane was not sampling
  // with an --slo spec, or when no clean snapshot followed the clear.
  // Informational — never part of ok().
  double slo_recovery_ms = -1.0;
};

struct ChaosCampaignResult {
  double baseline_p99_ms = 0.0;
  double recovery_threshold_ms = 0.0;
  std::vector<ChaosScenarioOutcome> outcomes;

  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drained = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t submit_faults = 0;  // injected submit exceptions survived

  bool conservation_ok = false;
  std::string conservation;  // reconcile report + shed accounting

  double rank_bound = 0.0;
  std::uint64_t rank_samples = 0;
  std::uint64_t rank_violations_total = 0;
  std::uint64_t rank_violations_outside = 0;

  bool recovered() const noexcept {
    for (const ChaosScenarioOutcome& o : outcomes) {
      if (o.recovery_ms < 0.0) return false;
    }
    return true;
  }

  bool ok() const noexcept {
    return conservation_ok && rank_violations_outside == 0 && recovered();
  }
};

// Run `schedule` against a service whose shards come from
// `make_shard(shard_index) -> std::unique_ptr<Q>`. The queue value type must
// satisfy the deadline-envelope constraint (unsigned 64-bit) because the
// runner packs item ids into values.
template <typename MakeShard>
auto run_chaos_campaign(const ChaosSchedule& schedule, std::uint64_t seed,
                        MakeShard&& make_shard, bool pin_threads = false)
    -> ChaosCampaignResult {
  using Q = typename decltype(make_shard(0u))::element_type;
  using Service = service::PriorityService<Q>;

  service::ServiceBenchConfig cfg;
  cfg.producers = schedule.producers;
  cfg.consumers = schedule.consumers;
  cfg.duration_s = schedule.duration_s;
  cfg.arrivals = workloads::ArrivalConfig::poisson(schedule.arrival_hz);
  // The parser admits only power-of-two key spaces.
  const unsigned bits =
      static_cast<unsigned>(std::bit_width(schedule.key_space)) - 1;
  cfg.keys = schedule.hot_keys > 0.0
                 ? workloads::KeyConfig::hotspot(schedule.hot_ops,
                                                 schedule.hot_keys, bits)
                 : workloads::KeyConfig::uniform(bits);
  service::ServiceConfig& scfg = cfg.service;
  scfg.shards = schedule.shards;
  scfg.insert_batch = schedule.insert_batch;
  scfg.delete_batch = schedule.delete_batch;
  scfg.max_in_flight = schedule.max_in_flight;
  scfg.policy = schedule.policy == "tiered"
                    ? service::AdmissionPolicy::kTiered
                    : service::AdmissionPolicy::kReject;
  scfg.tier_key_space = schedule.key_space;
  scfg.seed = seed;
  scfg.ttl_us = schedule.ttl_us;
  scfg.breaker_trip_us = schedule.breaker_trip_us;
  scfg.breaker_consecutive = schedule.breaker_consecutive;
  scfg.breaker_cooldown_us = schedule.breaker_cooldown_us;
  cfg.seed = seed;
  cfg.pin_threads = pin_threads;
  cfg.label = "chaos-campaign";

  const unsigned workers = schedule.producers + schedule.consumers;
  auto owned = std::make_unique<Service>(workers, scfg, make_shard);
  Service* svc = owned.get();
  CheckedQueue<Service> checked(workers, std::move(owned));

  std::atomic<std::uint64_t> shed_count{0};
  svc->set_shed_sink([&shed_count](std::uint64_t, std::uint64_t) {
    shed_count.fetch_add(1, std::memory_order_relaxed);
  });

  // Fed by the driver's 1-in-64 trace seam (kTraceSampleMask + 1).
  const bool rank_on = schedule.rank_bound > 0.0;
  if (rank_on) {
    obs::RankEstimator::global().enable(
        schedule.rank_bound, /*hard_bound=*/true,
        static_cast<unsigned>(obs::kTraceSampleMask) + 1);
  }

  // Scenario brackets for rank-violation attribution: a fault owns the
  // violations scored from its start until rank_grace_s after its clear.
  struct Bracket {
    double t;
    std::size_t scenario;
    enum class Kind { kApply, kClear, kBracketEnd } kind;
  };
  std::vector<Bracket> timeline;
  for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
    const ChaosScenario& sc = schedule.scenarios[i];
    timeline.push_back({sc.start_s, i, Bracket::Kind::kApply});
    timeline.push_back({sc.clear_s(), i, Bracket::Kind::kClear});
    timeline.push_back(
        {sc.clear_s() + schedule.rank_grace_s, i, Bracket::Kind::kBracketEnd});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Bracket& a, const Bracket& b) { return a.t < b.t; });

  ChaosCampaignResult result;
  result.outcomes.resize(schedule.scenarios.size());
  for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
    const ChaosScenario& sc = schedule.scenarios[i];
    result.outcomes[i].name = sc.name;
    result.outcomes[i].kind = chaos_fault_kind_name(sc.kind);
    result.outcomes[i].start_s = sc.start_s;
    result.outcomes[i].clear_s = sc.clear_s();
  }

  auto apply_fault = [&](const ChaosScenario& sc) -> bool {
    switch (sc.kind) {
      case ChaosFaultKind::kStallShard:
      case ChaosFaultKind::kKillShard:
        svc->chaos_stall_shard(sc.shard, sc.effective_stall_us());
        return true;
      case ChaosFaultKind::kInject:
      case ChaosFaultKind::kInjectThrow:
#if defined(CPQ_FAULT_INJECTION)
        fault_injection_configure(
            sc.ppm, seed,
            sc.kind == ChaosFaultKind::kInjectThrow ? FaultAction::kThrow
                                                    : FaultAction::kDelay,
            sc.site.empty() ? nullptr : sc.site.c_str());
        return true;
#else
        std::fprintf(stderr,
                     "[chaos] scenario '%s': fault injection not compiled "
                     "in, fault is inert\n",
                     sc.name.c_str());
        return false;
#endif
    }
    return false;
  };
  auto clear_fault = [&](const ChaosScenario& sc) {
    switch (sc.kind) {
      case ChaosFaultKind::kStallShard:
      case ChaosFaultKind::kKillShard:
        svc->chaos_stall_shard(sc.shard, 0);
        break;
      case ChaosFaultKind::kInject:
      case ChaosFaultKind::kInjectThrow:
#if defined(CPQ_FAULT_INJECTION)
        fault_injection_configure(0, seed);
#endif
        break;
    }
  };

  // The schedule controller, on the calling thread while the workers run.
  // Campaign zero on the shared monotonic-ns timeline anchors schedule
  // offsets to telemetry record timestamps for the SLO-recovery scan below.
  std::uint64_t campaign_t0_ns = 0;
  auto controller = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    campaign_t0_ns = monotonic_ns();
    std::uint64_t last_violations = 0;
    unsigned open_brackets = 0;
    auto note_violations = [&](std::size_t owner) {
      if (!rank_on) return;
      const std::uint64_t v =
          obs::RankEstimator::global().snapshot().violations;
      if (open_brackets > 0) {
        result.outcomes[owner].rank_violations += v - last_violations;
      }
      last_violations = v;
    };
    for (const Bracket& event : timeline) {
      std::this_thread::sleep_until(t0 +
                                    std::chrono::duration<double>(event.t));
      const ChaosScenario& sc = schedule.scenarios[event.scenario];
      switch (event.kind) {
        case Bracket::Kind::kApply:
          // Violations scored before this fault belong to whichever
          // bracket (if any) was already open; credit them there by
          // reading the counter, then open ours.
          note_violations(event.scenario);
          ++open_brackets;
          result.outcomes[event.scenario].applied = apply_fault(sc);
          break;
        case Bracket::Kind::kClear:
          clear_fault(sc);
          break;
        case Bracket::Kind::kBracketEnd:
          note_violations(event.scenario);
          --open_brackets;
          break;
      }
    }
    std::this_thread::sleep_until(
        t0 + std::chrono::duration<double>(schedule.duration_s));
  };
  const service::OpenLoopRun run =
      service::run_open_loop(checked, cfg, controller, [] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });

  // Defensive: no fault outlives the run, whatever the schedule said.
  for (unsigned s = 0; s < svc->shard_count(); ++s) svc->chaos_stall_shard(s, 0);
#if defined(CPQ_FAULT_INJECTION)
  fault_injection_configure(0, seed);
#endif

  const ReconcileReport report = checked.reconcile();
  const std::uint64_t shed_total = shed_count.load(std::memory_order_relaxed);
  // Shed tasks were accepted but intentionally never delivered: the diff
  // reports them as lost, and every lost item must be accounted for by the
  // shed sink — no more, no fewer.
  result.conservation_ok = report.duplicated == 0 && report.fabricated == 0 &&
                           report.lost == shed_total;
  result.conservation =
      report.to_string() + " shed=" + std::to_string(shed_total);
  result.drained = report.drained;
  result.shed = shed_total;
  result.submit_faults = run.submit_faults;

  const service::ServiceStats stats = svc->stats();
  result.submitted = stats.submitted;
  result.delivered = stats.delivered;
  result.rejected = stats.rejected;
  result.reroutes = stats.reroutes;
  result.breaker_trips = stats.breaker_trips;

  if (rank_on) {
    const obs::RankEstimator::Snapshot snap =
        obs::RankEstimator::global().snapshot();
    obs::RankEstimator::global().disable();
    result.rank_bound = schedule.rank_bound;
    result.rank_samples = snap.samples;
    // The reconcile drain above is not traced, so the counter is frozen at
    // its value when the workers stopped.
    result.rank_violations_total = snap.violations;
    std::uint64_t inside = 0;
    for (const ChaosScenarioOutcome& o : result.outcomes) {
      inside += o.rank_violations;
    }
    result.rank_violations_outside =
        result.rank_violations_total >= inside
            ? result.rank_violations_total - inside
            : 0;
  }

  // ---- per-window sojourn from the driver's records, recovery scoring ----
  const double ns_per_tick = tsc_clock().ns_per_tick();
  const double window_s = schedule.window_ms / 1000.0;
  const std::size_t n_windows =
      static_cast<std::size_t>(schedule.duration_s / window_s) + 2;
  std::vector<obs::LogHistogram> merged(n_windows);
  service::for_each_sojourn(run, [&](std::uint64_t at, std::uint64_t ticks) {
    const double since_s =
        at > run.start_tick
            ? static_cast<double>(at - run.start_tick) * ns_per_tick / 1e9
            : 0.0;
    const std::size_t w = std::min(
        static_cast<std::size_t>(since_s / window_s), n_windows - 1);
    merged[w].record(
        static_cast<std::uint64_t>(static_cast<double>(ticks) * ns_per_tick));
  });
  const auto p99_ms = [](const obs::LogHistogram& h) {
    return static_cast<double>(h.quantile(0.99)) / 1e6;
  };
  obs::LogHistogram baseline;
  for (std::size_t w = 0; w < n_windows; ++w) {
    if (static_cast<double>(w + 1) * window_s <= schedule.baseline_s) {
      baseline.merge(merged[w]);
    }
  }
  result.baseline_p99_ms = p99_ms(baseline);
  result.recovery_threshold_ms =
      std::max(schedule.recovery_factor * result.baseline_p99_ms,
               schedule.recovery_floor_ms);

  auto in_any_fault_window = [&](double lo_s, double hi_s) {
    for (const ChaosScenario& sc : schedule.scenarios) {
      if (lo_s < sc.clear_s() && hi_s > sc.start_s) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
    const ChaosScenario& sc = schedule.scenarios[i];
    ChaosScenarioOutcome& outcome = result.outcomes[i];
    obs::LogHistogram fault_hist;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const double lo = static_cast<double>(w) * window_s;
      const double hi = lo + window_s;
      if (lo < sc.clear_s() && hi > sc.start_s) fault_hist.merge(merged[w]);
    }
    outcome.fault_p99_ms = p99_ms(fault_hist);
    for (std::size_t w = 0; w < n_windows; ++w) {
      const double lo = static_cast<double>(w) * window_s;
      const double hi = lo + window_s;
      if (lo < sc.clear_s()) continue;           // not past this fault yet
      if (hi > schedule.duration_s) break;       // truncated tail window
      if (in_any_fault_window(lo, hi)) continue; // some other fault active
      if (merged[w].count() == 0) continue;      // nothing delivered: opaque
      if (p99_ms(merged[w]) <= result.recovery_threshold_ms) {
        outcome.recovery_ms = (hi - sc.clear_s()) * 1000.0;
        break;
      }
    }
  }

  // ---- measured SLO recovery from the telemetry plane ----
  // When the run was sampled with an --slo spec, score each scenario a
  // second, independent recovery time: the gap from fault clear to the
  // first telemetry snapshot whose per-sample violation mask is clean.
  // Record timestamps and monotonic_ns() share one timeline
  // (platform/clock.hpp); the TSC extrapolation error over a campaign is
  // well under one sampling interval.
  obs::TelemetryPlane& plane = obs::TelemetryPlane::global();
  if (plane.slo_configured() && plane.sample_count() > 0) {
    for (std::size_t i = 0; i < schedule.scenarios.size(); ++i) {
      const std::uint64_t clear_ns =
          campaign_t0_ns +
          static_cast<std::uint64_t>(schedule.scenarios[i].clear_s() * 1e9);
      double rec = -1.0;
      plane.visit_records([&](const obs::TelemetryRecord& r) {
        if (rec >= 0.0 || r.t_ns < clear_ns) return;
        if (r.slo_breached == 0) {
          rec = static_cast<double>(r.t_ns - clear_ns) / 1e6;
        }
      });
      result.outcomes[i].slo_recovery_ms = rec;
    }
  }
  return result;
}

// One-line-per-scenario human-readable campaign report.
inline void print_chaos_result(std::FILE* out,
                               const ChaosCampaignResult& result) {
  std::fprintf(out,
               "# chaos: baseline_p99=%.3fms threshold=%.3fms submitted=%llu "
               "delivered=%llu drained=%llu shed=%llu rejected=%llu "
               "reroutes=%llu breaker_trips=%llu submit_faults=%llu\n",
               result.baseline_p99_ms, result.recovery_threshold_ms,
               static_cast<unsigned long long>(result.submitted),
               static_cast<unsigned long long>(result.delivered),
               static_cast<unsigned long long>(result.drained),
               static_cast<unsigned long long>(result.shed),
               static_cast<unsigned long long>(result.rejected),
               static_cast<unsigned long long>(result.reroutes),
               static_cast<unsigned long long>(result.breaker_trips),
               static_cast<unsigned long long>(result.submit_faults));
  std::fprintf(out, "# chaos: conservation %s (%s)\n",
               result.conservation_ok ? "OK" : "VIOLATED",
               result.conservation.c_str());
  if (result.rank_bound > 0.0) {
    std::fprintf(out,
                 "# chaos: rank bound=%.0f samples=%llu violations=%llu "
                 "(outside fault windows: %llu)\n",
                 result.rank_bound,
                 static_cast<unsigned long long>(result.rank_samples),
                 static_cast<unsigned long long>(result.rank_violations_total),
                 static_cast<unsigned long long>(
                     result.rank_violations_outside));
  }
  for (const ChaosScenarioOutcome& o : result.outcomes) {
    char slo_buf[48] = "";
    if (o.slo_recovery_ms >= 0.0) {
      std::snprintf(slo_buf, sizeof(slo_buf), " slo_recovery=%.0fms",
                    o.slo_recovery_ms);
    }
    std::fprintf(out,
                 "# chaos:   %-20s %-12s [%.2fs..%.2fs]%s fault_p99=%.3fms "
                 "recovery=%s%s\n",
                 o.name.c_str(), o.kind.c_str(), o.start_s, o.clear_s,
                 o.applied ? "" : " (inert)", o.fault_p99_ms,
                 o.recovery_ms >= 0.0
                     ? (std::to_string(o.recovery_ms) + "ms").c_str()
                     : "NEVER",
                 slo_buf);
  }
}

}  // namespace cpq::validation
