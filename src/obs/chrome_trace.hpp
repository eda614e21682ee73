// Chrome trace-event exporter: converts the per-thread sampled op-trace
// rings (obs/metrics.hpp) into the Trace Event JSON format understood by
// Perfetto / chrome://tracing, so stalls, backoff storms, and shard steals
// become visually inspectable on a timeline instead of a text dump.
//
// Each sampled operation becomes a thread-scoped instant event
// ({"ph":"i","s":"t"}) on a synthetic thread lane named after its registry
// slice; a metadata event ({"ph":"M","name":"thread_name"}) labels each
// lane. When a telemetry plane with records is supplied, every
// TelemetryRecord additionally becomes a set of counter events ({"ph":"C"})
// — Perfetto renders each as its own counter track (throughput, p99
// quantiles, shed rate, contention deltas) aligned with the op events.
//
// Timestamps: op events are fast_timestamp() ticks, telemetry records are
// monotonic_ns. Both are mapped onto the shared monotonic-ns timeline by
// the process-wide TscClock calibration (platform/clock.hpp) — ONE
// calibration for every artifact, which is what makes the alignment hold —
// then rebased to the earliest event and emitted in microseconds.
//
// The rings hold the last kTraceCapacity sampled ops per thread (a rolling
// tail, not the full history): the export shows each thread's most recent
// window, which is exactly what a stall or end-of-run inspection needs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "platform/clock.hpp"
#include "platform/timing.hpp"

namespace cpq::obs {

// Write every live trace-ring event — plus, when `plane` is non-null and
// has records, one counter event per telemetry sample per track — as a
// Trace Event JSON document ({"traceEvents":[...]}). Returns the number of
// operation events written (metadata and counter events excluded). Zero
// events still yields a valid document.
inline std::size_t write_chrome_trace(std::FILE* out,
                                      const MetricsRegistry& registry,
                                      const TelemetryPlane* plane = nullptr) {
  struct Event {
    unsigned slice;
    std::uint8_t op;
    std::uint64_t key;
    std::uint64_t t_ns;  // monotonic-ns timeline
  };
  const TscClock& clock = tsc_clock();
  std::vector<Event> events;
  registry.visit_trace_events([&](unsigned slice, std::uint8_t op,
                                  std::uint64_t key, std::uint64_t ts) {
    events.push_back(Event{slice, op, key, clock.to_ns(ts)});
  });

  struct CounterPoint {
    std::uint64_t t_ns;
    double delivered_per_s;
    double submitted_per_s;
    double shed_pct;
    double p99_sojourn_us;
    double p99_latency_us;
    double rank_p90;
    double in_flight;
    std::uint64_t cas_retry;
    std::uint64_t lock_retry;
  };
  std::vector<CounterPoint> points;
  if (plane != nullptr) {
    plane->visit_records([&](const TelemetryRecord& r) {
      CounterPoint p{};
      p.t_ns = r.t_ns;
      p.delivered_per_s = r.delivered_per_s;
      p.submitted_per_s = r.submitted_per_s;
      p.shed_pct = r.shed_pct;
      p.p99_sojourn_us = r.sojourn.count
                             ? static_cast<double>(r.sojourn.p99) / 1000.0
                             : std::nan("");
      p.p99_latency_us = r.latency.count
                             ? static_cast<double>(r.latency.p99) / 1000.0
                             : std::nan("");
      p.rank_p90 = r.rank_samples ? r.rank_p90 : std::nan("");
      p.in_flight = r.gauges.find("in_flight").value_or(std::nan(""));
      p.cas_retry =
          r.counters[static_cast<unsigned>(Counter::kCasRetry)];
      p.lock_retry =
          r.counters[static_cast<unsigned>(Counter::kLockRetry)];
      points.push_back(p);
    });
  }

  std::uint64_t base = ~std::uint64_t{0};
  for (const Event& e : events) base = std::min(base, e.t_ns);
  for (const CounterPoint& p : points) base = std::min(base, p.t_ns);
  if (base == ~std::uint64_t{0}) base = 0;

  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  // One thread_name metadata event per populated lane.
  std::vector<unsigned> lanes;
  for (const Event& e : events) {
    if (std::find(lanes.begin(), lanes.end(), e.slice) == lanes.end()) {
      lanes.push_back(e.slice);
    }
  }
  std::sort(lanes.begin(), lanes.end());
  for (const unsigned lane : lanes) {
    std::fprintf(out,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"bench worker slice %u\"}}",
                 first ? "" : ",", lane + 1, lane);
    first = false;
  }
  for (const Event& e : events) {
    const double us = static_cast<double>(e.t_ns - base) / 1000.0;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,"
                 "\"args\":{\"key\":%llu,\"sample_period\":%llu}}",
                 first ? "" : ",", trace_op_name(e.op), e.slice + 1, us,
                 static_cast<unsigned long long>(e.key),
                 static_cast<unsigned long long>(kTraceSampleMask + 1));
    first = false;
  }
  // Counter tracks: tid 0 keeps them grouped above the worker lanes.
  // Perfetto wants finite numbers; samples where a value is unavailable
  // (empty quantile window, absent gauge) skip that track's point rather
  // than plot a fake zero.
  const auto counter_event = [&](const char* name, std::uint64_t t_ns,
                                 double value) {
    if (!std::isfinite(value)) return;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"args\":{\"value\":%.6g}}",
                 first ? "" : ",", name,
                 static_cast<double>(t_ns - base) / 1000.0, value);
    first = false;
  };
  for (const CounterPoint& p : points) {
    counter_event("delivered_per_s", p.t_ns, p.delivered_per_s);
    counter_event("submitted_per_s", p.t_ns, p.submitted_per_s);
    counter_event("shed_pct", p.t_ns, p.shed_pct);
    counter_event("p99_sojourn_us", p.t_ns, p.p99_sojourn_us);
    counter_event("p99_latency_us", p.t_ns, p.p99_latency_us);
    counter_event("rank_p90", p.t_ns, p.rank_p90);
    counter_event("in_flight", p.t_ns, p.in_flight);
    counter_event("cas_retry_delta", p.t_ns,
                  static_cast<double>(p.cas_retry));
    counter_event("lock_retry_delta", p.t_ns,
                  static_cast<double>(p.lock_retry));
  }
  std::fprintf(out, "],\"displayTimeUnit\":\"ns\"}\n");
  return events.size();
}

}  // namespace cpq::obs
