// Measurement arithmetic shared by the benchmark's workloads: the seeded
// input generator, clocks, the latency histogram and its percentile rule,
// metric records, peak RSS, and the Chrome trace writer.
//
// Everything that decides what is offered or how a number is computed lives
// here or in the workload headers, never in src/: a later change to the
// library cannot change the inputs or the arithmetic that judges it.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace e2e {

// SplitMix64: the benchmark's own generator, so the inputs for a seed stay
// fixed whatever happens to the library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double exponential(double mean) { return -std::log1p(-unit()) * mean; }

 private:
  std::uint64_t state_;
};

// Independent stream `stream` of the run's seed.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Cheap per-call timer for the traced run: TSC ticks on x86-64, mapped onto
// now_ns() by a calibration taken once per process (first use spins 20 ms,
// so callers take it before any timed region).
inline std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

class TickScale {
 public:
  static const TickScale& get() {
    static const TickScale scale;
    return scale;
  }
  double ns(std::uint64_t tick_count) const {
    return static_cast<double>(tick_count) * ns_per_tick_;
  }
  // A per-call duration in the histogram unit of call_ns_percentile().
  std::uint64_t call_units(std::uint64_t tick_count) const {
    return static_cast<std::uint64_t>(ns(tick_count) * kCallUnitsPerNs);
  }
  // Per-call timings are kept in 1/16 ns, so percentiles of calls of a few
  // hundred ns are interpolated values, not integers that repeat exactly
  // from run to run.
  static constexpr double kCallUnitsPerNs = 16.0;
  std::uint64_t to_ns(std::uint64_t tick) const {
    const double delta =
        static_cast<double>(static_cast<std::int64_t>(tick - base_tick_)) *
        ns_per_tick_;
    return static_cast<std::uint64_t>(static_cast<double>(base_ns_) + delta);
  }

 private:
  TickScale() {
    const std::uint64_t ns0 = now_ns();
    const std::uint64_t t0 = ticks();
    std::uint64_t ns1 = ns0;
    while (ns1 - ns0 < 20'000'000) ns1 = now_ns();
    base_tick_ = ticks();
    base_ns_ = ns1;
    ns_per_tick_ = base_tick_ > t0 ? static_cast<double>(ns1 - ns0) /
                                         static_cast<double>(base_tick_ - t0)
                                   : 1.0;
  }
  std::uint64_t base_tick_ = 0;
  std::uint64_t base_ns_ = 0;
  double ns_per_tick_ = 1.0;
};

// Log-linear histogram of non-negative integer samples: exact below 256,
// above that each bucket spans less than 1/128 of its lower edge.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kBuckets = (65 - kSubBits) << kSubBits;

  Histogram() : counts_(kBuckets, 0) {}

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++total_;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  std::uint64_t count() const { return total_; }

  // Nearest-rank percentile: rank ceil(p/100 * n) falls in some bucket;
  // the value is interpolated by rank across that bucket's width, so it is
  // exact in buckets of width 1 and never quantized to a bucket edge
  // elsewhere. 0 when empty.
  double percentile(double p) const {
    if (total_ == 0) return 0;
    const std::uint64_t rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil(p * static_cast<double>(total_) / 100.0)),
        1, total_);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (before + counts_[i] >= rank) {
        const double lower = static_cast<double>(lower_edge(i));
        const double width = static_cast<double>(upper_edge(i) - lower_edge(i));
        return lower + width * static_cast<double>(rank - before) /
                           static_cast<double>(counts_[i]);
      }
      before += counts_[i];
    }
    return static_cast<double>(upper_edge(kBuckets - 1));
  }

  // Samples strictly above percentile p's rank: the guide's rule is to
  // report a percentile only when at least ten samples lie beyond it.
  std::uint64_t beyond(double p) const {
    const double exact = std::ceil(p * static_cast<double>(total_) / 100.0);
    return total_ - std::min<std::uint64_t>(
                        total_, static_cast<std::uint64_t>(exact));
  }

  static std::size_t index(std::uint64_t v) {
    if (v < (2u << kSubBits)) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(v >> shift);
  }
  static std::uint64_t lower_edge(std::size_t i) {
    if (i < (2u << kSubBits)) return i;
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    return ((i & ((1u << kSubBits) - 1)) | (1u << kSubBits)) << shift;
  }
  static std::uint64_t upper_edge(std::size_t i) {
    if (i < (2u << kSubBits)) return i;
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    const std::uint64_t sub = (i & ((1u << kSubBits) - 1)) | (1u << kSubBits);
    return ((sub + 1) << shift) - 1;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Median of a small sample (mean of the middle pair when the size is even).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// part / base as a percentage; 0 when the base is 0 (the layer did no work).
inline double pct(double part, double base) {
  return base > 0.0 ? 100.0 * part / base : 0.0;
}
inline double per(double part, double base) {
  return base > 0.0 ? part / base : 0.0;
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One reported number. `base` says what a ratio or percentile was taken
// over; it is printed beside the value, never into the JSON record.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric definitions: BENCHMARK.json lists the same names and units,
// and run.py refuses a run whose record differs from it. Every workload
// reports every end-to-end metric; a per-layer metric of a layer the
// workload does not reach is reported as 0.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"goodput_per_s", "1/s"},
    {"sojourn_p50_us", "us"},
    {"sojourn_p90_us", "us"},
    {"urgent_sojourn_p90_us", "us"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"queues.insert_ns_p50", "ns"},
    {"queues.insert_ns_p99", "ns"},
    {"queues.delete_ns_p50", "ns"},
    {"queues.delete_ns_p99", "ns"},
    {"queues.empty_pop_pct", "%"},
    {"queues.extra_pop_pct", "%"},
    {"queues.busy_pct", "%"},
    {"app.busy_pct", "%"},
    {"mm.pool_fresh", "count"},
    {"mm.pool_reuse_pct", "%"},
    {"mm.ebr_retired", "count"},
    {"mm.ebr_backlog", "count"},
    {"platform.cas_retry_per_op", "1/op"},
    {"platform.lock_retry_per_op", "1/op"},
    {"platform.backoff_per_op", "1/op"},
    {"service.submit_ns_p50", "ns"},
    {"service.submit_ns_p99", "ns"},
    {"service.delete_ns_p50", "ns"},
    {"service.delete_ns_p99", "ns"},
    {"service.empty_pop_pct", "%"},
    {"service.busy_pct", "%"},
    {"service.delete_fill_pct", "%"},
    {"service.steal_pct", "%"},
    {"service.shed_pct", "%"},
    {"service.reject_pct", "%"},
    {"service.tier_reject_pct", "%"},
    {"gen.lag_p99_us", "us"},
    {"gen.offered_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit,
           std::string base = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(base)});
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }

  // Put the metrics in definition order, fill per-layer metrics the
  // workload does not reach with 0, and fail on anything else out of place:
  // a missing end-to-end metric, a unit that differs, a name reported twice,
  // a name without a definition, or a value that is not finite.
  template <std::size_t N>
  void finish(const MetricDef (&defs)[N], bool fill_missing) {
    for (const Metric& m : metrics) {
      const MetricDef* def = std::find_if(
          std::begin(defs), std::end(defs),
          [&](const MetricDef& d) { return m.name == d.name; });
      if (def == std::end(defs)) {
        fail(m.name + ": no such metric");
      } else if (m.unit != def->unit) {
        fail(m.name + ": unit " + m.unit + ", defined as " + def->unit);
      }
      if (!std::isfinite(m.value)) fail(m.name + ": value not finite");
    }
    std::vector<Metric> ordered;
    for (const MetricDef& def : defs) {
      std::size_t found = 0;
      for (const Metric& m : metrics) {
        if (m.name != def.name) continue;
        ++found;
        ordered.push_back(m);
      }
      if (found > 1) fail(std::string(def.name) + ": reported twice");
      if (found == 0) {
        if (!fill_missing) fail(std::string(def.name) + ": not reported");
        ordered.push_back({def.name, 0.0, def.unit,
                           "layer not on this workload's path"});
      }
    }
    metrics = std::move(ordered);
  }
};

// Percentile of a histogram, checked against the reporting rule: a
// percentile needs at least ten samples beyond it. A thinner sample fails
// the run instead of printing a tail the data cannot support.
inline double checked_percentile(Report& report, const Histogram& hist,
                                 double p, const std::string& what) {
  if (hist.beyond(p) < 10) {
    report.fail(what + ": " + std::to_string(hist.count()) +
                " samples are too few for p" +
                std::to_string(static_cast<int>(p)));
  }
  return hist.percentile(p);
}

// Percentile in ns of per-call durations recorded with call_units().
inline double call_ns_percentile(Report& report, const Histogram& hist,
                                 double p, const std::string& what) {
  return checked_percentile(report, hist, p, what) /
         TickScale::kCallUnitsPerNs;
}

// Human-readable lines first, then the one JSON record as the last line.
// A run that failed its gate reports no metrics.
inline void print_report(const Report& report) {
  for (const std::string& e : report.errors) {
    std::printf("# GATE FAILED: %s\n", e.c_str());
  }
  if (report.correct) {
    for (const Metric& m : report.metrics) {
      std::printf("# %-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  if (report.correct) {
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Metric& m = report.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Chrome trace-event spans ("X" complete events), kept in memory per thread
// and written once when the run ends. Times are now_ns(); `id` ties the
// spans of one task or vertex together; `parent` names the enclosing span.
struct Span {
  const char* name;
  const char* parent;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;
};

inline bool write_chrome_trace(const std::string& path,
                               const std::vector<std::vector<Span>>& per_thread,
                               const std::vector<std::string>& thread_names,
                               std::uint64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t t = 0; t < thread_names.size(); ++t) {
    std::fprintf(out,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", t, thread_names[t].c_str());
    first = false;
  }
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    for (const Span& s : per_thread[t]) {
      const std::uint64_t start =
          s.start_ns > origin_ns ? s.start_ns - origin_ns : 0;
      const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu%s%s%s}}",
                   first ? "" : ",\n", s.name, t,
                   static_cast<double>(start) / 1000.0,
                   static_cast<double>(dur) / 1000.0,
                   static_cast<unsigned long long>(s.id),
                   s.parent != nullptr ? ", \"parent\": \"" : "",
                   s.parent != nullptr ? s.parent : "",
                   s.parent != nullptr ? "\"" : "");
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace e2e
