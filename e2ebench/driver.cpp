// End-to-end benchmark driver: runs one workload in this process and prints
// its metrics, human-readable lines first and one JSON record last.
//
//   e2e_driver --workload sssp-klsm256|dispatch|overload --seed N
//              --seconds S --trace 0|1 [--trace-out FILE]
//   e2e_driver --self-test
//   e2e_driver --list-metrics
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes a Chrome trace to --trace-out. Exit codes: 0 the run
// passed its correctness gate, 1 it did not (the record says
// "correct": false and carries no metrics), 2 bad invocation.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "service_load.hpp"
#include "sssp.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_driver: %s\n"
               "usage: e2e_driver --workload sssp-klsm256|dispatch|overload "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       e2e_driver --self-test | --list-metrics\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

// The benchmark's own arithmetic, checked on samples whose answers are known.
int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  using e2e::Histogram;

  Histogram small;  // 1..200: every value below 256 has its own bucket
  for (std::uint64_t v = 1; v <= 200; ++v) small.add(v);
  expect(small.count() == 200, "sample count is the number of samples added");
  expect(small.percentile(50) == 100, "p50 of 1..200 is 100 (nearest rank)");
  expect(small.percentile(99) == 198, "p99 of 1..200 is 198 (rank ceil(198))");
  expect(small.percentile(100) == 200, "p100 is the maximum");
  expect(small.beyond(99) == 2, "2 samples of 200 lie beyond p99");

  Histogram wide;  // 1..1000: buckets above 255 are 2 or 4 wide
  for (std::uint64_t v = 1; v <= 1000; ++v) wide.add(v);
  // Rank 500 is the first of bucket [500, 501]; rank 990 the third of
  // [988, 991]: interpolated by rank across the bucket.
  expect(wide.percentile(50) == 500.5, "p50 of 1..1000 interpolates to 500.5");
  expect(wide.percentile(99) == 990.25, "p99 of 1..1000 interpolates to 990.25");
  bool bounded = true;
  e2e::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next() >> (rng.below(60));
    const std::size_t b = Histogram::index(v);
    const std::uint64_t lo = Histogram::lower_edge(b);
    const std::uint64_t hi = Histogram::upper_edge(b);
    bounded = bounded && lo <= v && v <= hi && hi - lo <= lo / 128;
  }
  expect(bounded, "every value lies in a bucket narrower than 1/128 of it");

  {
    Histogram thin;
    for (std::uint64_t v = 0; v < 999; ++v) thin.add(v);
    e2e::Report r;
    e2e::checked_percentile(r, thin, 99, "thin");
    expect(!r.correct, "p99 of 999 samples (9 beyond) fails the run");
    thin.add(999);
    e2e::Report r2;
    e2e::checked_percentile(r2, thin, 99, "thin");
    expect(r2.correct, "p99 of 1000 samples (10 beyond) is reported");
  }

  expect(e2e::median({3, 1, 2}) == 2, "median of an odd sample");
  expect(e2e::median({4, 1, 3, 2}) == 2.5, "median of an even sample");
  expect(e2e::pct(1, 0) == 0, "a ratio over a zero base reads 0");

  // Ratio bases.
  expect(e2e::service_load::failed_pct(25, 100) == 25.0,
         "failed_pct is (rejected + shed) over tasks offered");
  expect(e2e::sssp::extra_pop_pct(3030, 1000, 3) == 1.0,
         "extra_pop_pct is over the oracle's pops times the solve count");
  expect(e2e::sssp::extra_pop_pct(3000, 1000, 3) == 0.0,
         "no relaxation waste reads 0");

  // Units and the metric set.
  {
    e2e::Report r;
    r.add("setup_s", 1, "s");
    r.add("peak_rss_mb", 1, "MB");
    r.add("goodput_per_s", 1, "1/s");
    r.add("sojourn_p50_us", 1, "us");
    r.add("sojourn_p90_us", 1, "us");
    r.add("urgent_sojourn_p90_us", 1, "us");
    r.finish(e2e::kEndToEnd, false);
    expect(r.correct && r.metrics.size() == std::size(e2e::kEndToEnd),
           "a complete end-to-end set passes");
  }
  {
    e2e::Report r;
    r.add("setup_s", 1, "ms");
    r.finish(e2e::kEndToEnd, false);
    expect(!r.correct, "a wrong unit or a missing end-to-end metric fails");
  }
  {
    e2e::Report r;
    r.add("queues.busy_pct", 5, "%");
    r.add("no.such_metric", 1, "count");
    r.finish(e2e::kPerLayer, true);
    expect(!r.correct, "an undefined metric name fails");
  }
  {
    e2e::Report r;
    r.add("queues.busy_pct", 5, "%");
    r.finish(e2e::kPerLayer, true);
    bool units = r.correct && r.metrics.size() == std::size(e2e::kPerLayer);
    for (const e2e::Metric& m : r.metrics) units = units && !m.unit.empty();
    expect(units, "per-layer metrics a workload does not reach read 0, "
                  "every one with its unit");
  }

  // Task values carry id and due time through the service unchanged.
  using namespace e2e::service_load;
  const std::uint64_t v = pack(123456, 987654321);
  expect(id_of(v) == 123456 && due_of(v) == 987654320 && v < (1ull << 63),
         "task value round-trips id and due time (8 ns units, below 2^63)");

  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--list-metrics") {
      for (const e2e::MetricDef& d : e2e::kEndToEnd) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const e2e::MetricDef& d : e2e::kPerLayer) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, seed)) return usage("--seed must be an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds < 1 || seconds > 120) {
        return usage("--seconds must be 1..120");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) {
        return usage("--trace must be 0 or 1");
      }
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (trace == 1 && trace_out.empty()) {
    return usage("--trace 1 needs --trace-out");
  }

  e2e::Report report;
  const auto secs = static_cast<unsigned>(seconds);
  if (workload == "sssp-klsm256") {
    report = e2e::sssp::run(seed, secs, trace == 1, trace_out);
  } else if (workload == e2e::service_load::kDispatch.name) {
    report = e2e::service_load::run(e2e::service_load::kDispatch, seed, secs,
                                    trace == 1, trace_out);
  } else if (workload == e2e::service_load::kOverload.name) {
    report = e2e::service_load::run(e2e::service_load::kOverload, seed, secs,
                                    trace == 1, trace_out);
  } else {
    return usage("unknown workload");
  }
  if (report.correct) {
    if (trace == 1) {
      report.finish(e2e::kPerLayer, true);
    } else {
      report.finish(e2e::kEndToEnd, false);
    }
  }
  e2e::print_report(report);
  return report.correct ? 0 : 1;
}
