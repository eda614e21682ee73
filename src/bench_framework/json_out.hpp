// Machine-readable benchmark results: one JSON object per line ("JSON
// Lines"), one line per (experiment, threads, queue, metric) cell.
//
// The ASCII tables are for humans; perf-trajectory tooling needs something
// it can parse without scraping column widths. Passing --json[=path] to
// cpq_bench_cli makes every table-producing helper additionally append
// records of the form
//
//   {"schema_version":4,"experiment":"Fig. 1 — uniform workload, uniform32
//    keys","threads":4,"queue":"mq","metric":"throughput_mops",
//    "mean":12.34,"ci95":0.56,"reps":3,"status":"ok"}
//
// to <path> ("-" writes to stdout). Appending (not truncating) lets several
// presets or modes accumulate into a single BENCH_*.json trajectory file.
// The writer and the parser below round-trip exactly
// (tests/bench_framework_test.cpp), so downstream tooling can rely on the
// schema.
#pragma once

#include <string>

namespace cpq::bench {

// Schema version emitted with every record. History:
//   1 — implicit (no schema_version key): the original 7-key cell schema.
//   2 — adds "schema_version" itself, allows "mean":null for metrics that
//       are structurally unavailable (e.g. perf counters the container
//       denies — distinct from both a measured 0 and a failed cell), and
//       introduces the rank_est_* / perf_*_per_op metric names.
//   3 — introduces the layout_* (layout-sensitivity spread from interleaved
//       runs) and burst_* (open-loop MMPP arrival diagnostics) metric
//       families emitted by the workloads subsystem. Both are
//       informational: bench_compare.py never treats them as regressions.
//   4 — the telemetry plane: introduces the ts_* (time-series sampler
//       totals) and slo_* (SLO burn/breach accounting) informational metric
//       families, and is shared with the standalone telemetry time-series
//       JSONL export (obs/timeseries.hpp writes "kind":"telemetry" lines
//       stamped with the same schema_version).
inline constexpr unsigned kJsonSchemaVersion = 4;
// Oldest version the parser accepts: v3 lines are valid v4 lines (v4 only
// added metric families); v1/v2 lines are rejected.
inline constexpr unsigned kMinJsonSchemaVersion = 3;

struct JsonRecord {
  std::string experiment;  // e.g. "fig1_uniform_uniform"
  std::string queue;       // registry name, e.g. "klsm256"
  std::string metric;      // e.g. "throughput_mops", "rank_error_mean"
  unsigned threads = 0;
  double mean = 0.0;
  double ci95 = 0.0;
  unsigned reps = 0;
  // "ok" or "failed". A failed cell (every repetition threw) zeroes mean
  // and ci95; the explicit status keeps it distinguishable from a real
  // measurement of 0. Always emitted and required on parse.
  std::string status = "ok";
  // Fields below are appended so existing aggregate-initialized literals
  // keep their meaning.
  unsigned schema_version = kJsonSchemaVersion;
  // True renders "mean":null (and mean is ignored): the metric could not be
  // measured in this environment at all.
  bool mean_is_null = false;

  bool operator==(const JsonRecord&) const = default;
};

// Serialize to a single JSON object line (no trailing newline). Strings are
// escaped per RFC 8259 (quote, backslash, control characters).
std::string to_json_line(const JsonRecord& record);

// Parse a line produced by to_json_line (tolerating whitespace between
// tokens and any key order). Returns false on malformed input, on missing
// keys (schema_version and status included), and on a schema_version
// outside [kMinJsonSchemaVersion, kJsonSchemaVersion]; unknown keys are
// rejected so schema drift fails loudly in tests.
bool parse_json_record(const std::string& line, JsonRecord& out);

// Process-wide sink. Disabled until set_path() is called; record() is
// thread-safe and appends one line per call.
class JsonSink {
 public:
  static JsonSink& instance();

  // Set the destination: "" disables, "-" writes to stdout, anything else
  // appends to that file.
  void set_path(std::string path);

  bool enabled() const;
  void record(const JsonRecord& record);

 private:
  JsonSink() = default;

  std::string path_;
};

}  // namespace cpq::bench
