// cpq_bench_cli — the benchmark driver (paper §F wish list, in the spirit
// of Gramoli's Synchrobench). Every paper figure/table and every extension
// experiment is a named preset or a mode; `--list` prints both.
//
//   --preset=NAME             run one preset: the fixed panels (mode,
//                             workload, keys, insert fraction, arrivals)
//                             that reproduce one artifact, over its default
//                             roster. Composes with --threads --ms --reps
//                             --prefill --ops --seed --queues --json
//                             --metrics, the telemetry flags, --trace-out
//                             and --dump-traces; any other flag exits 2
//   --queues=glock,linden,…   roster (default: the paper's seven, or the
//                             preset's); an unknown name exits 2
//   --mode=throughput|quality|latency|sort|service
//   --workload=uniform|split|alternating|batch|pcsplit
//   --batch=N                 operation batch size (implies --workload=batch)
//   --keys=uniform32|uniform16|uniform8|ascending|descending|hold
//             |zipf:THETA[,BITS]|hotspot:OPS,KEYS[,BITS]|dijkstra:MIN,MAX
//   --key-dist=SPEC           alias for --keys (workload-subsystem spelling)
//   --producer-fraction=F     fraction of threads that insert (pcsplit)
//   --arrivals=closed|poisson:HZ|mmpp:HZ_ON,HZ_OFF,ON_MS,OFF_MS
//                             open-loop arrival pacing per worker thread
//                             (throughput and service modes; default closed)
//   --interleave              run all queues in one process, one repetition
//                             at a time in shuffled order, and report the
//                             per-queue layout_* spread (throughput mode)
//   --perturb-layout          randomize heap layout between repetitions and
//                             shuffle prefill insertion order
//   --insert-fraction=0.5     operation distribution (uniform workload)
//   --prefill=100000
//   --threads=1,2,4,8         thread ladder, each entry 1..1024
//   --ms=60                   throughput window  (throughput mode)
//   --ops=20000               ops per thread     (quality/latency modes)
//   --reps=3
//   --seed=42
//   --json[=path]             append JSON-lines records (default stdout)
//   --metrics                 report metrics-registry counters, live
//                             rank-error estimates, and hardware perf
//                             counters per cell (latency mode also prints
//                             histograms)
//   --trace-out=FILE          write the sampled op-trace rings as Chrome
//                             trace-event JSON (chrome://tracing, Perfetto)
//                             at run end; with --telemetry-hz the telemetry
//                             snapshots ride along as ph:"C" counter tracks
//   --dump-traces             dump the op-trace rings to stderr at normal
//                             run end (the watchdog already dumps on stall)
//   --force-stall             deliberately trip the progress watchdog and
//                             exit 86 (exercises the stall-dump path)
//   --list                    print queues, modes and presets, then exit
//
// Service mode only (exit 2 with any other mode):
//   --arrival-hz=N            offered load per producer (0 = closed loop)
//   --checked                 wrap queues in CheckedQueue; a conservation
//                             violation exits 1
//   --ttl-us=N                task time-to-live, expired tasks are shed at
//                             pop (0 = off)
//   --max-in-flight=N         admission bound (0 = unbounded, else at least
//                             --prefill, which is admitted before any
//                             consumer runs)
//   --policy=block|reject|tiered
//                             admission under pressure (default block)
//   --breaker-trip-us=N       per-shard circuit-breaker trip latency
//                             (0 = off)
//
// Telemetry plane (obs/timeseries.hpp):
//   --telemetry-hz=HZ         sample live metrics at HZ on a background
//                             thread (default 0 = off: one relaxed load per
//                             hook and no thread)
//   --timeseries-out=FILE     write the samples as JSON Lines (schema v4,
//                             "kind":"telemetry"; tools/check_timeseries.py)
//   --prom-out=FILE           Prometheus-style text dump of final totals
//   --slo=SPEC                per-sample objectives with burn-rate breach
//                             tracking, e.g. p99_sojourn_us<500,shed_pct<1
//                             (grammar: src/obs/slo.hpp)
// The last three exit 2 without --telemetry-hz > 0: they would otherwise
// produce empty artifacts that look like measurements.
//
// Chaos campaigns:
//   --chaos=FILE              run the declarative fault campaign in FILE
//                             (format: src/validation/chaos.hpp) against a
//                             PriorityService over --queues=glock|mq
//                             (default mq); exit 0 ok / 1 an assertion
//                             failed / 2 usage
//
// Defaults reproduce a quick Fig.-1-style run. The driver reads no
// environment variables of its own (the library's CPQ_WATCHDOG_S,
// CPQ_STALL_DUMP_DIR and CPQ_INJECT_* still apply). Unknown flags and
// malformed values exit with status 2, naming the bad value, before any
// measurement starts. A benchmark cell whose repetitions all failed renders
// as "failed" and makes the process exit 1.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "queues/globallock.hpp"
#include "queues/multiqueue.hpp"
#include "validation/chaos.hpp"
#include "validation/chaos_campaign.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace cpq::bench;

// Flags that still apply with --preset; every other flag is one the preset
// fixes (or one that does not apply to it) and exits 2.
constexpr const char* kPresetFlags[] = {
    "--preset",    "--threads",     "--ms",           "--reps",
    "--prefill",   "--ops",         "--seed",         "--queues",
    "--json",      "--metrics",     "--trace-out",    "--dump-traces",
    "--telemetry-hz", "--timeseries-out", "--prom-out", "--slo"};

// Flags that only configure --mode=service.
constexpr const char* kServiceFlags[] = {"--arrival-hz", "--checked",
                                         "--ttl-us",     "--max-in-flight",
                                         "--policy",     "--breaker-trip-us"};

bool contains(const auto& names, const std::string& flag) {
  return std::find(std::begin(names), std::end(names), flag) !=
         std::end(names);
}

bool parse_flag(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    value.assign(arg + len + 1);
    return true;
  }
  return false;
}

// Strict numeric parsing: the whole value must be consumed, so typos like
// "--reps=3x" or "--prefill=" fail loudly instead of silently becoming 3/0.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (text[0] == '-') return false;  // strtoull silently wraps negatives
  out = value;
  return true;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

int bad_value(const char* flag, const std::string& value, const char* want) {
  std::fprintf(stderr, "cpq_bench_cli: invalid value for %s: '%s' (%s)\n",
               flag, value.c_str(), want);
  return 2;
}

bool parse_workload(const std::string& text, cpq::workloads::Workload& out) {
  using cpq::workloads::Workload;
  for (const Workload workload :
       {Workload::kUniform, Workload::kSplit, Workload::kAlternating,
        Workload::kBatch, Workload::kPcSplit}) {
    if (text == cpq::workloads::workload_name(workload)) {
      out = workload;
      return true;
    }
  }
  return false;
}

bool parse_policy(const std::string& text,
                  cpq::service::AdmissionPolicy& out) {
  using cpq::service::AdmissionPolicy;
  if (text == "block") out = AdmissionPolicy::kBlock;
  else if (text == "reject") out = AdmissionPolicy::kReject;
  else if (text == "tiered") out = AdmissionPolicy::kTiered;
  else return false;
  return true;
}

int usage(const char* argv0, const char* unknown) {
  std::fprintf(stderr, "cpq_bench_cli: unknown flag '%s'\n", unknown);
  std::fprintf(stderr,
               "usage: %s [--preset=NAME] [--queues=a,b] [--mode=M]\n"
               "          [--workload=W] [--batch=N] [--keys=K] "
               "[--key-dist=K]\n"
               "          [--producer-fraction=F] [--insert-fraction=F]\n"
               "          [--arrivals=closed|poisson:HZ|mmpp:...] "
               "[--interleave] [--perturb-layout]\n"
               "          [--prefill=N] [--threads=1,2,4] [--ms=N] "
               "[--ops=N] [--reps=N] [--seed=N]\n"
               "          [--arrival-hz=N] [--checked] [--ttl-us=N] "
               "[--max-in-flight=N]\n"
               "          [--policy=block|reject|tiered] "
               "[--breaker-trip-us=N]\n"
               "          [--json[=path]] [--metrics] [--trace-out=FILE] "
               "[--dump-traces]\n"
               "          [--telemetry-hz=HZ] [--timeseries-out=FILE] "
               "[--prom-out=FILE] [--slo=SPEC]\n"
               "          [--chaos=FILE] [--force-stall] [--list]\n",
               argv0);
  return 2;
}

int list_registry() {
  std::printf("queues:\n");
  for (const QueueSpec& spec : queue_registry()) {
    std::printf("  %-12s %s%s\n", spec.name.c_str(), spec.description.c_str(),
                spec.in_paper ? "  [paper roster]" : "");
  }
  std::printf("benchmarks (--mode=...):\n");
  for (const BenchModeSpec& mode : bench_mode_registry()) {
    std::printf("  %-12s %s\n", mode.name.c_str(), mode.description.c_str());
  }
  std::printf("presets (--preset=...):\n");
  for (const PresetSpec& preset : preset_registry()) {
    std::printf("  %-25s %s\n", preset.name.c_str(),
                preset.reproduces.c_str());
    std::printf("  %-25s queues: %s\n", "",
                preset.roster.empty() ? "the paper roster"
                                      : preset.roster.c_str());
  }
  return 0;
}

// --force-stall: deliberately trip the progress watchdog so the whole
// stall-dump path (progress snapshot + metrics counters + per-thread trace
// rings) is exercised end to end against the real binary. Two fake workers
// tick a handful of operations and record trace events, then freeze; the
// watchdog fires after CPQ_WATCHDOG_S (default 0.5 s here) and _Exit()s
// with the watchdog exit code (86). Calls the obs:: functions directly —
// not the CPQ_COUNT/CPQ_TRACE_OP macros — so the dump has content even in
// builds with the hot-path hooks compiled out (-DCPQ_METRICS=OFF).
int force_stall() {
  cpq::obs::MetricsRegistry::global().reset();
  std::vector<cpq::validation::WorkerProgress> workers(2);
  cpq::obs::count(cpq::obs::Counter::kCasRetry, 3);
  cpq::obs::count(cpq::obs::Counter::kBackoffPause, 7);
  for (unsigned tid = 0; tid < 2; ++tid) {
    for (std::uint64_t op = 1; op <= 40; ++op) {
      cpq::obs::trace(cpq::obs::TraceOp::kInsert, 1000 * (tid + 1) + op);
      workers[tid].tick(op, cpq::validation::LastOp::kInsert);
    }
  }
  const double deadline = cpq::validation::watchdog_deadline(-1.0, 0.5);
  if (deadline <= 0.0) {
    std::fprintf(stderr,
                 "cpq_bench_cli: --force-stall needs CPQ_WATCHDOG_S > 0\n");
    return 2;
  }
  cpq::validation::Watchdog dog("force-stall", workers.data(), workers.size(),
                                deadline, metrics_diagnostics());
  // Never tick again; the watchdog thread dumps and exits the process.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(deadline * 20.0 + 10.0));
  std::fprintf(stderr,
               "cpq_bench_cli: --force-stall: watchdog never fired\n");
  return 1;
}

// ---- telemetry plane -----------------------------------------------------

struct TelemetryOptions {
  double hz = 0.0;  // 0 = plane never starts
  std::string timeseries_out;
  std::string prom_out;
  std::vector<cpq::obs::SloObjective> objectives;

  bool enabled() const noexcept { return hz > 0.0; }
};

// Start the plane for a run. No-op when sampling is off.
void telemetry_begin(const TelemetryOptions& opts) {
  if (!opts.enabled()) return;
  cpq::obs::TelemetryPlane& plane = cpq::obs::TelemetryPlane::global();
  plane.reset();
  if (!opts.objectives.empty()) plane.set_slo(opts.objectives);
  plane.start(opts.hz);
}

// Stop the plane, print the "# telemetry" summary (complete lines before
// any JSON records — the sink may share stdout), emit the informational
// ts_*/slo_* records, and write the requested artifacts. Returns 0, or 1
// when an output file could not be written (the measurements still stand).
int telemetry_finish(const TelemetryOptions& opts,
                     const std::string& experiment) {
  if (!opts.enabled()) return 0;
  cpq::obs::TelemetryPlane& plane = cpq::obs::TelemetryPlane::global();
  plane.stop();
  int rc = 0;
  const std::uint64_t samples = plane.sample_count();
  const std::uint64_t dropped = plane.dropped();
  std::printf("# telemetry: %llu samples @ %g Hz (%llu overwritten)\n",
              static_cast<unsigned long long>(samples), opts.hz,
              static_cast<unsigned long long>(dropped));
  if (plane.slo_configured()) {
    plane.with_slo(
        [](const cpq::obs::SloTracker& slo) { slo.dump(stdout); });
  }

  const auto emit = [&](const std::string& metric, double mean) {
    JsonSink::instance().record(
        {experiment, "telemetry", metric, 0, mean, 0.0, 1});
  };
  emit("ts_samples", static_cast<double>(samples));
  emit("ts_dropped", static_cast<double>(dropped));
  if (plane.slo_configured()) {
    plane.with_slo([&](const cpq::obs::SloTracker& slo) {
      for (std::size_t i = 0; i < slo.size(); ++i) {
        const cpq::obs::SloTracker::ObjectiveState& st = slo.state(i);
        const std::string spec = st.objective.to_string();
        emit("slo_samples:" + spec, static_cast<double>(st.samples));
        emit("slo_bad:" + spec, static_cast<double>(st.bad));
        emit("slo_episodes:" + spec, static_cast<double>(st.episodes));
        emit("slo_breach_ms:" + spec,
             static_cast<double>(slo.breach_ns(i, st.last_t_ns)) / 1e6);
      }
    });
  }

  if (!opts.timeseries_out.empty()) {
    if (std::FILE* f = std::fopen(opts.timeseries_out.c_str(), "w")) {
      const std::size_t lines = plane.write_jsonl(f);
      std::fclose(f);
      std::printf("# telemetry: wrote %zu time-series records to %s\n",
                  lines, opts.timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "cpq_bench_cli: cannot write --timeseries-out=%s\n",
                   opts.timeseries_out.c_str());
      rc = 1;
    }
  }
  if (!opts.prom_out.empty()) {
    if (std::FILE* f = std::fopen(opts.prom_out.c_str(), "w")) {
      plane.write_prometheus(f);
      std::fclose(f);
      std::printf("# telemetry: wrote Prometheus dump to %s\n",
                  opts.prom_out.c_str());
    } else {
      std::fprintf(stderr, "cpq_bench_cli: cannot write --prom-out=%s\n",
                   opts.prom_out.c_str());
      rc = 1;
    }
  }
  return rc;
}

// ---- chaos campaigns -----------------------------------------------------

std::string chaos_campaign_label(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.resize(dot);
  return "chaos_" + stem;
}

void emit_chaos_json(const std::string& label, const std::string& queue_name,
                     unsigned threads,
                     const cpq::validation::ChaosCampaignResult& result) {
  JsonSink& sink = JsonSink::instance();
  if (!sink.enabled()) return;
  auto emit = [&](const std::string& metric, double mean, bool ok) {
    sink.record({label, queue_name, metric, threads, mean, 0.0, 1,
                 ok ? "ok" : "failed"});
  };
  emit("chaos_baseline_p99_ms", result.baseline_p99_ms, true);
  emit("chaos_recovery_threshold_ms", result.recovery_threshold_ms, true);
  emit("chaos_shed_total", static_cast<double>(result.shed), true);
  emit("chaos_reroutes", static_cast<double>(result.reroutes), true);
  emit("chaos_breaker_trips", static_cast<double>(result.breaker_trips),
       true);
  emit("chaos_conservation_ok", result.conservation_ok ? 1.0 : 0.0,
       result.conservation_ok);
  emit("chaos_rank_violations_outside",
       static_cast<double>(result.rank_violations_outside),
       result.rank_violations_outside == 0);
  for (const cpq::validation::ChaosScenarioOutcome& outcome :
       result.outcomes) {
    // Per-scenario recovery time; a scenario that never recovered emits
    // status "failed" with mean -1 so trajectory tooling can spot it.
    emit("chaos_recovery_ms:" + outcome.name, outcome.recovery_ms,
         outcome.recovery_ms >= 0.0);
    // Informational second opinion from the telemetry plane (first clean
    // SLO snapshot after the clear); only present when the run was sampled
    // with an --slo spec. Prefixed slo_ so bench_compare treats it as
    // informational rather than a gating metric.
    if (outcome.slo_recovery_ms >= 0.0) {
      emit("slo_recovery_ms:" + outcome.name, outcome.slo_recovery_ms, true);
    }
  }
}

// Run the chaos campaign in `schedule_path` over `queue_name` shards
// ("glock" or "mq"), print the report and emit chaos_* JSON records.
// Returns the process exit code: 0 every assertion held, 1 the campaign
// failed (conservation / rank bound / recovery), 2 unreadable or malformed
// schedule or unknown queue.
int run_chaos_from_file(const std::string& schedule_path,
                        const std::string& queue_name, std::uint64_t seed) {
  using Key = std::uint64_t;
  if (queue_name != "glock" && queue_name != "mq") {
    return bad_value("--queues", queue_name,
                     "--chaos runs one of glock, mq");
  }
  std::ifstream in(schedule_path);
  if (!in) {
    std::fprintf(stderr, "[chaos] cannot read schedule file '%s'\n",
                 schedule_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  cpq::validation::ChaosSchedule schedule;
  std::string error;
  if (!cpq::validation::parse_chaos_schedule(text.str(), schedule, error)) {
    std::fprintf(stderr, "[chaos] %s\n", error.c_str());
    return 2;
  }

  const unsigned threads = schedule.producers + schedule.consumers;
  std::printf("# chaos: campaign %s queue=%s scenarios=%zu duration=%.2fs\n",
              schedule_path.c_str(), queue_name.c_str(),
              schedule.scenarios.size(), schedule.duration_s);

  cpq::validation::ChaosCampaignResult result;
  if (queue_name == "glock") {
    result = cpq::validation::run_chaos_campaign(
        schedule, seed, [threads](unsigned) {
          return std::make_unique<cpq::GlobalLockQueue<Key, Key>>(threads);
        });
  } else {
    result = cpq::validation::run_chaos_campaign(
        schedule, seed, [threads, seed](unsigned shard) {
          return std::make_unique<cpq::MultiQueue<Key, Key>>(
              threads, 4, cpq::thread_seed(seed, shard));
        });
  }

  cpq::validation::print_chaos_result(stdout, result);
  emit_chaos_json(chaos_campaign_label(schedule_path), queue_name, threads,
                  result);
  if (!result.ok()) {
    std::fprintf(stderr, "[chaos] campaign FAILED (%s%s%s)\n",
                 result.conservation_ok ? "" : "conservation ",
                 result.rank_violations_outside == 0 ? "" : "rank-bound ",
                 result.recovered() ? "" : "recovery");
    return 1;
  }
  std::printf("# chaos: campaign OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string mode = "throughput";
  std::string preset_name;
  std::string queues;
  BenchConfig shape;  // workload, keys, arrivals, …; see base_config()
  cpq::service::ServiceBenchConfig scfg;  // service-mode knobs
  bool interleave = false;
  bool dump_traces = false;
  std::string trace_out;
  std::string chaos_file;
  TelemetryOptions telemetry;
  std::vector<std::string> given;  // every flag name on the command line

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    given.emplace_back(arg, eq == nullptr ? std::strlen(arg)
                                          : static_cast<std::size_t>(eq - arg));
    std::string value;
    if (std::strcmp(arg, "--list") == 0) {
      return list_registry();
    } else if (std::strcmp(arg, "--force-stall") == 0) {
      return force_stall();
    } else if (std::strcmp(arg, "--checked") == 0) {
      scfg.checked = true;
    } else if (std::strcmp(arg, "--interleave") == 0) {
      interleave = true;
    } else if (std::strcmp(arg, "--perturb-layout") == 0) {
      shape.perturb_layout = true;
      shape.shuffle_prefill = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics_report_enabled() = true;
    } else if (std::strcmp(arg, "--dump-traces") == 0) {
      dump_traces = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      JsonSink::instance().set_path("-");
    } else if (parse_flag(arg, "--json", value)) {
      if (value.empty()) {
        return bad_value("--json", value, "want a path or '-'");
      }
      JsonSink::instance().set_path(value);
    } else if (parse_flag(arg, "--trace-out", value)) {
      if (value.empty()) {
        return bad_value("--trace-out", value, "want a file path");
      }
      trace_out = value;
    } else if (parse_flag(arg, "--chaos", value)) {
      if (value.empty()) {
        return bad_value("--chaos", value, "want a schedule file path");
      }
      chaos_file = value;
    } else if (parse_flag(arg, "--preset", value)) {
      if (find_preset(value) == nullptr) {
        return bad_value("--preset", value, "see --list for presets");
      }
      preset_name = value;
    } else if (parse_flag(arg, "--mode", value)) {
      if (find_bench_mode(value) == nullptr) {
        return bad_value("--mode", value, "see --list for benchmark modes");
      }
      mode = value;
    } else if (parse_flag(arg, "--queues", value)) {
      queues = value;
    } else if (parse_flag(arg, "--workload", value)) {
      if (!parse_workload(value, shape.workload)) {
        return bad_value("--workload", value,
                         "want uniform, split, alternating, batch or "
                         "pcsplit");
      }
    } else if (parse_flag(arg, "--keys", value) ||
               parse_flag(arg, "--key-dist", value)) {
      // One grammar for --keys and --key-dist, shared with the tests:
      // src/workloads/spec.hpp is the single source of truth for which
      // specs (and which parameter ranges) the harness accepts.
      const auto parsed = cpq::workloads::parse_key_spec(value);
      if (!parsed) {
        return bad_value(given.back().c_str(), value,
                         "want uniform32|16|8, ascending, descending, hold, "
                         "zipf:THETA[,BITS], hotspot:OPS,KEYS[,BITS] or "
                         "dijkstra:MIN,MAX");
      }
      shape.keys = *parsed;
    } else if (parse_flag(arg, "--arrivals", value)) {
      const auto parsed = cpq::workloads::parse_arrival_spec(value);
      if (!parsed) {
        return bad_value("--arrivals", value,
                         "want closed, poisson:HZ or "
                         "mmpp:HZ_ON,HZ_OFF,ON_MS,OFF_MS");
      }
      shape.arrivals = *parsed;
    } else if (parse_flag(arg, "--producer-fraction", value)) {
      if (!parse_double(value, shape.producer_fraction) ||
          shape.producer_fraction <= 0.0 || shape.producer_fraction > 1.0) {
        return bad_value("--producer-fraction", value, "want 0.0 < F <= 1.0");
      }
    } else if (parse_flag(arg, "--insert-fraction", value)) {
      if (!parse_double(value, shape.insert_fraction) ||
          shape.insert_fraction < 0.0 || shape.insert_fraction > 1.0) {
        return bad_value("--insert-fraction", value, "want 0.0 .. 1.0");
      }
    } else if (parse_flag(arg, "--batch", value)) {
      if (!parse_u64(value, shape.batch_size) || shape.batch_size < 1) {
        return bad_value("--batch", value, "want an integer >= 1");
      }
      shape.workload = cpq::workloads::Workload::kBatch;
    } else if (parse_flag(arg, "--prefill", value)) {
      std::uint64_t prefill = 0;
      if (!parse_u64(value, prefill)) {
        return bad_value("--prefill", value, "want an integer >= 0");
      }
      options.prefill = static_cast<std::size_t>(prefill);
    } else if (parse_flag(arg, "--threads", value)) {
      std::string bad;
      if (!parse_thread_ladder(value, options.thread_ladder, bad)) {
        const std::string want =
            "want a comma-separated list of integers 1 .. " +
            std::to_string(kMaxLadderThreads);
        return bad_value("--threads", bad, want.c_str());
      }
    } else if (parse_flag(arg, "--ms", value)) {
      double ms = 0.0;
      if (!parse_double(value, ms) || ms <= 0.0) {
        return bad_value("--ms", value, "want a duration > 0");
      }
      options.duration_s = ms / 1000.0;
    } else if (parse_flag(arg, "--ops", value)) {
      if (!parse_u64(value, options.quality_ops) || options.quality_ops < 1) {
        return bad_value("--ops", value, "want an integer >= 1");
      }
    } else if (parse_flag(arg, "--reps", value)) {
      std::uint64_t reps = 0;
      if (!parse_u64(value, reps) || reps < 1 || reps > 1'000'000) {
        return bad_value("--reps", value, "want an integer 1 .. 1000000");
      }
      options.repetitions = static_cast<unsigned>(reps);
    } else if (parse_flag(arg, "--seed", value)) {
      if (!parse_u64(value, options.seed)) {
        return bad_value("--seed", value, "want an unsigned integer");
      }
    } else if (parse_flag(arg, "--arrival-hz", value)) {
      if (!parse_double(value, scfg.arrival_hz) || scfg.arrival_hz < 0.0) {
        return bad_value("--arrival-hz", value, "want a rate >= 0");
      }
    } else if (parse_flag(arg, "--ttl-us", value)) {
      // The deadline arithmetic needs values below 2^63.
      if (!parse_u64(value, scfg.service.ttl_us) ||
          scfg.service.ttl_us >= (std::uint64_t{1} << 63)) {
        return bad_value("--ttl-us", value, "want an integer 0 .. 2^63-1");
      }
    } else if (parse_flag(arg, "--max-in-flight", value)) {
      std::uint64_t bound = 0;
      if (!parse_u64(value, bound)) {
        return bad_value("--max-in-flight", value, "want an integer >= 0");
      }
      scfg.service.max_in_flight = static_cast<std::size_t>(bound);
    } else if (parse_flag(arg, "--policy", value)) {
      if (!parse_policy(value, scfg.service.policy)) {
        return bad_value("--policy", value, "want block, reject or tiered");
      }
    } else if (parse_flag(arg, "--breaker-trip-us", value)) {
      if (!parse_u64(value, scfg.service.breaker_trip_us)) {
        return bad_value("--breaker-trip-us", value, "want an integer >= 0");
      }
    } else if (parse_flag(arg, "--telemetry-hz", value)) {
      if (!parse_double(value, telemetry.hz) || telemetry.hz < 0.0 ||
          telemetry.hz > 10000.0) {
        return bad_value("--telemetry-hz", value, "want a rate 0 .. 10000");
      }
    } else if (parse_flag(arg, "--timeseries-out", value)) {
      if (value.empty()) {
        return bad_value("--timeseries-out", value, "want a file path");
      }
      telemetry.timeseries_out = value;
    } else if (parse_flag(arg, "--prom-out", value)) {
      if (value.empty()) {
        return bad_value("--prom-out", value, "want a file path");
      }
      telemetry.prom_out = value;
    } else if (parse_flag(arg, "--slo", value)) {
      const auto parsed = cpq::obs::parse_slo_spec(value);
      if (!parsed) {
        std::string want = "want metric<num[,metric>num...]; metrics:";
        for (const char* name : cpq::obs::kSloMetricNames) {
          want += std::string(" ") + name;
        }
        return bad_value("--slo", value, want.c_str());
      }
      telemetry.objectives = *parsed;
    } else {
      return usage(argv[0], arg);
    }
  }

  // Cross-flag rules, checked once the whole command line is known.
  for (const std::string& flag : given) {
    if (!preset_name.empty() && !contains(kPresetFlags, flag)) {
      std::fprintf(stderr,
                   "cpq_bench_cli: --preset=%s fixes %s; drop the flag or "
                   "run --mode instead\n",
                   preset_name.c_str(), flag.c_str());
      return 2;
    }
    if (mode != "service" && contains(kServiceFlags, flag)) {
      std::fprintf(stderr,
                   "cpq_bench_cli: %s only applies to --mode=service\n",
                   flag.c_str());
      return 2;
    }
  }
  // The prefill is admitted before any consumer runs, so a smaller
  // admission window would block the run forever.
  if (scfg.service.max_in_flight != 0 &&
      scfg.service.max_in_flight < options.prefill) {
    std::fprintf(stderr,
                 "cpq_bench_cli: --max-in-flight=%zu is below --prefill=%zu "
                 "(want 0 or >= the prefill)\n",
                 scfg.service.max_in_flight, options.prefill);
    return 2;
  }
  if (interleave && mode != "throughput") {
    std::fprintf(stderr,
                 "cpq_bench_cli: --interleave only applies to "
                 "--mode=throughput\n");
    return 2;
  }
  if (!telemetry.enabled()) {
    for (const char* flag : {"--timeseries-out", "--prom-out", "--slo"}) {
      if (contains(given, flag)) {
        std::fprintf(stderr, "cpq_bench_cli: %s requires --telemetry-hz > 0\n",
                     flag);
        return 2;
      }
    }
  }

  if (!chaos_file.empty()) {
    // Chaos mode replaces the sweep entirely; the telemetry plane brackets
    // the campaign so scenarios gain the measured slo_recovery_ms.
    telemetry_begin(telemetry);
    const int chaos_rc = run_chaos_from_file(
        chaos_file, queues.empty() ? "mq" : queues, options.seed);
    const int telemetry_rc = telemetry_finish(telemetry, "chaos");
    return chaos_rc != 0 ? chaos_rc : telemetry_rc;
  }

  const PresetSpec* preset = find_preset(preset_name);
  std::vector<const QueueSpec*> roster;
  std::string bad;
  if (!resolve_roster(queues.empty() && preset != nullptr ? preset->roster
                                                          : queues,
                      roster, bad)) {
    return bad_value("--queues", bad, "unknown queue; see --list");
  }

  if (preset != nullptr) {
    print_bench_header("cpq_bench_cli --preset=" + preset->name,
                       preset->reproduces, options);
  } else {
    print_bench_header("cpq_bench_cli --mode=" + mode,
                       find_bench_mode(mode)->description, options);
  }
  telemetry_begin(telemetry);

  // Failed cells set rc but do not return early: the trace export below
  // still runs, so a failing sweep leaves its diagnostics behind.
  int rc = 0;
  const BenchConfig cfg = base_config(options, shape);
  if (preset != nullptr) {
    if (!run_preset(*preset, options, roster)) rc = 1;
  } else if (mode == "throughput") {
    const bool ok =
        interleave ? interleaved_throughput_table("custom", cfg, options,
                                                  roster)
                   : throughput_table("custom", cfg, options, roster);
    if (!ok) rc = 1;
  } else if (mode == "quality") {
    if (!quality_table("custom", cfg, options, roster)) rc = 1;
  } else if (mode == "latency") {
    if (!latency_table("custom", cfg, options, roster)) rc = 1;
  } else if (mode == "sort") {
    sort_table("custom", cfg, options, roster);
  } else {
    scfg.duration_s = options.duration_s;
    scfg.arrivals = cfg.arrivals;
    scfg.prefill = options.prefill;
    scfg.keys = cfg.keys;
    scfg.seed = options.seed;
    if (!service_table("service", scfg, options, roster)) rc = 1;
  }

  // End-of-run observability: stop the sampler and flush its artifacts
  // first, then export the trace — the retained telemetry ring feeds the
  // Perfetto counter tracks alongside the op events.
  const std::string experiment = preset != nullptr ? preset->name : mode;
  if (telemetry_finish(telemetry, experiment) != 0 && rc == 0) rc = 1;
  if (dump_traces) {
    cpq::obs::MetricsRegistry::global().dump(stderr);
  }
  if (!trace_out.empty()) {
    if (std::FILE* f = std::fopen(trace_out.c_str(), "w")) {
      const cpq::obs::TelemetryPlane* plane =
          telemetry.enabled() ? &cpq::obs::TelemetryPlane::global() : nullptr;
      const std::size_t events = cpq::obs::write_chrome_trace(
          f, cpq::obs::MetricsRegistry::global(), plane);
      std::fclose(f);
      std::printf("# trace: wrote %zu sampled op events to %s\n", events,
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cpq_bench_cli: cannot write --trace-out=%s\n",
                   trace_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
