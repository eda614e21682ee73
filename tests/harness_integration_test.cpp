// End-to-end integration: run the real throughput and quality harnesses
// through the queue registry for every registered queue, with tiny
// parameters, and sanity-check the results (positive throughput, plausible
// rank errors, strict queues near zero error).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_framework/json_out.hpp"
#include "bench_framework/registry.hpp"
#include "queues/multiqueue.hpp"
#include "queues/multiqueue_eng.hpp"

namespace cpq::bench {
namespace {

// Run the real cpq_bench_cli binary (path injected by CMake) with the given
// arguments; returns its exit status and captures stdout.
int run_cli_command(const std::string& cmd, std::string& output) {
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  output.clear();
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, got);
  }
  const int status = pclose(pipe);
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_cli(const std::string& args, std::string& stdout_text) {
  return run_cli_command(
      std::string(CPQ_BENCH_CLI_PATH) + " " + args + " 2>/dev/null",
      stdout_text);
}

// Variant with stderr merged into the captured output (watchdog stall dumps
// and failure reports go to stderr) and an optional VAR=value environment
// prefix for the child process.
int run_cli_merged(const std::string& args, std::string& output,
                   const std::string& env_prefix = "") {
  std::string cmd;
  if (!env_prefix.empty()) cmd += env_prefix + " ";
  cmd += std::string(CPQ_BENCH_CLI_PATH) + " " + args + " 2>&1";
  return run_cli_command(cmd, output);
}

std::vector<JsonRecord> parse_json_lines(const std::string& text) {
  std::vector<JsonRecord> records;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] != '{') continue;
    JsonRecord record;
    EXPECT_TRUE(parse_json_record(line, record)) << "bad JSON line: " << line;
    records.push_back(record);
  }
  return records;
}

BenchConfig tiny_config() {
  BenchConfig cfg;
  cfg.threads = 2;
  cfg.prefill = 2000;
  cfg.duration_s = 0.02;
  cfg.ops_per_thread = 4000;
  cfg.repetitions = 1;
  cfg.seed = 7;
  return cfg;
}

TEST(Registry, ContainsThePaperRoster) {
  const auto roster = paper_roster();
  ASSERT_EQ(roster.size(), 7u);
  EXPECT_EQ(roster[0]->name, "glock");
  EXPECT_EQ(roster[1]->name, "linden");
  EXPECT_EQ(roster[2]->name, "spray");
  EXPECT_EQ(roster[3]->name, "mq");
  EXPECT_EQ(roster[4]->name, "klsm128");
  EXPECT_EQ(roster[5]->name, "klsm256");
  EXPECT_EQ(roster[6]->name, "klsm4096");
}

TEST(Registry, BenchModesAreRegisteredAndDescribed) {
  const auto& modes = bench_mode_registry();
  ASSERT_EQ(modes.size(), 5u);
  for (const char* name :
       {"throughput", "quality", "latency", "sort", "service"}) {
    const BenchModeSpec* mode = find_bench_mode(name);
    ASSERT_NE(mode, nullptr) << name;
    EXPECT_FALSE(mode->description.empty()) << name;
  }
  EXPECT_EQ(find_bench_mode("bogus"), nullptr);
  EXPECT_EQ(find_bench_mode(""), nullptr);
}

TEST(Registry, FindAndResolve) {
  EXPECT_NE(find_queue("mq"), nullptr);
  EXPECT_EQ(find_queue("nope"), nullptr);
  std::vector<const QueueSpec*> roster;
  std::string bad;
  ASSERT_TRUE(resolve_roster("linden,klsm256", roster, bad));
  ASSERT_EQ(roster.size(), 2u);
  EXPECT_EQ(roster[0]->name, "linden");
  EXPECT_EQ(roster[1]->name, "klsm256");
  ASSERT_TRUE(resolve_roster("", roster, bad));
  EXPECT_EQ(roster.size(), 7u);
  // Strict: an unknown or empty name fails, is named, and changes nothing.
  for (const auto& [names, offender] :
       {std::pair{"linden,klsm256,bogus", "bogus"},
        std::pair{"glock,glokc", "glokc"}, std::pair{"glock,", ""},
        std::pair{",glock", ""}}) {
    EXPECT_FALSE(resolve_roster(names, roster, bad)) << names;
    EXPECT_EQ(bad, offender) << names;
    EXPECT_EQ(roster.size(), 7u) << names;
  }
}

TEST(Registry, AblationSweepPointsArePlainEntries) {
  // klsm16/klsm1024 and mq-c1/c2/c8 extend the paper's entries without
  // joining the paper roster; each reports its own relaxation bound.
  for (const unsigned k : {16u, 1024u}) {
    const QueueSpec* spec = find_queue("klsm" + std::to_string(k));
    ASSERT_NE(spec, nullptr) << k;
    EXPECT_FALSE(spec->in_paper);
    EXPECT_TRUE(spec->rank_bound_hard);
    EXPECT_EQ(spec->rank_bound(4), 4.0 * k);
  }
  for (const unsigned c : {1u, 2u, 8u}) {
    const QueueSpec* spec = find_queue("mq-c" + std::to_string(c));
    ASSERT_NE(spec, nullptr) << c;
    EXPECT_FALSE(spec->in_paper);
    EXPECT_FALSE(spec->rank_bound_hard);
    EXPECT_EQ(spec->rank_bound(4),
              (MultiQueue<bench_key, bench_value>(1, c).soft_rank_bound(4)));
  }
}

TEST(Registry, EngineeredVariantsSelfReportWidenedSoftBounds) {
  // The engineered MultiQueues are extensions (the paper roster stays at
  // seven) whose armed rank bound must come from the queue's own
  // soft-bound formula for its (s, b) point, wider than classic mq's c*P,
  // and never hard — soft bounds must not count violations.
  const QueueSpec* mq = find_queue("mq");
  ASSERT_NE(mq, nullptr);
  const struct {
    const char* name;
    unsigned stickiness;
    unsigned buffer;
  } variants[] = {{"mq-eng", 8, 16},    {"mq-eng-s1", 1, 16},
                  {"mq-eng-s4", 4, 16}, {"mq-eng-s16", 16, 16},
                  {"mq-eng-s64", 64, 16}, {"mq-eng-b0", 8, 0},
                  {"mq-eng-b4", 8, 4},  {"mq-eng-b64", 8, 64}};
  for (const auto& variant : variants) {
    const QueueSpec* spec = find_queue(variant.name);
    ASSERT_NE(spec, nullptr) << variant.name;
    EXPECT_FALSE(spec->strict) << variant.name;
    EXPECT_FALSE(spec->in_paper) << variant.name;
    EXPECT_FALSE(spec->rank_bound_hard) << variant.name;
    ASSERT_TRUE(spec->rank_bound) << variant.name;
    MqEngConfig cfg;
    cfg.stickiness = variant.stickiness;
    cfg.ins_buffer = variant.buffer;
    cfg.del_buffer = variant.buffer;
    for (unsigned threads : {1u, 4u, 16u}) {
      EXPECT_EQ(spec->rank_bound(threads),
                (EngMultiQueue<bench_key, bench_value>::soft_rank_bound(
                    cfg, threads)))
          << variant.name << " t=" << threads;
      EXPECT_GT(spec->rank_bound(threads), mq->rank_bound(threads))
          << variant.name << " t=" << threads;
    }
  }
}

TEST(Integration, ThroughputRunsForEveryQueue) {
  BenchConfig cfg = tiny_config();
  for (const QueueSpec& spec : queue_registry()) {
    SCOPED_TRACE(spec.name);
    const ThroughputResult result = spec.throughput(cfg);
    EXPECT_GT(result.mops.mean, 0.0) << spec.name;
    EXPECT_EQ(result.per_rep.size(), cfg.repetitions);
  }
}

TEST(Integration, ThroughputAcrossWorkloadsAndKeys) {
  BenchConfig cfg = tiny_config();
  cfg.duration_s = 0.01;
  const QueueSpec* klsm = find_queue("klsm128");
  ASSERT_NE(klsm, nullptr);
  using workloads::KeyConfig;
  using workloads::Workload;
  for (const Workload workload :
       {Workload::kUniform, Workload::kSplit, Workload::kAlternating}) {
    for (const KeyConfig keys :
         {KeyConfig::uniform(32), KeyConfig::uniform(8),
          KeyConfig::ascending(), KeyConfig::descending()}) {
      SCOPED_TRACE(workloads::workload_name(workload) + "/" + keys.name());
      cfg.workload = workload;
      cfg.keys = keys;
      const ThroughputResult result = klsm->throughput(cfg);
      EXPECT_GT(result.mops.mean, 0.0);
    }
  }
}

TEST(Integration, QualityRunsForEveryQueue) {
  BenchConfig cfg = tiny_config();
  for (const QueueSpec& spec : queue_registry()) {
    SCOPED_TRACE(spec.name);
    const QualityResult result = spec.quality(cfg);
    EXPECT_GT(result.deletions, 0u) << spec.name;
    EXPECT_GE(result.rank_error.mean, 0.0);
  }
}

TEST(Integration, StrictQueuesHaveNearZeroRankErrorSingleThread) {
  BenchConfig cfg = tiny_config();
  cfg.threads = 1;
  for (const QueueSpec& spec : queue_registry()) {
    if (!spec.strict) continue;
    SCOPED_TRACE(spec.name);
    const QualityResult result = spec.quality(cfg);
    EXPECT_DOUBLE_EQ(result.rank_error.mean, 0.0) << spec.name;
    EXPECT_EQ(result.max_rank_error, 0u) << spec.name;
  }
}

TEST(Integration, StrictQueuesHaveSmallRankErrorConcurrently) {
  // Under concurrency, timestamp-order ambiguity between racing operations
  // produces small apparent rank errors even for linearizable queues; they
  // must stay near zero while relaxed queues can be large.
  BenchConfig cfg = tiny_config();
  cfg.threads = 4;
  for (const QueueSpec& spec : queue_registry()) {
    if (!spec.strict) continue;
    SCOPED_TRACE(spec.name);
    const QualityResult result = spec.quality(cfg);
    EXPECT_LT(result.median_rank_error, 5.0) << spec.name;
  }
}

TEST(Integration, KlsmRankErrorGrowsWithRelaxation) {
  // The queue must be much larger than k, otherwise everything stays in the
  // DLSM (per-thread cap k) and the SLSM's relaxation never shows (the
  // paper's setup has prefill 10^6 >> 4096 for the same reason).
  BenchConfig cfg = tiny_config();
  cfg.threads = 2;
  cfg.prefill = 30000;
  cfg.ops_per_thread = 10000;
  const QualityResult k128 = find_queue("klsm128")->quality(cfg);
  const QualityResult k4096 = find_queue("klsm4096")->quality(cfg);
  // Medians, not means: timestamps are taken after each operation returns,
  // so on an oversubscribed machine a thread descheduled inside delete_min
  // lets a whole timeslice of inserts land "before" it in the replay
  // order — a handful of such outliers can dominate the mean arbitrarily.
  // The exact kP bound is verified race-free in SlsmRelaxation and
  // RelaxedQueuesRespectRankBound.
  EXPECT_GT(k4096.median_rank_error, k128.median_rank_error);
  EXPECT_LT(k128.median_rank_error, 128.0 * cfg.threads);
}

TEST(Integration, LatencyRunsAndOrdersPercentiles) {
  BenchConfig cfg = tiny_config();
  cfg.ops_per_thread = 3000;
  for (const char* name : {"glock", "klsm256", "cbpq"}) {
    SCOPED_TRACE(name);
    const LatencyResult result = find_queue(name)->latency(cfg);
    EXPECT_GT(result.insert.samples, 0u);
    EXPECT_GT(result.delete_min.samples, 0u);
    EXPECT_GT(result.insert.p50_ns, 0.0);
    EXPECT_LE(result.insert.p50_ns, result.insert.p90_ns);
    EXPECT_LE(result.insert.p90_ns, result.insert.p99_ns);
    EXPECT_LE(result.insert.p99_ns, result.insert.max_ns);
    EXPECT_LE(result.delete_min.p50_ns, result.delete_min.p99_ns);
  }
}

TEST(Integration, PercentileExtraction) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const LatencyPercentiles p = percentiles_of(samples);
  EXPECT_EQ(p.samples, 100u);
  EXPECT_NEAR(p.p50_ns, 50.0, 1.0);
  EXPECT_NEAR(p.p90_ns, 90.0, 1.0);
  EXPECT_NEAR(p.p99_ns, 99.0, 1.0);
  EXPECT_DOUBLE_EQ(p.max_ns, 100.0);

  std::vector<double> empty;
  EXPECT_EQ(percentiles_of(empty).samples, 0u);
}

TEST(Integration, SortPhasesRun) {
  BenchConfig cfg = tiny_config();
  cfg.prefill = 5000;
  for (const char* name : {"glock", "linden", "mound", "cbpq", "klsm256"}) {
    SCOPED_TRACE(name);
    const SortResult result = find_queue(name)->sort_phases(cfg);
    EXPECT_FALSE(result.failed());
    EXPECT_GT(result.insert_mops, 0.0);
    EXPECT_GT(result.delete_mops, 0.0);
  }
}

TEST(Integration, SplitWorkloadRunsThroughRegistry) {
  BenchConfig cfg = tiny_config();
  cfg.workload = workloads::Workload::kSplit;
  cfg.keys = workloads::KeyConfig::ascending();
  for (const char* name : {"linden", "mq", "klsm256"}) {
    SCOPED_TRACE(name);
    const ThroughputResult result = find_queue(name)->throughput(cfg);
    EXPECT_GT(result.mops.mean, 0.0);
  }
}

TEST(Integration, HoldModelKeysRunThroughRegistry) {
  BenchConfig cfg = tiny_config();
  cfg.keys = workloads::KeyConfig::hold();
  const ThroughputResult result = find_queue("mq")->throughput(cfg);
  EXPECT_GT(result.mops.mean, 0.0);
}

// The kP bound scales with k: sweep the relaxation and verify the observed
// mean rank error stays under the theoretical cap while growing with k.
class KlsmBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KlsmBoundSweep, MedianRankErrorBelowTheoreticalCap) {
  const std::uint64_t k = GetParam();
  const std::string name = "klsm" + std::to_string(k);
  const QueueSpec* spec = find_queue(name);
  ASSERT_NE(spec, nullptr);
  BenchConfig cfg = tiny_config();
  cfg.threads = 2;
  cfg.prefill = 20000;
  cfg.ops_per_thread = 6000;
  const QualityResult result = spec->quality(cfg);
  EXPECT_LT(result.median_rank_error,
            static_cast<double>(k) * cfg.threads + 1);
}

INSTANTIATE_TEST_SUITE_P(Relaxations, KlsmBoundSweep,
                         ::testing::Values(128, 256, 4096));

TEST(Integration, QualityDeterministicForFixedSeed) {
  BenchConfig cfg = tiny_config();
  cfg.threads = 1;  // single thread: fully deterministic
  const QueueSpec* glock = find_queue("glock");
  const QualityResult a = glock->quality(cfg);
  const QualityResult b = glock->quality(cfg);
  EXPECT_EQ(a.deletions, b.deletions);
  EXPECT_DOUBLE_EQ(a.rank_error.mean, b.rank_error.mean);
}

// ---- the PriorityService dispatch layer through the registry -------------

service::ServiceBenchConfig tiny_service_config() {
  service::ServiceBenchConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.duration_s = 0.02;
  cfg.prefill = 500;
  cfg.seed = 7;
  cfg.pin_threads = false;
  return cfg;
}

// Every roster queue must run through PriorityService wrapped in
// CheckedQueue with zero conservation violations (the PR's acceptance bar;
// the fault-injected variant of the same property lives in torture_test).
TEST(Integration, ServiceBenchConservesForEveryQueueChecked) {
  service::ServiceBenchConfig cfg = tiny_service_config();
  cfg.checked = true;
  for (const QueueSpec& spec : queue_registry()) {
    SCOPED_TRACE(spec.name);
    const ServiceComparison comparison = spec.service_bench(cfg);
    EXPECT_TRUE(comparison.raw.conservation_ok)
        << spec.name << ": " << comparison.raw.conservation_report;
    EXPECT_TRUE(comparison.service.conservation_ok)
        << spec.name << ": " << comparison.service.conservation_report;
    EXPECT_GT(comparison.raw.delivered, 0u);
    EXPECT_GT(comparison.service.delivered, 0u);
    EXPECT_GE(comparison.service.stats.flushes, 1u);
  }
}

TEST(Integration, ServiceBenchAccountsShutdownUnchecked) {
  const service::ServiceBenchConfig cfg = tiny_service_config();
  const QueueSpec* mq = find_queue("mq");
  ASSERT_NE(mq, nullptr);
  const ServiceComparison comparison = mq->service_bench(cfg);
  // close()+drain() accounting: every accepted task was delivered or
  // recovered by the drain — nothing dropped at shutdown.
  EXPECT_EQ(comparison.service.stats.submitted,
            comparison.service.stats.delivered + comparison.service.drained);
  EXPECT_GT(comparison.service.deletions, 0u);
}

// ---- cpq_bench_cli as a black box ----------------------------------------

TEST(BenchCli, ListPrintsQueuesAndBenchmarksAndExitsZero) {
  std::string out;
  ASSERT_EQ(run_cli("--list", out), 0);
  EXPECT_NE(out.find("queues:"), std::string::npos);
  EXPECT_NE(out.find("benchmarks (--mode=...):"), std::string::npos);
  for (const QueueSpec& spec : queue_registry()) {
    EXPECT_NE(out.find(spec.name), std::string::npos) << spec.name;
    EXPECT_NE(out.find(spec.description), std::string::npos) << spec.name;
  }
  for (const BenchModeSpec& mode : bench_mode_registry()) {
    EXPECT_NE(out.find(mode.name), std::string::npos) << mode.name;
    EXPECT_NE(out.find(mode.description), std::string::npos) << mode.name;
  }
}

TEST(BenchCli, InvalidFlagsExitWithStatusTwo) {
  std::string out;
  EXPECT_EQ(run_cli("--mode=bogus", out), 2);
  EXPECT_EQ(run_cli("--no-such-flag", out), 2);
  EXPECT_EQ(run_cli("--reps=3x", out), 2);
  EXPECT_EQ(run_cli("--ms=-5", out), 2);
  EXPECT_EQ(run_cli("--insert-fraction=1.5", out), 2);
  EXPECT_EQ(run_cli("--arrivals=poisson:nope", out), 2);
  EXPECT_EQ(run_cli("--json=", out), 2);
  EXPECT_EQ(run_cli("--queues=bogus1,bogus2", out), 2);
  EXPECT_EQ(run_cli("--ms=inf", out), 2);
  EXPECT_EQ(run_cli("--workload=bogus", out), 2);
}

// Every queue name and every ladder entry is checked: a typo exits 2 and
// names the bad value instead of silently dropping or reshaping it.
TEST(BenchCli, StrictRosterAndThreadLadder) {
  const struct {
    const char* args;
    const char* named;
  } cases[] = {{"--queues=glock,glokc", "'glokc'"},
               {"--queues=glock,", "''"},
               {"--threads=2.5", "'2.5'"},
               {"--threads=-1", "'-1'"},
               {"--threads=0,1", "'0'"},
               {"--threads=1,x", "'x'"},
               {"--threads=1,2000", "'2000'"}};
  for (const auto& c : cases) {
    std::string out;
    EXPECT_EQ(run_cli_merged(std::string(c.args) +
                                 " --mode=throughput --ms=1 --reps=1 "
                                 "--prefill=10",
                             out),
              2)
        << c.args;
    const std::string flag(c.args, std::strchr(c.args, '='));
    EXPECT_NE(out.find("invalid value for " + flag + ":"), std::string::npos)
        << c.args << ": " << out;
    EXPECT_NE(out.find(c.named), std::string::npos) << c.args << ": " << out;
    EXPECT_EQ(out.find("# cpq_bench_cli"), std::string::npos)
        << c.args << " measured before failing: " << out;
  }
}

// --list names every preset with the artifact it reproduces, and every
// preset's default roster resolves.
TEST(BenchCli, ListPrintsEveryPresetWithItsArtifact) {
  std::string out;
  ASSERT_EQ(run_cli("--list", out), 0);
  EXPECT_NE(out.find("presets (--preset=...):"), std::string::npos);
  ASSERT_EQ(preset_registry().size(), 14u);
  for (const PresetSpec& preset : preset_registry()) {
    EXPECT_NE(out.find("  " + preset.name + " "), std::string::npos)
        << preset.name;
    EXPECT_NE(out.find(preset.reproduces), std::string::npos) << preset.name;
    EXPECT_FALSE(preset.panels.empty()) << preset.name;
    std::vector<const QueueSpec*> roster;
    std::string bad;
    EXPECT_TRUE(resolve_roster(preset.roster, roster, bad))
        << preset.name << ": " << bad;
  }
}

TEST(BenchCli, PresetRunsItsPanelsWithTheSharedPrinters) {
  std::string out;
  ASSERT_EQ(run_cli("--preset=ablation-klsm-components --threads=1 --ms=2 "
                    "--reps=1 --prefill=300 --json=-",
                    out),
            0);
  EXPECT_NE(out.find("# cpq_bench_cli --preset=ablation-klsm-components"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("== A3 SLSM-bound — split workload, ascending keys — "
                     "throughput [MOps/s] =="),
            std::string::npos)
      << out;
  const std::vector<JsonRecord> records = parse_json_lines(out);
  ASSERT_EQ(records.size(), 6u);  // 2 panels x 3 queues x 1 thread count
  EXPECT_EQ(records[0].experiment,
            "A3 DLSM-friendly — uniform workload, uniform32 keys");
  EXPECT_EQ(records[0].queue, "dlsm");
  EXPECT_EQ(records[5].queue, "klsm256");
  // --queues narrows the preset's roster.
  ASSERT_EQ(run_cli("--preset=fig1 --queues=glock --threads=1 --ms=2 "
                    "--reps=1 --prefill=300 --json=-",
                    out),
            0);
  EXPECT_EQ(parse_json_lines(out).size(), 1u);
}

TEST(BenchCli, FlagsThePresetFixesExitWithStatusTwo) {
  for (const char* flag :
       {"--mode=quality", "--workload=split", "--keys=uniform8",
        "--key-dist=zipf:1.1", "--insert-fraction=0.9", "--arrivals=closed",
        "--batch=4", "--producer-fraction=0.5", "--interleave",
        "--perturb-layout", "--chaos=tests/chaos/basic_campaign.txt"}) {
    std::string out;
    EXPECT_EQ(run_cli_merged(std::string("--preset=fig1 ") + flag, out), 2)
        << flag;
    EXPECT_NE(out.find("--preset=fig1 fixes"), std::string::npos)
        << flag << ": " << out;
  }
  std::string out;
  EXPECT_EQ(run_cli("--preset=bogus", out), 2);
  EXPECT_EQ(run_cli("--preset=", out), 2);
}

// The service knobs are strict flags of --mode=service, and only there.
TEST(BenchCli, ServiceFlagsAreStrictAndServiceOnly) {
  std::string out;
  for (const char* bad :
       {"--ttl-us=abc", "--ttl-us=-1", "--max-in-flight=1.5",
        "--max-in-flight=", "--policy=bogus", "--policy=",
        "--breaker-trip-us=1x"}) {
    EXPECT_EQ(run_cli(std::string("--mode=service ") + bad, out), 2) << bad;
  }
  for (const char* service_only :
       {"--ttl-us=100", "--max-in-flight=10", "--policy=reject",
        "--breaker-trip-us=300", "--checked"}) {
    EXPECT_EQ(run_cli_merged(std::string("--mode=quality ") + service_only,
                             out),
              2)
        << service_only;
    EXPECT_NE(out.find("only applies to --mode=service"), std::string::npos)
        << service_only << ": " << out;
  }
  // A window smaller than the prefill caps the prefill, which runs before
  // any consumer could release a slot, instead of blocking it forever.
  EXPECT_EQ(run_cli_merged("--mode=service --prefill=200 --max-in-flight=64 "
                           "--checked --queues=glock,mq --threads=2 --ms=10",
                           out),
            0)
      << out;
  EXPECT_EQ(out.find("conservation violation"), std::string::npos) << out;
  // A tight window under the reject policy with a short ttl runs end to
  // end.
  ASSERT_EQ(run_cli("--mode=service --queues=mq --threads=2 --ms=20 "
                    "--prefill=200 --arrivals=poisson:400000 "
                    "--max-in-flight=256 --policy=reject --ttl-us=5000 "
                    "--breaker-trip-us=300 --json=-",
                    out),
            0);
  // Ten service records plus the two burst_* records of a paced run.
  EXPECT_EQ(parse_json_lines(out).size(), 12u);
}

TEST(BenchCli, ChaosRunsOnlyOnAChaosCapableQueue) {
  std::string out;
  EXPECT_EQ(run_cli("--chaos=tests/chaos/basic_campaign.txt --queues=klsm256",
                    out),
            2);
  EXPECT_EQ(run_cli("--chaos=/nonexistent/campaign.txt --queues=mq", out), 2);
}

TEST(BenchCli, EngineeredSweepPointsRunEndToEnd) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq-eng-s1,mq-eng-b0 "
                    "--threads=2 --ms=5 --reps=1 --prefill=200 --json=-",
                    out),
            0);
  const std::vector<JsonRecord> records = parse_json_lines(out);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].queue, "mq-eng-s1");
  EXPECT_EQ(records[1].queue, "mq-eng-b0");
}

TEST(BenchCli, MetricsFlagArmsWidenedEngineeredBound) {
  // The --metrics rank-est line for mq-eng must carry its widened soft
  // bound — (c*s + 2*buf) * threads at c=4, s=8, b=16 — and soft bounds
  // must never report a violation.
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq-eng --threads=2 --ms=20 "
                    "--reps=1 --prefill=5000 --metrics",
                    out),
            0);
  EXPECT_NE(out.find("# rank-est mq-eng t=2:"), std::string::npos) << out;
  EXPECT_NE(out.find("bound=128 (soft) violations=0"), std::string::npos)
      << out;
}

TEST(BenchCli, JsonOutputValidatesAgainstSchema) {
  std::string out;
  ASSERT_EQ(
      run_cli("--mode=throughput --queues=glock,mq --threads=1 --ms=5 "
              "--reps=2 --prefill=200 --json=-",
              out),
      0);
  const std::vector<JsonRecord> records = parse_json_lines(out);
  ASSERT_EQ(records.size(), 2u);  // one per (threads, queue) cell
  for (const JsonRecord& record : records) {
    EXPECT_EQ(record.metric, "throughput_mops");
    EXPECT_EQ(record.threads, 1u);
    EXPECT_EQ(record.reps, 2u);
    EXPECT_GT(record.mean, 0.0);
    EXPECT_NE(record.experiment.find("custom"), std::string::npos);
  }
  EXPECT_EQ(records[0].queue, "glock");
  EXPECT_EQ(records[1].queue, "mq");
}

TEST(BenchCli, ServiceModeEmitsServiceMetrics) {
  std::string out;
  ASSERT_EQ(
      run_cli("--mode=service --queues=glock --threads=2 --ms=10 "
              "--prefill=200 --json=-",
              out),
      0);
  const std::vector<JsonRecord> records = parse_json_lines(out);
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[0].metric, "raw_tasks_per_s");
  EXPECT_EQ(records[1].metric, "service_tasks_per_s");
  EXPECT_EQ(records[2].metric, "service_rank_error_median");
  EXPECT_EQ(records[3].metric, "service_delete_p50_ns");
  EXPECT_EQ(records[4].metric, "service_delete_p99_ns");
  EXPECT_EQ(records[5].metric, "service_sojourn_p99_ns");
  EXPECT_EQ(records[6].metric, "service_shed_total");
  EXPECT_EQ(records[7].metric, "service_tier_rejected");
  EXPECT_EQ(records[8].metric, "service_reroutes");
  EXPECT_EQ(records[9].metric, "service_breaker_trips");
  EXPECT_GT(records[0].mean, 0.0);
  EXPECT_GT(records[1].mean, 0.0);
  EXPECT_GT(records[3].mean, 0.0);
  EXPECT_GE(records[4].mean, records[3].mean);
  EXPECT_GT(records[5].mean, 0.0);
  // No ttl/breaker configured: the overload counters exist but stay zero.
  EXPECT_EQ(records[6].mean, 0.0);
  EXPECT_EQ(records[9].mean, 0.0);
  // The latency table (third table of service mode) made it to stdout.
  EXPECT_NE(out.find("delete_min latency [ns] p50/p99 raw -> service"),
            std::string::npos);
  // And the overload table (fourth) with its shed/reroute/trip triple.
  EXPECT_NE(out.find("sojourn p99 [us] raw -> service (shed/reroutes/trips)"),
            std::string::npos);
}

TEST(BenchCli, MetricsFlagReportsPerCellCounters) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq --threads=2 --ms=5 "
                    "--reps=1 --prefill=200 --metrics",
                    out),
            0);
  // One "# metrics" line per cell, naming every counter.
  EXPECT_NE(out.find("# metrics mq t=2:"), std::string::npos) << out;
  EXPECT_NE(out.find("cas_retry="), std::string::npos);
  EXPECT_NE(out.find("lock_retry="), std::string::npos);
  EXPECT_NE(out.find("ebr_retire="), std::string::npos);
}

TEST(BenchCli, LatencyModeWithMetricsPrintsHistograms) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=latency --queues=glock --threads=1 --ops=2000 "
                    "--reps=1 --prefill=200 --metrics",
                    out),
            0);
  EXPECT_NE(out.find("delete_min latency [ns] p50 / p99"), std::string::npos);
  EXPECT_NE(out.find("glock insert latency [ns]: n="), std::string::npos)
      << out;
  EXPECT_NE(out.find("glock delete_min latency [ns]: n="), std::string::npos);
}

TEST(BenchCli, LatencyModeEmitsJsonWithStatus) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=latency --queues=glock --threads=1 --ops=1000 "
                    "--reps=1 --prefill=200 --json=-",
                    out),
            0);
  const std::vector<JsonRecord> records = parse_json_lines(out);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].metric, "latency_delete_p50_ns");
  EXPECT_EQ(records[1].metric, "latency_delete_p99_ns");
  EXPECT_EQ(records[2].metric, "latency_insert_p99_ns");
  for (const JsonRecord& record : records) {
    EXPECT_EQ(record.status, "ok");
    EXPECT_GT(record.mean, 0.0);
    EXPECT_EQ(record.reps, 1u);
  }
}

TEST(BenchCli, JsonLinesCarryCurrentSchemaVersion) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=glock --threads=1 --ms=5 "
                    "--reps=1 --prefill=200 --json=-",
                    out),
            0);
  EXPECT_NE(out.find("\"schema_version\":4,"), std::string::npos) << out;
  const std::vector<JsonRecord> records = parse_json_lines(out);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].schema_version, kJsonSchemaVersion);
}

// ---- the adversarial workload subsystem through the CLI ------------------

TEST(BenchCli, SkewedKeyDistributionsEmitValidJson) {
  for (const char* dist : {"zipf:1.1", "hotspot:0.9,0.1", "dijkstra:1,100"}) {
    SCOPED_TRACE(dist);
    std::string out;
    ASSERT_EQ(run_cli("--mode=throughput --queues=glock,mq --threads=1 "
                      "--ms=5 --reps=1 --prefill=200 --json=- --key-dist=" +
                          std::string(dist),
                      out),
              0);
    const std::vector<JsonRecord> records = parse_json_lines(out);
    ASSERT_EQ(records.size(), 2u);
    for (const JsonRecord& record : records) {
      EXPECT_EQ(record.metric, "throughput_mops");
      EXPECT_GT(record.mean, 0.0);
      EXPECT_EQ(record.schema_version, kJsonSchemaVersion);
    }
  }
}

TEST(BenchCli, MalformedWorkloadSpecsExitWithStatusTwo) {
  std::string out;
  EXPECT_EQ(run_cli("--key-dist=zipf:0", out), 2);
  EXPECT_EQ(run_cli("--key-dist=zipf:1.1,64", out), 2);
  EXPECT_EQ(run_cli("--key-dist=hotspot:0.9", out), 2);
  EXPECT_EQ(run_cli("--key-dist=dijkstra:5,2", out), 2);
  EXPECT_EQ(run_cli("--key-dist=bogus", out), 2);
  EXPECT_EQ(run_cli("--keys=bogus", out), 2);
  EXPECT_EQ(run_cli("--arrivals=mmpp:1000,100,10", out), 2);
  EXPECT_EQ(run_cli("--arrivals=poisson:0", out), 2);
  EXPECT_EQ(run_cli("--producer-fraction=0", out), 2);
  EXPECT_EQ(run_cli("--producer-fraction=1.5", out), 2);
  // Interleaving is a throughput-mode concept; other modes must refuse it
  // rather than silently ignore the hygiene request.
  EXPECT_EQ(run_cli("--mode=quality --interleave", out), 2);
}

TEST(BenchCli, InterleavedModeEmitsLayoutSpreadPerQueue) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=glock,mq --threads=2 --ms=5 "
                    "--reps=3 --prefill=200 --interleave --json=-",
                    out),
            0);
  EXPECT_NE(out.find("# layout"), std::string::npos) << out;
  bool saw_throughput = false, saw_spread = false, saw_min = false,
       saw_max = false;
  for (const JsonRecord& record : parse_json_lines(out)) {
    if (record.metric == "throughput_mops") saw_throughput = true;
    if (record.metric == "layout_spread_pct") {
      saw_spread = true;
      EXPECT_GE(record.mean, 0.0);
    }
    if (record.metric == "layout_min_mops") saw_min = true;
    if (record.metric == "layout_max_mops") saw_max = true;
  }
  EXPECT_TRUE(saw_throughput) << out;
  EXPECT_TRUE(saw_spread) << out;
  EXPECT_TRUE(saw_min) << out;
  EXPECT_TRUE(saw_max) << out;
}

TEST(BenchCli, OpenLoopArrivalsEmitBurstDiagnostics) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq --threads=2 --ms=20 "
                    "--reps=1 --prefill=200 "
                    "--arrivals=mmpp:200000,20000,5,15 --json=-",
                    out),
            0);
  EXPECT_NE(out.find("# burst"), std::string::npos) << out;
  bool saw_offered = false, saw_on = false, saw_count = false;
  for (const JsonRecord& record : parse_json_lines(out)) {
    if (record.metric == "burst_offered_mops") {
      saw_offered = true;
      EXPECT_GT(record.mean, 0.0);
    }
    if (record.metric == "burst_on_fraction") {
      saw_on = true;
      EXPECT_GT(record.mean, 0.0);
      EXPECT_LE(record.mean, 1.0);
    }
    if (record.metric == "burst_count") saw_count = true;
  }
  EXPECT_TRUE(saw_offered) << out;
  EXPECT_TRUE(saw_on) << out;
  EXPECT_TRUE(saw_count) << out;
}

TEST(BenchCli, PcSplitWorkloadRunsWithTunableFraction) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq --threads=2 --ms=5 "
                    "--reps=1 --prefill=500 --workload=pcsplit "
                    "--producer-fraction=0.75 --key-dist=hotspot:0.9,0.1",
                    out),
            0);
  EXPECT_NE(out.find("mq"), std::string::npos);
}

// Live quality telemetry: with --metrics, a relaxed-queue cell must report
// the online rank-error estimate and its relaxation bound; hardware perf
// counters report per-op rates, or "null" where the environment denies
// perf_event_open (containers/CI) — either way the run succeeds.
TEST(BenchCli, MetricsFlagReportsRankEstimateAndPerfCounters) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=klsm256 --threads=2 --ms=20 "
                    "--reps=1 --prefill=5000 --metrics --json=-",
                    out),
            0);
  EXPECT_NE(out.find("# rank-est klsm256 t=2:"), std::string::npos) << out;
  EXPECT_NE(out.find("bound=512 (hard)"), std::string::npos) << out;
  EXPECT_NE(out.find("violations="), std::string::npos) << out;
  EXPECT_NE(out.find("# perf klsm256 t=2:"), std::string::npos) << out;
  EXPECT_NE(out.find("cycles/op="), std::string::npos) << out;

  bool saw_rank_est = false;
  bool saw_perf = false;
  for (const JsonRecord& record : parse_json_lines(out)) {
    if (record.metric == "rank_est_p50") saw_rank_est = true;
    if (record.metric == "perf_cycles_per_op") saw_perf = true;
  }
  EXPECT_TRUE(saw_rank_est) << out;
  EXPECT_TRUE(saw_perf) << out;
}

// Strict queues have rank error identically zero by construction; the
// estimator must stay disarmed for them (no "# rank-est" line).
TEST(BenchCli, StrictQueuesDoNotArmTheRankEstimator) {
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=glock --threads=2 --ms=10 "
                    "--reps=1 --prefill=500 --metrics",
                    out),
            0);
  EXPECT_EQ(out.find("# rank-est"), std::string::npos) << out;
}

TEST(BenchCli, DumpTracesPrintsRingsAtNormalExit) {
  std::string out;
  ASSERT_EQ(run_cli_merged("--mode=throughput --queues=mq --threads=2 "
                           "--ms=10 --reps=1 --prefill=500 --dump-traces",
                           out),
            0);
  EXPECT_NE(out.find("sampled ops, newest first"), std::string::npos) << out;
}

TEST(BenchCli, TraceOutWritesLoadableChromeTrace) {
  const std::string path = ::testing::TempDir() + "cpq_cli_trace_test.json";
  std::remove(path.c_str());
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq --threads=2 --ms=10 "
                    "--reps=1 --prefill=500 --trace-out=" + path,
                    out),
            0);
  EXPECT_NE(out.find("# trace: wrote"), std::string::npos) << out;

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr) << path;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  std::remove(path.c_str());
  // Structural spot checks; full schema validation is CI's
  // tools/check_chrome_trace.py job.
  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u) << text.substr(0, 80);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ns\"}"), std::string::npos);
}

TEST(BenchCli, EmptyTraceOutPathIsRejected) {
  std::string out;
  EXPECT_EQ(run_cli("--trace-out=", out), 2);
}

// Telemetry flag hygiene (bench/cpq_bench_cli.cpp): malformed values and
// dependent flags without --telemetry-hz must exit 2 before measuring
// anything. The --slo specs contain '<', so they ride through the popen
// shell single-quoted.
TEST(BenchCli, MalformedTelemetryFlagsExitWithStatusTwo) {
  std::string out;
  EXPECT_EQ(run_cli("--telemetry-hz=", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=bogus", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=-5", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=1e9", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100x", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 --timeseries-out=", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 --prom-out=", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 '--slo='", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 '--slo=bogus_metric<5'", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 '--slo=p99_sojourn_us<'", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 '--slo=p99_sojourn_us<>500'", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=100 '--slo=p99_sojourn_us<500x'", out), 2);
}

TEST(BenchCli, OrphanTelemetryFlagsExitWithStatusTwo) {
  // Export/SLO flags without sampling would silently produce empty
  // artifacts that look like measurements; the drivers refuse instead.
  const std::string tmp = ::testing::TempDir() + "cpq_orphan_out";
  std::string out;
  EXPECT_EQ(run_cli("--timeseries-out=" + tmp, out), 2);
  EXPECT_EQ(run_cli("--prom-out=" + tmp, out), 2);
  EXPECT_EQ(run_cli("'--slo=p99_sojourn_us<500'", out), 2);
  EXPECT_EQ(run_cli("--telemetry-hz=0 --prom-out=" + tmp, out), 2);
}

// Happy path for the telemetry plane through the real binary: a sampled
// run emits the "# telemetry" summary, informational ts_*/slo_* JSON
// records, a schema-v4 JSONL series, and a Prometheus dump. Full series
// validation is CI's tools/check_timeseries.py job.
TEST(BenchCli, TelemetrySamplingEmitsSeriesSloAndPrometheusArtifacts) {
  const std::string series =
      ::testing::TempDir() + "cpq_cli_series_test.jsonl";
  const std::string prom = ::testing::TempDir() + "cpq_cli_prom_test.txt";
  std::remove(series.c_str());
  std::remove(prom.c_str());
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq --threads=2 --ms=80 "
                    "--reps=1 --prefill=500 --json=- --telemetry-hz=500 "
                    "'--slo=p99_latency_us<1000000,shed_pct<100' "
                    "--timeseries-out=" +
                        series + " --prom-out=" + prom,
                    out),
            0);
  EXPECT_NE(out.find("# telemetry:"), std::string::npos) << out;
  EXPECT_NE(out.find("time-series records"), std::string::npos) << out;

  bool saw_samples = false, saw_slo = false;
  for (const JsonRecord& record : parse_json_lines(out)) {
    if (record.metric == "ts_samples") {
      saw_samples = true;
      EXPECT_EQ(record.queue, "telemetry");
      EXPECT_GT(record.mean, 0.0);
    }
    if (record.metric.rfind("slo_samples:", 0) == 0) saw_slo = true;
  }
  EXPECT_TRUE(saw_samples) << out;
  EXPECT_TRUE(saw_slo) << out;

  std::FILE* file = std::fopen(series.c_str(), "r");
  ASSERT_NE(file, nullptr) << series;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  std::remove(series.c_str());
  EXPECT_NE(text.find("\"schema_version\":4"), std::string::npos)
      << text.substr(0, 200);
  EXPECT_NE(text.find("\"kind\":\"telemetry\""), std::string::npos);
  EXPECT_NE(text.find("\"rates\":{"), std::string::npos);

  file = std::fopen(prom.c_str(), "r");
  ASSERT_NE(file, nullptr) << prom;
  text.clear();
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  std::remove(prom.c_str());
  EXPECT_NE(text.find("cpq_telemetry_samples_total"), std::string::npos)
      << text.substr(0, 200);
  EXPECT_NE(text.find("cpq_counter_total{"), std::string::npos);
}

// With sampling on, --trace-out gains ph:"C" Perfetto counter tracks fed
// from the retained telemetry ring.
TEST(BenchCli, TelemetrySamplingAddsCounterTracksToChromeTrace) {
  const std::string path =
      ::testing::TempDir() + "cpq_cli_counter_trace_test.json";
  std::remove(path.c_str());
  std::string out;
  ASSERT_EQ(run_cli("--mode=throughput --queues=mq --threads=2 --ms=80 "
                    "--reps=1 --prefill=500 --telemetry-hz=500 "
                    "--trace-out=" +
                        path,
                    out),
            0);
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr) << path;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  std::remove(path.c_str());
  // In throughput mode the service gauges are absent, so their tracks
  // stay empty; the contention deltas come from the MetricsRegistry and
  // are always present once the plane has records.
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos)
      << text.substr(0, 200);
  EXPECT_NE(text.find("\"cas_retry_delta\""), std::string::npos);
  EXPECT_NE(text.find("\"lock_retry_delta\""), std::string::npos);
}

// The watchdog stall path, end to end against the real binary: the process
// must die with the watchdog exit code (86) and the stall dump must carry
// the metrics counters and the per-thread sampled-operation trace ring.
TEST(BenchCli, ForceStallDumpsMetricsAndTracesAndExits86) {
  std::string out;
  EXPECT_EQ(run_cli_merged("--force-stall", out, "CPQ_WATCHDOG_S=0.4"), 86);
  EXPECT_NE(out.find("[cpq-metrics] counters:"), std::string::npos) << out;
  EXPECT_NE(out.find("cas_retry=3"), std::string::npos) << out;
  EXPECT_NE(out.find("backoff_pause=7"), std::string::npos) << out;
  EXPECT_NE(out.find("sampled ops, newest first"), std::string::npos) << out;
  EXPECT_NE(out.find("insert"), std::string::npos) << out;
}

// With CPQ_STALL_DUMP_DIR set, each stalled process must persist its dump
// under a collision-free name (label + pid + counter): two back-to-back
// stalls into one directory leave two distinct files.
TEST(BenchCli, StallDumpFilesNeverCollide) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("cpq_stall_dumps_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directory(dir));
  for (int round = 0; round < 2; ++round) {
    std::string out;
    EXPECT_EQ(run_cli_merged("--force-stall", out,
                             "CPQ_WATCHDOG_S=0.4 CPQ_STALL_DUMP_DIR=" +
                                 dir.string()),
              86);
    EXPECT_NE(out.find("stall dump written to"), std::string::npos) << out;
  }
  std::vector<std::string> dumps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.rfind("stall_force-stall_", 0), 0u) << name;
    EXPECT_GT(fs::file_size(entry.path()), 0u) << name;
    dumps.push_back(name);
  }
  EXPECT_EQ(dumps.size(), 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cpq::bench
