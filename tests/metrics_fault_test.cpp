// Regression coverage for the all-repetitions-failed benchmark paths,
// driven deterministically through fault injection in kThrow mode.
//
// Compiled with CPQ_FAULT_INJECTION=1 and linked against cpq_bench_io only:
// like torture_test, it must NOT link cpq_bench_framework, whose
// registry.cpp instantiates the roster queue templates without injection
// (ODR). The queue under test here is a local mutex-protected heap with its
// own CPQ_INJECT sites; at ppm = 10^6 the first crossing throws, which
// happens during the harness's single-threaded prefill — inside the
// per-repetition try block, before any worker thread exists.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_framework/harness.hpp"
#include "bench_framework/json_out.hpp"
#include "bench_framework/registry.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::bench {
namespace {

using validation::FaultAction;
using validation::fault_injection_configure;
using validation::InjectedFault;

// Minimal harness-conforming queue with injection sites on both operations.
class MiniQueue {
 public:
  struct Handle {
    MiniQueue* q;

    void insert(std::uint64_t key, std::uint64_t value) {
      CPQ_INJECT("mini.insert");
      std::lock_guard<std::mutex> lock(q->mutex_);
      q->heap_.emplace(key, value);
    }

    bool delete_min(std::uint64_t& key, std::uint64_t& value) {
      CPQ_INJECT("mini.delete");
      std::lock_guard<std::mutex> lock(q->mutex_);
      if (q->heap_.empty()) return false;
      key = q->heap_.top().first;
      value = q->heap_.top().second;
      q->heap_.pop();
      return true;
    }
  };

  Handle get_handle(unsigned) { return Handle{this}; }

 private:
  using Item = std::pair<std::uint64_t, std::uint64_t>;
  std::mutex mutex_;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap_;
};

std::unique_ptr<MiniQueue> make_mini(unsigned, std::uint64_t,
                                     const BenchConfig&) {
  return std::make_unique<MiniQueue>();
}

// Every CPQ_INJECT crossing throws until the returned guard restores the
// disabled state.
struct ThrowEverywhere {
  ThrowEverywhere() {
    fault_injection_configure(1'000'000, 42, FaultAction::kThrow);
  }
  ~ThrowEverywhere() { fault_injection_configure(0, 42); }
};

BenchConfig small_config() {
  BenchConfig cfg;
  cfg.threads = 1;
  cfg.prefill = 16;  // > 0: the throw happens inside single-threaded prefill
  cfg.duration_s = 0.01;
  cfg.ops_per_thread = 64;
  cfg.repetitions = 2;
  cfg.pin_threads = false;
  cfg.label = "mini";
  return cfg;
}

QueueSpec mini_spec() {
  QueueSpec spec;
  spec.name = "mini";
  spec.description = "throwing test queue";
  spec.strict = true;
  spec.in_paper = false;
  spec.throughput = [](const BenchConfig& cfg) {
    return run_closed_loop<ThroughputMode>(make_mini, cfg);
  };
  spec.quality = [](const BenchConfig& cfg) {
    return run_closed_loop<QualityMode>(make_mini, cfg);
  };
  spec.latency = [](const BenchConfig& cfg) {
    return run_closed_loop<LatencyMode>(make_mini, cfg);
  };
  spec.sort_phases = [](const BenchConfig& cfg) {
    return run_closed_loop<SortMode>(make_mini, cfg);
  };
  return spec;
}

// A spec whose runner never touches a queue: stands in for a healthy cell
// next to a failed one.
QueueSpec healthy_spec() {
  QueueSpec spec;
  spec.name = "healthy";
  spec.description = "synthetic healthy cell";
  spec.strict = true;
  spec.in_paper = false;
  spec.throughput = [](const BenchConfig&) {
    ThroughputResult result;
    result.per_rep = {1.0, 1.0};
    result.mops = summarize(result.per_rep);
    return result;
  };
  return spec;
}

std::vector<JsonRecord> records_from(const std::string& path) {
  std::vector<JsonRecord> records;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return records;
  char line[4096];
  while (std::fgets(line, sizeof(line), f)) {
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    JsonRecord record;
    EXPECT_TRUE(parse_json_record(text, record)) << text;
    records.push_back(record);
  }
  std::fclose(f);
  return records;
}

TEST(FaultActionTest, ThrowActionRaisesInjectedFaultAtSite) {
  ThrowEverywhere guard;
  MiniQueue queue;
  auto handle = queue.get_handle(0);
  try {
    handle.insert(1, 1);
    FAIL() << "injected fault did not fire";
  } catch (const InjectedFault& fault) {
    EXPECT_STREQ(fault.what(), "injected fault at mini.insert");
  }
}

TEST(FaultActionTest, DelayActionDoesNotThrow) {
  fault_injection_configure(1'000'000, 42, FaultAction::kDelay);
  const std::uint64_t before = validation::fault_injections_fired();
  MiniQueue queue;
  auto handle = queue.get_handle(0);
  handle.insert(1, 1);  // fires, but only delays
  std::uint64_t key = 0, value = 0;
  EXPECT_TRUE(handle.delete_min(key, value));
  EXPECT_GE(validation::fault_injections_fired(), before + 2);
  fault_injection_configure(0, 42);
}

TEST(FaultActionTest, HoldActionParksUntilReleased) {
  fault_injection_configure(1'000'000, 42, FaultAction::kHold, "mini.insert");
  MiniQueue queue;
  std::atomic<int> inserted{0};
  const auto insert = [&queue, &inserted] {
    auto handle = queue.get_handle(0);
    handle.insert(1, 1);
    inserted.fetch_add(1);
  };
  std::thread first(insert);
  while (validation::fault_injection_held() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(inserted.load(), 0) << "a held crossing went on unreleased";
  validation::fault_injection_release(1);
  first.join();
  EXPECT_EQ(inserted.load(), 1);
  // Reconfiguring lets every parked crossing go.
  std::thread second(insert);
  while (validation::fault_injection_held() < 1) std::this_thread::yield();
  fault_injection_configure(0, 42);
  second.join();
  EXPECT_EQ(inserted.load(), 2);
  EXPECT_EQ(validation::fault_injection_held(), 0u);
}

TEST(AllFailedCellTest, RunThroughputReportsFailure) {
  ThrowEverywhere guard;
  const ThroughputResult result =
      run_closed_loop<ThroughputMode>(make_mini, small_config());
  EXPECT_TRUE(result.failed());
  EXPECT_TRUE(result.per_rep.empty());
  EXPECT_EQ(result.failed_reps, 2u);
  EXPECT_EQ(result.mops.mean, 0.0);
}

TEST(AllFailedCellTest, RunQualityReportsFailure) {
  ThrowEverywhere guard;
  const QualityResult result =
      run_closed_loop<QualityMode>(make_mini, small_config());
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(result.completed_reps, 0u);
  EXPECT_EQ(result.failed_reps, 2u);
}

TEST(AllFailedCellTest, RunLatencyReportsFailure) {
  ThrowEverywhere guard;
  const LatencyResult result =
      run_closed_loop<LatencyMode>(make_mini, small_config());
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(result.completed_reps, 0u);
  EXPECT_EQ(result.failed_reps, 2u);
  EXPECT_EQ(result.insert_ns.count(), 0u);
}

// The sort phases have no prefill: the throw happens in a worker, which
// must still let the team through both phase barriers.
TEST(AllFailedCellTest, RunSortPhasesReportsFailure) {
  ThrowEverywhere guard;
  BenchConfig cfg = small_config();
  cfg.threads = 2;
  const SortResult result = run_closed_loop<SortMode>(make_mini, cfg);
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(result.completed_reps, 0u);
  EXPECT_EQ(result.failed_reps, 2u);
}

TEST(AllFailedCellTest, SortTableMarksFailedCellsInJson) {
  ThrowEverywhere guard;
  const std::string json_path =
      testing::TempDir() + "metrics_fault_test_sort.jsonl";
  std::remove(json_path.c_str());
  JsonSink::instance().set_path(json_path);
  const QueueSpec mini = mini_spec();
  Options options;
  options.thread_ladder = {1};
  const bool ok = sort_table("fault", small_config(), options, {&mini});
  JsonSink::instance().set_path("");
  EXPECT_FALSE(ok);

  const std::vector<JsonRecord> records = records_from(json_path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].metric, "sort_insert_mops");
  EXPECT_EQ(records[1].metric, "sort_delete_mops");
  for (const JsonRecord& record : records) {
    EXPECT_EQ(record.queue, "mini");
    EXPECT_EQ(record.status, "failed");
    EXPECT_EQ(record.reps, 0u);
  }
  std::remove(json_path.c_str());
}

TEST(AllFailedCellTest, ThroughputTableMarksFailedCellsInJson) {
  ThrowEverywhere guard;
  const std::string json_path =
      testing::TempDir() + "metrics_fault_test_cells.jsonl";
  std::remove(json_path.c_str());
  JsonSink::instance().set_path(json_path);

  const QueueSpec mini = mini_spec();
  const QueueSpec healthy = healthy_spec();
  Options options;
  options.thread_ladder = {1};
  // Failed cell next to a healthy one: the table must return false (driver
  // exits non-zero) yet keep the row, and the JSON must distinguish the two.
  const bool ok = throughput_table("fault", small_config(), options,
                                   {&mini, &healthy});
  JsonSink::instance().set_path("");
  EXPECT_FALSE(ok);

  const std::vector<JsonRecord> records = records_from(json_path);
  ASSERT_EQ(records.size(), 2u);
  for (const JsonRecord& record : records) {
    ASSERT_EQ(record.metric, "throughput_mops");
    if (record.queue == "mini") {
      EXPECT_EQ(record.status, "failed");
      EXPECT_EQ(record.reps, 0u);
      EXPECT_EQ(record.mean, 0.0);
    } else {
      EXPECT_EQ(record.queue, "healthy");
      EXPECT_EQ(record.status, "ok");
      EXPECT_EQ(record.reps, 2u);
      EXPECT_EQ(record.mean, 1.0);
    }
  }
  std::remove(json_path.c_str());
}

TEST(AllFailedCellTest, AllFailedRowStillExitsNonZero) {
  ThrowEverywhere guard;
  const QueueSpec mini = mini_spec();
  Options options;
  options.thread_ladder = {1, 2};
  // Every cell of every row fails: rows are dropped from the table and the
  // driver-facing return value is false.
  EXPECT_FALSE(throughput_table("fault", small_config(), options, {&mini}));
}

}  // namespace
}  // namespace cpq::bench
