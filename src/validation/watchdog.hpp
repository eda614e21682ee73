// Progress watchdog: turn livelocks into loud, diagnosable failures.
//
// A lock-free queue that livelocks under contention doesn't crash — it hangs
// the benchmark (and CI) forever, or worse, hangs one repetition out of ten
// and poisons the reported numbers. The watchdog is a sampling thread that
// watches per-worker heartbeat counters (ticked once per operation in the
// measurement loops — one relaxed store to a thread-private cache line). If
// the *global* heartbeat sum stops changing for a configurable deadline, it
// dumps per-thread op counts, each thread's last operation, and the queue
// name to stderr, then terminates the process with kWatchdogExitCode so CI
// can distinguish a livelock from a crash or an assertion failure.
//
// The deadline comes from CPQ_WATCHDOG_S (seconds; default 120, 0 disables)
// or an explicit per-run override (BenchConfig::watchdog_s, tests).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/timeseries.hpp"
#include "platform/cache.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace cpq::validation {

// Distinct exit code for watchdog aborts (not used by gtest, sanitizers, or
// the shell for signal deaths).
inline constexpr int kWatchdogExitCode = 86;

enum class LastOp : std::uint8_t {
  kNone = 0,
  kInsert = 1,
  kDeleteHit = 2,
  kDeleteEmpty = 3,
};

inline const char* last_op_name(std::uint8_t op) noexcept {
  switch (op) {
    case 1: return "insert";
    case 2: return "delete_min (hit)";
    case 3: return "delete_min (empty)";
    default: return "none";
  }
}

// One heartbeat slot per worker thread, on its own cache line. Workers call
// tick() once per operation; the watchdog reads racily.
struct alignas(kCacheLineSize) WorkerProgress {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint8_t> last_op{0};

  void tick(std::uint64_t op_count, LastOp op) noexcept {
    ops.store(op_count, std::memory_order_relaxed);
    last_op.store(static_cast<std::uint8_t>(op), std::memory_order_relaxed);
  }
};

inline int stall_dump_pid() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<int>(::getpid());
#else
  return 0;
#endif
}

// Unique stall-dump file path under `dir`. Several bench processes (and
// several watchdogs within one process — e.g. one per repetition) may dump
// concurrently into a shared directory, so the name carries both the pid and
// a process-wide monotonic counter: two dumps can never collide on a name.
inline std::string stall_dump_path(const std::string& dir,
                                   const std::string& label) {
  static std::atomic<unsigned> counter{0};
  std::string sanitized;
  sanitized.reserve(label.size());
  for (const char c : label) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    sanitized.push_back(keep ? c : '_');
  }
  if (sanitized.empty()) sanitized = "unnamed";
  return dir + "/stall_" + sanitized + "_" +
         std::to_string(stall_dump_pid()) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".txt";
}

// Resolve the effective deadline: an explicit non-negative override wins,
// otherwise CPQ_WATCHDOG_S, otherwise the fallback. 0 disables supervision.
inline double watchdog_deadline(double override_s,
                                double fallback_s = 120.0) {
  if (override_s >= 0.0) return override_s;
  if (const char* env = std::getenv("CPQ_WATCHDOG_S")) {
    char* end = nullptr;
    const double value = std::strtod(env, &end);
    if (end != env && value >= 0.0) return value;
  }
  return fallback_s;
}

class Watchdog {
 public:
  // Optional subsystem diagnostics appended to the stall dump: layers above
  // the raw queues (e.g. the priority service's per-shard counters) register
  // a callback writing their state to the given stream.
  using Diagnostics = std::function<void(std::FILE*)>;

  // Supervise `count` workers. A deadline <= 0 (or no workers) disables the
  // watchdog entirely — no thread is started.
  Watchdog(std::string label, const WorkerProgress* workers,
           std::size_t count, double deadline_s,
           Diagnostics diagnostics = {})
      : label_(std::move(label)),
        workers_(workers),
        count_(count),
        deadline_s_(deadline_s),
        diagnostics_(std::move(diagnostics)) {
    if (deadline_s_ > 0.0 && workers_ != nullptr && count_ > 0) {
      thread_ = std::thread([this] { run(); });
    }
  }

  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Idempotent; returns once the sampling thread has exited.
  void stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::uint64_t heartbeat_sum() const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      sum += workers_[i].ops.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void run() {
    using clock = std::chrono::steady_clock;
    const auto poll = std::chrono::duration<double>(
        std::clamp(deadline_s_ / 8.0, 0.001, 0.1));
    auto last_change = clock::now();
    std::uint64_t last_sum = heartbeat_sum();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (cv_.wait_for(lock, poll, [this] { return stop_; })) break;
      const std::uint64_t sum = heartbeat_sum();
      const auto now = clock::now();
      if (sum != last_sum) {
        last_sum = sum;
        last_change = now;
        continue;
      }
      const double stalled =
          std::chrono::duration<double>(now - last_change).count();
      if (stalled >= deadline_s_) dump_and_abort(stalled);
    }
  }

  void dump_to(std::FILE* out, double stalled_s) const {
    std::fprintf(out,
                 "[cpq-watchdog] no progress on '%s' for %.1f s "
                 "(deadline %.1f s, %zu workers) — aborting\n",
                 label_.c_str(), stalled_s, deadline_s_, count_);
    for (std::size_t i = 0; i < count_; ++i) {
      std::fprintf(
          out, "[cpq-watchdog]   thread %zu: %llu ops, last op: %s\n", i,
          static_cast<unsigned long long>(
              workers_[i].ops.load(std::memory_order_relaxed)),
          last_op_name(workers_[i].last_op.load(std::memory_order_relaxed)));
    }
    if (diagnostics_) diagnostics_(out);
    // Flight recorder: when the telemetry plane has been sampling, the last
    // few snapshots show what throughput, latency, and SLO burn looked like
    // in the seconds *leading into* the stall — usually the difference
    // between "it hung" and an actionable picture.
    obs::TelemetryPlane::global().dump_recent(out);
  }

  [[noreturn]] void dump_and_abort(double stalled_s) const {
    dump_to(stderr, stalled_s);
    // Persist the dump when CPQ_STALL_DUMP_DIR is set (CI keeps these as
    // artifacts); the pid+counter suffix makes concurrent dumps safe.
    if (const char* dir = std::getenv("CPQ_STALL_DUMP_DIR")) {
      const std::string path = stall_dump_path(dir, label_);
      if (std::FILE* file = std::fopen(path.c_str(), "w")) {
        dump_to(file, stalled_s);
        std::fclose(file);
        std::fprintf(stderr, "[cpq-watchdog] stall dump written to %s\n",
                     path.c_str());
      } else {
        std::fprintf(stderr,
                     "[cpq-watchdog] could not write stall dump to %s\n",
                     path.c_str());
      }
    }
    std::fflush(stderr);
    std::_Exit(kWatchdogExitCode);
  }

  const std::string label_;
  const WorkerProgress* const workers_;
  const std::size_t count_;
  const double deadline_s_;
  const Diagnostics diagnostics_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace cpq::validation
