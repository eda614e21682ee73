// dispatch and overload: an open-loop task load through PriorityService
// over EngMultiQueue shards, driven by the benchmark's own load generator.
//
// Two producers each follow a seeded Poisson schedule and submit every task
// at its due time whatever the service is doing; two consumers pop tasks
// and execute each for a fixed kExecuteNs spin. Sojourn is timed from the
// scheduled due time, so a stalled producer or a backed-up service both show
// as latency; the generator's own lateness is reported separately.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "mm/arena.hpp"
#include "mm/epoch.hpp"
#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "queues/multiqueue_eng.hpp"
#include "service/priority_service.hpp"

namespace e2e::service_load {

using Shard = cpq::EngMultiQueue<std::uint64_t, std::uint64_t>;
using Service = cpq::service::PriorityService<Shard>;

constexpr unsigned kProducers = 2;
constexpr unsigned kConsumers = 2;
constexpr unsigned kThreads = kProducers + kConsumers;
constexpr std::uint64_t kExecuteNs = 2'000;
// The first second of every run warms caches, pools and shard sizes; tasks
// due in it are served and accounted but not measured.
constexpr std::uint64_t kWarmupNs = 1'000'000'000;
// After the last due time, consumers keep serving until every task is
// accounted for or this long has passed; the rest is drained after close().
constexpr std::uint64_t kTailNs = 2'000'000'000;
// Set-up takes a few milliseconds, so it is repeated this often and
// setup_s is the median.
constexpr unsigned kSetups = 31;
// Keys are uniform 32-bit; tier 0 of the four uniform tiers over 2^32 (the
// default TierMap) is the smallest-key quarter, the "urgent" tasks.
constexpr std::uint64_t kUrgentKeyLimit = std::uint64_t{1} << 30;
// Traced runs alternate untraced and traced slices of this length, and
// record the spans of one task id in kIdSample.
constexpr std::uint64_t kSliceNs = 1'000'000'000;
constexpr std::uint64_t kIdSample = 4096;

// The service's value carries the task id and its due time (8 ns units
// since the schedule's start), so the consumer needs no shared table.
constexpr unsigned kIdBits = 27;
constexpr unsigned kDueShift = 3;
constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;

struct Workload {
  const char* name;
  double rate_per_s;  // offered load, both producers together
  bool overload;      // X7 envelope + try_submit
};

// Rates are absolute, set from the capacity measured on the reference
// machine (see NOTES.md): dispatch at about half of it, overload at 1.5x.
inline constexpr Workload kDispatch{"dispatch", 380'000, false};
inline constexpr Workload kOverload{"overload", 1'140'000, true};

constexpr std::uint64_t kTtlUs = 1'500;
constexpr std::size_t kInFlight = 4'096;

inline cpq::service::ServiceConfig service_config(const Workload& w,
                                                  std::uint64_t seed) {
  cpq::service::ServiceConfig c;  // shards, batching: the defaults
  c.seed = seed;
  if (w.overload) {
    c.ttl_us = kTtlUs;
    c.policy = cpq::service::AdmissionPolicy::kTiered;
    c.max_in_flight = kInFlight;
    c.breaker_trip_us = 0;  // off: on a shared VM it would trip on the host
  }
  return c;
}

// The key of task `id`: a hash, so the consumer can check every key it is
// handed without a table.
inline std::uint64_t key_of(std::uint64_t key_seed, std::uint64_t id) {
  Rng rng(key_seed ^ (id * 0x9e3779b97f4a7c15ULL));
  return rng.next() >> 32;
}

inline std::uint64_t pack(std::uint64_t id, std::uint64_t due_offset_ns) {
  return id | ((due_offset_ns >> kDueShift) << kIdBits);
}
inline std::uint64_t id_of(std::uint64_t value) { return value & kIdMask; }
inline std::uint64_t due_of(std::uint64_t value) {
  return (value >> kIdBits) << kDueShift;
}

// Refused plus shed tasks over tasks offered (not over tasks accepted or
// delivered: a refusal is a failure the user sees).
inline double failed_pct(std::uint64_t failed, std::uint64_t offered) {
  return pct(static_cast<double>(failed), static_cast<double>(offered));
}

// Every offered id is accounted exactly once: one bit per id, set by the
// delivery, shed, rejection or drain that settled it. A second mark is a
// duplicate, a mark outside the offered ids is fabricated.
class Ledger {
 public:
  explicit Ledger(std::uint64_t capacity) : bits_((capacity + 63) / 64) {
    for (auto& w : bits_) w.store(0, std::memory_order_relaxed);
  }
  std::uint64_t capacity() const { return bits_.size() * 64; }

  bool mark(std::uint64_t id) {
    if (id >= capacity()) {
      fabricated_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if (bits_[id / 64].fetch_or(bit, std::memory_order_relaxed) & bit) {
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
  bool marked(std::uint64_t id) const {
    return (bits_[id / 64].load(std::memory_order_relaxed) >> (id % 64)) & 1;
  }
  std::uint64_t duplicated() const { return duplicated_.load(); }
  std::uint64_t fabricated() const { return fabricated_.load(); }

 private:
  std::vector<std::atomic<std::uint64_t>> bits_;
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> fabricated_{0};
};

// Per-thread results; pairs are indexed by slice kind (1 = traced).
struct ThreadStats {
  std::atomic<std::uint64_t> done{0};  // tasks this thread settled
  std::uint64_t offered = 0;           // producers: tasks in the schedule
  std::uint64_t window_offered[2] = {0, 0};
  std::uint64_t window_rejected[2] = {0, 0};
  std::uint64_t window_good[2] = {0, 0};
  std::uint64_t calls = 0;  // service calls inside the window
  std::uint64_t empty = 0;  // consumer delete_min misses inside the window
  std::uint64_t bad_keys = 0;
  std::uint64_t busy_ticks = 0;     // traced: inside delete_min
  std::uint64_t execute_ticks = 0;  // traced: inside app.execute
  Histogram sojourn_ns[2];
  Histogram urgent_ns[2];
  Histogram lag_ns;
  Histogram call_ns;  // traced: submit calls, or delete_min hits
  std::vector<Span> spans;
};

// Slice state, written by the main thread and read on every call.
enum : int { kOutside = 0, kUntraced = 1, kTraced = 2 };

class Run {
 public:
  Run(const Workload& w, std::uint64_t seed, unsigned seconds, bool trace)
      : w_(w),
        trace_(trace),
        window_ns_(std::uint64_t{seconds} * 1'000'000'000),
        total_ns_(kWarmupNs + window_ns_),
        key_seed_(stream_seed(seed, 20)),
        schedule_seed_(stream_seed(seed, 21)),
        service_seed_(stream_seed(seed, 22)),
        // Room for 20% more tasks than the schedule's mean, far beyond the
        // Poisson spread.
        per_producer_cap_(static_cast<std::uint64_t>(
            w.rate_per_s / kProducers * static_cast<double>(total_ns_) / 1e9 *
                1.2 +
            10'000)) {}

  // Sets up kSetups times; the last set-up runs. A set-up is everything the
  // run prepares before its window: the service with its shards and deadline
  // pool, the four handles, and the driver's task ledger and per-thread
  // histograms. The service alone builds in microseconds, which moved by
  // 30-50% from one process to the next on the reference VM; zeroing the
  // ledger and histograms (2-7 MB) makes the figure steady enough to gate.
  // The worker threads are started afterwards and take over the handles:
  // creating an OS thread means waking a halted vCPU, whose latency (60 to
  // 400 us on the reference VM) is not the program's work.
  std::vector<double> set_up() {
    std::vector<double> seconds;
    for (unsigned i = 0; i < kSetups; ++i) {
      handles_.clear();
      service_.reset();
      ledger_.reset();
      stats_.clear();
      const std::uint64_t t0 = now_ns();
      build();
      seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    for (unsigned t = 0; t < kThreads; ++t) {
      threads_.emplace_back([this, t] { thread_main(t); });
    }
    return seconds;
  }

  Report measure(const std::vector<double>& setup_s,
                 const std::string& trace_path);

  // Only reached with threads still running if measure() threw.
  ~Run() {
    if (threads_.empty()) return;
    stop_.store(true, std::memory_order_release);
    start(-1);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void build() {
    ledger_ = std::make_unique<Ledger>(per_producer_cap_ * kProducers);
    stats_ = std::vector<ThreadStats>(kThreads);
    service_ = std::make_unique<Service>(
        kThreads, service_config(w_, service_seed_), [&](unsigned shard) {
          return std::make_unique<Shard>(kThreads, cpq::MqEngConfig{},
                                         stream_seed(service_seed_, shard));
        });
    service_->set_shed_sink([this](std::uint64_t key, std::uint64_t value) {
      settle(key, value, shed_, &window_shed_);
    });
    for (unsigned t = 0; t < kThreads; ++t) {
      handles_.push_back(service_->get_handle(t));
    }
  }

  void start(int phase) {
    phase_.store(phase, std::memory_order_release);
    phase_.notify_all();
  }

  // The handle dies with its thread: a producer's flushes its buffered
  // tasks, a consumer's spills its prefetched ones back to a shard.
  void thread_main(unsigned t) {
    Service::Handle handle = std::move(handles_[t]);
    phase_.wait(0, std::memory_order_acquire);
    if (phase_.load(std::memory_order_acquire) < 0) return;
    if (t < kProducers) {
      produce(handle, t);
    } else {
      consume(handle, t);
    }
  }

  // Account a shed or drained task; `window` also counts window tasks.
  void settle(std::uint64_t key, std::uint64_t value,
              std::atomic<std::uint64_t>& all,
              std::atomic<std::uint64_t>* window) {
    const std::uint64_t id = id_of(value);
    if (!ledger_->mark(id)) return;
    if (key != key_of(key_seed_, id)) bad_keys_.fetch_add(1);
    all.fetch_add(1, std::memory_order_relaxed);
    if (window != nullptr && slice_of_due(due_of(value)) >= 0) {
      window->fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Window slice of a due time, or -1 outside the window. Traced runs
  // trace the odd slices.
  std::int64_t slice_of_due(std::uint64_t due_offset) const {
    if (due_offset < kWarmupNs || due_offset >= total_ns_) return -1;
    return static_cast<std::int64_t>((due_offset - kWarmupNs) / kSliceNs);
  }
  bool traced_slice(std::int64_t slice) const {
    return trace_ && slice % 2 == 1;
  }

  void produce(Service::Handle& handle, unsigned p);
  void consume(Service::Handle& handle, unsigned t);

  const Workload& w_;
  const bool trace_;
  const std::uint64_t window_ns_;
  const std::uint64_t total_ns_;
  const std::uint64_t key_seed_;
  const std::uint64_t schedule_seed_;
  const std::uint64_t service_seed_;
  const std::uint64_t per_producer_cap_;
  std::unique_ptr<Ledger> ledger_;
  std::vector<ThreadStats> stats_;
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> window_shed_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> bad_keys_{0};
  std::atomic<bool> overflow_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> slice_{kOutside};
  std::uint64_t t0_ = 0;
  std::unique_ptr<Service> service_;
  std::vector<Service::Handle> handles_;  // until the threads take them
  std::atomic<int> phase_{0};             // 0 wait, 1 run, -1 exit
  // Declared last: the threads use every member above.
  std::vector<std::thread> threads_;
};

inline void Run::produce(Service::Handle& handle, unsigned p) {
  ThreadStats& st = stats_[p];
  Rng rng(stream_seed(schedule_seed_, p));
  const double mean_gap_ns = 1e9 * kProducers / w_.rate_per_s;
  const TickScale* scale = trace_ ? &TickScale::get() : nullptr;
  double offset = 0;
  std::uint64_t i = 0;
  for (;; ++i) {
    offset += rng.exponential(mean_gap_ns);
    const auto due_offset = static_cast<std::uint64_t>(offset);
    if (due_offset >= total_ns_ || stop_.load(std::memory_order_relaxed)) {
      break;
    }
    if (i >= per_producer_cap_) {
      overflow_.store(true);
      break;
    }
    const std::uint64_t due = t0_ + due_offset;
    std::uint64_t now = now_ns();
    while (now < due) {
      cpq::cpu_relax();
      now = now_ns();
    }
    const std::uint64_t id = i * kProducers + p;
    const std::uint64_t key = key_of(key_seed_, id);
    const std::uint64_t value = pack(id, due_offset);
    const std::int64_t slice = slice_of_due(due_offset);
    const bool traced = slice >= 0 && traced_slice(slice);
    const std::uint64_t a = traced ? ticks() : 0;
    const bool accepted =
        w_.overload ? handle.try_submit(key, value) : handle.insert(key, value);
    if (traced) {
      const std::uint64_t b = ticks();
      st.call_ns.add(scale->call_units(b - a));
      if (id % kIdSample == 0) {
        st.spans.push_back({"gen.due", nullptr, due, now, id});
        st.spans.push_back(
            {"service.submit", nullptr, scale->to_ns(a), scale->to_ns(b), id});
      }
    }
    if (slice >= 0) {
      ++st.calls;
      st.lag_ns.add(now - due);
      ++st.window_offered[traced];
    }
    if (!accepted) {
      if (ledger_->mark(id)) {
        st.done.store(st.done.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      }
      if (slice >= 0) ++st.window_rejected[traced];
    }
  }
  st.offered = i;
}

inline void Run::consume(Service::Handle& handle, unsigned t) {
  ThreadStats& st = stats_[t];
  const TickScale* scale = trace_ ? &TickScale::get() : nullptr;
  const std::uint64_t ttl_ns = w_.overload ? kTtlUs * 1000 : 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const int state = slice_.load(std::memory_order_relaxed);
    const bool traced = state == kTraced;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    const std::uint64_t a = traced ? ticks() : 0;
    const bool hit = handle.delete_min(key, value);
    const std::uint64_t b = traced ? ticks() : 0;
    if (state != kOutside) {
      ++st.calls;
      st.busy_ticks += b - a;
      if (!hit) ++st.empty;
    }
    if (!hit) continue;
    const std::uint64_t now = now_ns();
    const std::uint64_t id = id_of(value);
    if (!ledger_->mark(id)) continue;
    if (key != key_of(key_seed_, id)) ++st.bad_keys;
    const std::uint64_t due_offset = due_of(value);
    const std::int64_t slice = slice_of_due(due_offset);
    if (slice >= 0) {
      const std::uint64_t due = t0_ + due_offset;
      const std::uint64_t sojourn = now > due ? now - due : 0;
      const bool kind = traced_slice(slice);
      st.sojourn_ns[kind].add(sojourn);
      if (key < kUrgentKeyLimit) st.urgent_ns[kind].add(sojourn);
      if (ttl_ns == 0 || sojourn <= ttl_ns) ++st.window_good[kind];
    }
    if (traced) st.call_ns.add(scale->call_units(b - a));
    // app.execute: the task's own work, a fixed spin.
    const std::uint64_t e0 = traced ? ticks() : 0;
    while (now_ns() < now + kExecuteNs) {
    }
    if (traced) {
      const std::uint64_t e1 = ticks();
      st.execute_ticks += e1 - e0;
      if (id % kIdSample == 0) {
        st.spans.push_back({"service.delete_min", nullptr, scale->to_ns(a),
                            scale->to_ns(b), id});
        st.spans.push_back({"app.execute", nullptr, scale->to_ns(e0),
                            scale->to_ns(e1), id});
      }
    }
    st.done.store(st.done.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }
}

inline Report Run::measure(const std::vector<double>& setup_s,
                           const std::string& trace_path) {
  Report report;
  ThreadStats all;
  // Counter snapshots at the window's edges.
  auto snapshot = [&] {
    struct Snap {
      cpq::service::ServiceStats service;
      std::array<std::uint64_t, cpq::obs::kNumCounters> counters;
      cpq::mm::BlockPool::Stats pool;
      std::uint64_t ebr;
    };
    const cpq::mm::EbrDomain& ebr = cpq::mm::EbrDomain::global();
    return Snap{service_->stats(), cpq::obs::MetricsRegistry::global().totals(),
                cpq::mm::BlockPool::global().stats(),
                ebr.retired_count() + ebr.freed_count()};
  };

  t0_ = now_ns() + 5'000'000;
  start(1);
  auto sleep_until = [&](std::uint64_t offset) {
    const std::uint64_t target = t0_ + offset;
    const std::uint64_t now = now_ns();
    if (target > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
    }
  };
  sleep_until(kWarmupNs);
  const auto s0 = snapshot();
  double kind_s[2] = {0, 0};  // window seconds per slice kind
  for (std::uint64_t at = 0; at < window_ns_; at += kSliceNs) {
    const int kind = trace_ && (at / kSliceNs) % 2 == 1 ? 1 : 0;
    slice_.store(kind == 1 ? kTraced : kUntraced, std::memory_order_relaxed);
    const std::uint64_t end = std::min(at + kSliceNs, window_ns_);
    kind_s[kind] += static_cast<double>(end - at) / 1e9;
    sleep_until(kWarmupNs + end);
  }
  slice_.store(kOutside, std::memory_order_relaxed);
  const auto s1 = snapshot();

  for (unsigned p = 0; p < kProducers; ++p) threads_[p].join();
  std::uint64_t offered = 0;
  for (unsigned p = 0; p < kProducers; ++p) offered += stats_[p].offered;
  auto accounted = [&] {
    std::uint64_t n = shed_.load();
    for (const ThreadStats& st : stats_) n += st.done.load();
    return n;
  };
  const std::uint64_t tail_end = now_ns() + kTailNs;
  while (accounted() < offered && now_ns() < tail_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_.store(true, std::memory_order_release);
  for (unsigned t = kProducers; t < kThreads; ++t) threads_[t].join();
  threads_.clear();
  service_->close();
  service_->drain([this](std::uint64_t key, std::uint64_t value) {
    settle(key, value, drained_, nullptr);
  });
  const auto s2 = snapshot();
  const double rss_mb = peak_rss_mb();

  // Correctness: every offered id settled exactly once, every key intact.
  std::uint64_t lost = 0;
  std::uint64_t extra = ledger_->fabricated();
  for (unsigned p = 0; p < kProducers; ++p) {
    for (std::uint64_t i = 0; i < per_producer_cap_; ++i) {
      const bool marked = ledger_->marked(i * kProducers + p);
      if (i < stats_[p].offered && !marked) ++lost;
      if (i >= stats_[p].offered && marked) ++extra;
    }
  }
  std::uint64_t bad_keys = bad_keys_.load();
  for (ThreadStats& st : stats_) {
    bad_keys += st.bad_keys;
    for (int k = 0; k < 2; ++k) {
      all.window_offered[k] += st.window_offered[k];
      all.window_rejected[k] += st.window_rejected[k];
      all.window_good[k] += st.window_good[k];
      all.sojourn_ns[k].merge(st.sojourn_ns[k]);
      all.urgent_ns[k].merge(st.urgent_ns[k]);
    }
    all.lag_ns.merge(st.lag_ns);
  }
  const std::uint64_t delivered = s2.service.delivered;
  const std::uint64_t rejected = s2.service.rejected;
  report.attempted = offered;
  report.failed = lost + extra + ledger_->duplicated() + bad_keys;
  if (overflow_.load()) report.fail("schedule overflowed the id space");
  if (report.failed != 0) {
    report.fail(std::to_string(lost) + " tasks lost, " +
                std::to_string(ledger_->duplicated()) + " duplicated, " +
                std::to_string(extra) + " fabricated, " +
                std::to_string(bad_keys) + " with a wrong key");
  }
  if (delivered + shed_.load() + rejected + drained_.load() != offered) {
    report.fail("delivered " + std::to_string(delivered) + " + shed " +
                std::to_string(shed_.load()) + " + rejected " +
                std::to_string(rejected) + " + drained " +
                std::to_string(drained_.load()) + " != offered " +
                std::to_string(offered));
  }

  const double window_s = static_cast<double>(window_ns_) / 1e9;
  const std::uint64_t window_offered =
      all.window_offered[0] + all.window_offered[1];
  const std::uint64_t window_failed =
      all.window_rejected[0] + all.window_rejected[1] + window_shed_.load();
  std::printf("# %s: %.0f tasks/s offered by %u producers, %u consumers, "
              "execute %llu ns, window %.0f s after %.0f s warm-up\n"
              "# offered %llu (window %llu), delivered %llu, shed %llu, "
              "rejected %llu, drained %llu; window failed_pct %.4f %%\n"
              "# generator lag p99 %.3f us over %llu window tasks; "
              "delivered %.0f tasks/s during the window\n",
              w_.name, w_.rate_per_s, kProducers, kConsumers,
              static_cast<unsigned long long>(kExecuteNs), window_s,
              static_cast<double>(kWarmupNs) / 1e9,
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(window_offered),
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(shed_.load()),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(drained_.load()),
              failed_pct(window_failed, window_offered),
              static_cast<double>(all.lag_ns.percentile(99)) / 1e3,
              static_cast<unsigned long long>(all.lag_ns.count()),
              static_cast<double>(s1.service.delivered - s0.service.delivered) /
                  window_s);
  if (!report.correct) return report;

  // End-to-end figures of one slice kind (0 untraced, 1 traced).
  //
  // The gated tail is p90, not p99. On the reference machine (a 4-vCPU
  // Xeon VM) a spinning thread loses 1-4% of its time to host preemption in
  // bursts of up to ~12 ms, and a stalled producer or consumer delays every
  // task due or buffered meanwhile; that share of tasks sits right at p99,
  // which then follows the host's load (1.0 to 5.8 ms across runs of one
  // build) rather than the service's. p90 stays inside the service's own
  // batching delay. p99 is printed with its sample count for reference.
  auto goodput = [&](int k) {
    return static_cast<double>(all.window_good[k]) / kind_s[k];
  };
  auto sojourn_us = [&](const Histogram& h, double p, const char* what) {
    return checked_percentile(report, h, p, what) / 1e3;
  };
  std::printf("# sojourn p99 %.3f us over %llu tasks, urgent p99 %.3f us "
              "over %llu tasks (not gated)\n",
              all.sojourn_ns[0].percentile(99) / 1e3,
              static_cast<unsigned long long>(all.sojourn_ns[0].count()),
              all.urgent_ns[0].percentile(99) / 1e3,
              static_cast<unsigned long long>(all.urgent_ns[0].count()));
  if (!trace_) {
    report.add("setup_s", median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) +
                   " set-ups: service, shards, pool, handles, ledger");
    report.add("peak_rss_mb", rss_mb, "MB", "process peak");
    report.add("goodput_per_s", goodput(0), "1/s",
               std::string("window tasks delivered") +
                   (w_.overload ? " within the 1.5 ms TTL of their due time"
                                : "") +
                   ", per second of window");
    const std::string tasks = std::to_string(all.sojourn_ns[0].count()) +
                              " delivered window tasks, due time to hand-off";
    report.add("sojourn_p50_us", sojourn_us(all.sojourn_ns[0], 50, "sojourns"),
               "us", "p50 of " + tasks);
    report.add("sojourn_p90_us", sojourn_us(all.sojourn_ns[0], 90, "sojourns"),
               "us", "p90 of " + tasks);
    report.add("urgent_sojourn_p90_us",
               sojourn_us(all.urgent_ns[0], 90, "urgent sojourns"), "us",
               "p90 of " + std::to_string(all.urgent_ns[0].count()) +
                   " delivered tier-0 (smallest-key quarter) window tasks");
    return report;
  }

  // Traced run: per-layer figures.
  const TickScale& scale = TickScale::get();
  Histogram submit_ns, delete_ns;
  std::uint64_t calls = 0, consumer_calls = 0, empty = 0;
  std::uint64_t busy_ticks = 0, execute_ticks = 0;
  std::vector<std::vector<Span>> spans;
  std::vector<std::string> names;
  for (unsigned t = 0; t < kThreads; ++t) {
    ThreadStats& st = stats_[t];
    calls += st.calls;
    if (t < kProducers) {
      submit_ns.merge(st.call_ns);
    } else {
      delete_ns.merge(st.call_ns);
      consumer_calls += st.calls;
      empty += st.empty;
      busy_ticks += st.busy_ticks;
      execute_ticks += st.execute_ticks;
    }
    spans.push_back(std::move(st.spans));
    names.push_back((t < kProducers ? "producer " : "consumer ") +
                    std::to_string(t));
  }
  const double traced_consumer_ns = kind_s[1] * 1e9 * kConsumers;
  auto counter = [&](cpq::obs::Counter c) {
    const auto i = static_cast<unsigned>(c);
    return static_cast<double>(s1.counters[i] - s0.counters[i]);
  };
  const std::string per_call =
      "over " + std::to_string(calls) + " service calls in the window";
  const double offered_d = static_cast<double>(window_offered);
  const std::string of_offered =
      "of " + std::to_string(window_offered) + " window tasks offered";
  report.add("service.submit_ns_p50",
             call_ns_percentile(report, submit_ns, 50, "submits"), "ns",
             std::to_string(submit_ns.count()) + " submit calls, traced slices");
  report.add("service.submit_ns_p99",
             call_ns_percentile(report, submit_ns, 99, "submits"), "ns",
             std::to_string(submit_ns.count()) + " submit calls");
  report.add("service.delete_ns_p50",
             call_ns_percentile(report, delete_ns, 50, "delete hits"), "ns",
             std::to_string(delete_ns.count()) + " delete_min hits");
  report.add("service.delete_ns_p99",
             call_ns_percentile(report, delete_ns, 99, "delete hits"), "ns",
             std::to_string(delete_ns.count()) + " delete_min hits");
  report.add("service.empty_pop_pct",
             pct(static_cast<double>(empty), static_cast<double>(consumer_calls)),
             "%", "of " + std::to_string(consumer_calls) +
                      " consumer delete_min calls in the window");
  report.add("service.busy_pct", pct(scale.ns(busy_ticks), traced_consumer_ns),
             "%", "of consumer time in delete_min, traced slices");
  report.add("app.busy_pct", pct(scale.ns(execute_ticks), traced_consumer_ns),
             "%", "of consumer time in app.execute, traced slices");
  const double refills =
      static_cast<double>(s1.service.refills - s0.service.refills);
  const double fill = s1.service.mean_delete_fill *
                          static_cast<double>(s1.service.refills) -
                      s0.service.mean_delete_fill *
                          static_cast<double>(s0.service.refills);
  const double batch = static_cast<double>(service_->config().delete_batch);
  report.add("service.delete_fill_pct", pct(per(fill, refills), batch), "%",
             "mean tasks per refill over delete_batch " +
                 std::to_string(static_cast<int>(batch)) + ", " +
                 std::to_string(static_cast<std::uint64_t>(refills)) +
                 " refills");
  report.add("service.steal_pct",
             pct(static_cast<double>(s1.service.steals - s0.service.steals),
                 refills),
             "%", "of refills served by stealing");
  report.add("service.shed_pct",
             pct(static_cast<double>(s2.service.shed_deadline -
                                     s0.service.shed_deadline),
                 offered_d),
             "%", of_offered);
  report.add("service.reject_pct",
             pct(static_cast<double>(s2.service.rejected - s0.service.rejected),
                 offered_d),
             "%", of_offered);
  report.add("service.tier_reject_pct",
             pct(static_cast<double>(s2.service.tier_rejected -
                                     s0.service.tier_rejected),
                 offered_d),
             "%", of_offered);
  report.add("platform.cas_retry_per_op",
             per(counter(cpq::obs::Counter::kCasRetry),
                 static_cast<double>(calls)),
             "1/op", per_call);
  report.add("platform.lock_retry_per_op",
             per(counter(cpq::obs::Counter::kLockRetry),
                 static_cast<double>(calls)),
             "1/op", per_call);
  report.add("platform.backoff_per_op",
             per(counter(cpq::obs::Counter::kBackoffPause),
                 static_cast<double>(calls)),
             "1/op", per_call);
  const double fresh = static_cast<double>(s1.pool.fresh - s0.pool.fresh);
  const double reused = static_cast<double>(s1.pool.reused - s0.pool.reused);
  report.add("mm.pool_fresh", fresh, "count", "BlockPool chunks, window");
  report.add("mm.pool_reuse_pct", pct(reused, reused + fresh), "%",
             "of BlockPool allocations in the window");
  report.add("mm.ebr_retired", static_cast<double>(s1.ebr - s0.ebr), "count",
             "EBR retirements in the window");
  report.add("gen.lag_p99_us",
             checked_percentile(report, all.lag_ns, 99, "generator lags") / 1e3,
             "us", std::to_string(all.lag_ns.count()) +
                       " window tasks, submit call start - due time");
  report.add("gen.offered_per_s", offered_d / window_s, "1/s",
             std::to_string(window_offered) + " tasks due in the window");
  // The primary figure: sojourn p90 on dispatch, goodput on overload;
  // positive means tracing made it worse.
  const double p90[2] = {sojourn_us(all.sojourn_ns[0], 90, "sojourns"),
                         sojourn_us(all.sojourn_ns[1], 90, "traced sojourns")};
  const double overhead = w_.overload ? pct(goodput(0) - goodput(1), goodput(0))
                                      : pct(p90[1] - p90[0], p90[0]);
  report.add("trace.overhead_pct", overhead, "%",
             w_.overload ? "goodput_per_s, traced vs untraced slices"
                         : "sojourn_p90_us, traced vs untraced slices");
  if (!write_chrome_trace(trace_path, spans, names, t0_)) {
    report.fail("cannot write trace " + trace_path);
  }
  return report;
}

inline Report run(const Workload& w, std::uint64_t seed, unsigned seconds,
                  bool trace, const std::string& trace_path) {
  if (trace) TickScale::get();
  Run run(w, seed, seconds, trace);
  const std::vector<double> setup_s = run.set_up();
  return run.measure(setup_s, trace_path);
}

}  // namespace e2e::service_load
