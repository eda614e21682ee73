// Live telemetry plane: a background sampler that turns the process's
// point-in-time observability (counter totals, histograms, service gauges,
// rank estimate, arena stats) into a *time series*, so overload onset,
// breaker flaps, and shed storms are visible as trajectories instead of
// being averaged away in end-of-run aggregates.
//
// Architecture:
//
//   workers ──> AtomicLogHistogram feeds (latency / sojourn, relaxed adds)
//           ──> sojourn stamp table (sampled submit->delivery matching)
//   subsystems ──> GaugeSet providers (service shard stats, bench counters)
//
//   TelemetrySampler thread (started by --telemetry-hz > 0):
//     every 1/hz seconds, under the plane lock:
//       counter deltas   <- MetricsRegistry totals - previous snapshot
//       window quantiles <- histogram bucket deltas (HistogramWindow)
//       gauges           <- registered providers (instantaneous/cumulative)
//       derived rates    <- gauge deltas / interval (delivered_per_s, ...)
//       rank estimate    <- RankEstimator snapshot (cumulative)
//       arena deltas     <- mm::BlockPool stats - previous snapshot
//       SLO evaluation   <- SloTracker over the derived metrics
//     ... into one TelemetryRecord in a preallocated ring.
//
// Exports (all offline, after stop()):
//   * write_jsonl      — JSON Lines, schema_version=4, one record per line
//                        (tools/check_timeseries.py validates)
//   * Chrome counter tracks — obs/chrome_trace.hpp merges the ring into the
//                        --trace-out stream as ph:"C" events
//   * write_prometheus — text exposition dump of the final totals
//   * dump_recent      — flight-recorder tail for watchdog stall dumps
//
// Cost model: with the plane inactive (default) every hot-path feed is one
// acquire load of `active_` and a branch; no sampler thread exists, no
// memory beyond the (lazily-constructed) singleton. Timestamps are
// monotonic_ns (platform/clock.hpp) so records align with Chrome trace op
// events and the service layer's microsecond deadlines.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mm/arena.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/rank_estimator.hpp"
#include "obs/slo.hpp"
#include "platform/clock.hpp"
#include "platform/timing.hpp"

namespace cpq::obs {

// Schema stamped on every JSONL time-series line. Independent artifact from
// the per-cell bench records (bench_framework/json_out.hpp) but kept on the
// same version counter: both jumped to 4 when the telemetry plane landed.
inline constexpr unsigned kTimeseriesSchemaVersion = 4;

// Fixed-capacity named-gauge vector filled by providers each sample. Names
// MUST be string literals (or otherwise outlive the plane): records store
// the pointers, not copies.
class GaugeSet {
 public:
  static constexpr unsigned kCapacity = 24;

  void set(const char* name, double value) noexcept {
    for (unsigned i = 0; i < size_; ++i) {
      if (std::strcmp(entries_[i].name, name) == 0) {
        entries_[i].value = value;
        return;
      }
    }
    if (size_ < kCapacity) {
      entries_[size_].name = name;
      entries_[size_].value = value;
      ++size_;
    }
  }

  unsigned size() const noexcept { return size_; }
  const char* name(unsigned i) const noexcept { return entries_[i].name; }
  double value(unsigned i) const noexcept { return entries_[i].value; }

  std::optional<double> find(const char* name) const noexcept {
    for (unsigned i = 0; i < size_; ++i) {
      if (std::strcmp(entries_[i].name, name) == 0) {
        return entries_[i].value;
      }
    }
    return std::nullopt;
  }

  void clear() noexcept { size_ = 0; }

 private:
  struct Entry {
    const char* name = "";
    double value = 0.0;
  };
  Entry entries_[kCapacity];
  unsigned size_ = 0;
};

// One sampling interval. Counter/pool fields are deltas over the interval;
// gauges and the rank estimate are cumulative/instantaneous at sample time.
// Rates derived from absent gauges are NaN in memory and exported as null
// (never NaN) by the writers.
struct TelemetryRecord {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;         // monotonic_ns timeline
  std::uint64_t interval_ns = 0;  // since the previous sample
  std::array<std::uint64_t, kNumCounters> counters{};  // deltas
  HistogramWindow latency;  // consumer delete_min latency, ns
  HistogramWindow sojourn;  // submit->delivery sojourn, ns
  // RankEstimator cumulative snapshot (zero when not armed).
  std::uint64_t rank_samples = 0;
  double rank_p50 = 0.0;
  double rank_p90 = 0.0;
  std::uint64_t rank_max = 0;
  std::uint64_t rank_violations = 0;
  // mm::BlockPool deltas.
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t pool_oversize = 0;
  // Derived per-interval rates (NaN = underlying gauges unavailable).
  double delivered_per_s = std::nan("");
  double submitted_per_s = std::nan("");
  double shed_pct = std::nan("");
  double reject_pct = std::nan("");
  std::uint32_t slo_breached = 0;  // per-sample violation mask (0 = no SLO)
  GaugeSet gauges;
};

namespace timeseries_detail {

// Print a JSON number; non-finite values become null so NaN can never leak
// into an artifact (tools/check_timeseries.py treats a NaN token as fatal).
inline void json_number(std::FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.17g", v);
  } else {
    std::fputs("null", out);
  }
}

// Sampled submit->delivery stamp table: producers publish (id, tick) for one
// task in kSampleMask+1, consumers match on delivery and feed the sojourn
// histogram. Open-addressed single-slot hashing; a slot overwritten between
// submit and delivery just drops that sample (the id check fails). All
// accesses are atomics: release on the id publish orders the tick store
// before it, so a matching reader sees the right stamp.
class SojournStampTable {
 public:
  static constexpr std::uint64_t kSampleMask = 63;  // 1 task in 64
  static constexpr unsigned kSlots = 2048;

  bool sampled(std::uint64_t id) const noexcept {
    return (id & kSampleMask) == 0;
  }

  void submit(std::uint64_t id, std::uint64_t tick) noexcept {
    Slot& s = slots_[slot_index(id)];
    s.tick.store(tick, std::memory_order_relaxed);
    s.id.store(id, std::memory_order_release);
  }

  // Returns the submit tick if `id` is still stamped, clearing the slot.
  std::optional<std::uint64_t> match(std::uint64_t id) noexcept {
    Slot& s = slots_[slot_index(id)];
    if (s.id.load(std::memory_order_acquire) != id) return std::nullopt;
    const std::uint64_t tick = s.tick.load(std::memory_order_relaxed);
    s.id.store(0, std::memory_order_relaxed);
    return tick;
  }

  void reset() noexcept {
    for (Slot& s : slots_) s.id.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> tick{0};
  };

  static unsigned slot_index(std::uint64_t id) noexcept {
    return static_cast<unsigned>((id * 0x9E3779B97F4A7C15ull) >>
                                 (64 - 11));  // kSlots = 2^11
  }

  Slot slots_[kSlots];
};

}  // namespace timeseries_detail

class TelemetryPlane {
 public:
  using Provider = std::function<void(GaugeSet&)>;
  static constexpr unsigned kMaxProviders = 4;
  static constexpr std::size_t kDefaultCapacity = 4096;

  // Leaky singleton, same rationale as MetricsRegistry: feeds may fire from
  // worker TLS destructors at any point of teardown.
  static TelemetryPlane& global() {
    static TelemetryPlane* plane = new TelemetryPlane();
    return *plane;
  }

  bool active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

  // Install the SLO objectives evaluated per sample. Call before start().
  void set_slo(std::vector<SloObjective> objectives) {
    std::lock_guard<std::mutex> lock(mutex_);
    slo_.configure(std::move(objectives));
  }

  // Begin sampling at `hz` (clamped to (0, 10000]) into a ring of
  // `capacity` records (oldest overwritten; `dropped()` counts casualties).
  // Returns false if already running. Pays the one-time TSC calibration
  // here so no hot path ever does.
  bool start(double hz, std::size_t capacity = kDefaultCapacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sampler_.joinable() || hz <= 0.0) return false;
    if (hz > 10000.0) hz = 10000.0;
    if (capacity < 64) capacity = 64;
    ring_.assign(capacity, TelemetryRecord{});
    count_ = 0;
    dropped_ = 0;
    ns_per_tick_.store(tsc_clock().ns_per_tick(), std::memory_order_relaxed);
    period_ns_ = static_cast<std::uint64_t>(1e9 / hz);
    // Baseline snapshots: the first record's deltas cover only the first
    // interval, and the conservation invariant (sum of deltas == final
    // totals - totals at start) holds from here.
    prev_counters_ = MetricsRegistry::global().totals();
    latency_feed_.load_buckets(prev_lat_.data());
    sojourn_feed_.load_buckets(prev_soj_.data());
    const mm::BlockPool::Stats pool = mm::BlockPool::global().stats();
    prev_pool_ = pool;
    prev_gauges_.clear();
    collect_gauges(prev_gauges_);
    prev_t_ns_ = start_t_ns_ = monotonic_ns();
    stop_requested_ = false;
    active_.store(true, std::memory_order_release);
    sampler_ = std::thread([this] { run(); });
    return true;
  }

  // Stop the sampler and take one final sample so the tail of the run is
  // always covered. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!sampler_.joinable()) return;
      stop_requested_ = true;
    }
    cv_.notify_all();
    sampler_.join();
    active_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mutex_);
    sample_locked();
  }

  // Clear ring, feeds, and SLO state (objectives are re-armed empty). For
  // tests and between independent runs in one process.
  void reset() {
    stop();
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    count_ = 0;
    dropped_ = 0;
    latency_feed_.reset();
    sojourn_feed_.reset();
    stamps_.reset();
    slo_.configure({});
  }

  // ---- gauge providers ------------------------------------------------

  int register_provider(Provider provider) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned i = 0; i < kMaxProviders; ++i) {
      if (!providers_[i]) {
        providers_[i] = std::move(provider);
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  void unregister_provider(int handle) {
    if (handle < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (static_cast<unsigned>(handle) < kMaxProviders) {
      providers_[handle] = nullptr;
    }
  }

  // ---- hot-path feeds (no-ops while inactive) -------------------------

  void record_latency_ns(std::uint64_t ns) noexcept {
    if (!active()) return;
    latency_feed_.record(ns);
  }

  void record_latency_ticks(std::uint64_t ticks) noexcept {
    if (!active()) return;
    latency_feed_.record(static_cast<std::uint64_t>(
        static_cast<double>(ticks) *
        ns_per_tick_.load(std::memory_order_relaxed)));
  }

  void record_sojourn_ns(std::uint64_t ns) noexcept {
    if (!active()) return;
    sojourn_feed_.record(ns);
  }

  // Sampled sojourn stamps: both sides gate on the same 1-in-64 id mask, so
  // the non-sampled 63/64 pay one branch each.
  void note_submit(std::uint64_t id, std::uint64_t tick) noexcept {
    if (!active() || !stamps_.sampled(id)) return;
    stamps_.submit(id, tick);
  }

  void note_delivery(std::uint64_t id, std::uint64_t tick) noexcept {
    if (!active() || !stamps_.sampled(id)) return;
    if (const auto submit_tick = stamps_.match(id)) {
      if (tick > *submit_tick) {
        sojourn_feed_.record(static_cast<std::uint64_t>(
            static_cast<double>(tick - *submit_tick) *
            ns_per_tick_.load(std::memory_order_relaxed)));
      }
    }
  }

  // ---- record access --------------------------------------------------

  std::uint64_t sample_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  // Visit retained records oldest -> newest under the plane lock.
  template <typename Fn>
  void visit_records(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    visit_locked(fn);
  }

  // SLO accessors; take the lock, so safe against a live sampler.
  bool slo_configured() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slo_.configured();
  }

  template <typename Fn>
  void with_slo(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(slo_);
  }

  // ---- exports --------------------------------------------------------

  // JSON Lines (schema v4); returns lines written.
  std::size_t write_jsonl(std::FILE* out) const {
    std::size_t lines = 0;
    visit_records([&](const TelemetryRecord& r) {
      std::fprintf(out,
                   "{\"schema_version\":%u,\"kind\":\"telemetry\","
                   "\"seq\":%llu,\"t_ns\":%llu,\"interval_ns\":%llu",
                   kTimeseriesSchemaVersion,
                   static_cast<unsigned long long>(r.seq),
                   static_cast<unsigned long long>(r.t_ns),
                   static_cast<unsigned long long>(r.interval_ns));
      write_window(out, "latency", r.latency);
      write_window(out, "sojourn", r.sojourn);
      std::fprintf(out,
                   ",\"rank\":{\"samples\":%llu,\"p50\":",
                   static_cast<unsigned long long>(r.rank_samples));
      timeseries_detail::json_number(out, r.rank_p50);
      std::fputs(",\"p90\":", out);
      timeseries_detail::json_number(out, r.rank_p90);
      std::fprintf(out, ",\"max\":%llu,\"violations\":%llu}",
                   static_cast<unsigned long long>(r.rank_max),
                   static_cast<unsigned long long>(r.rank_violations));
      std::fprintf(
          out,
          ",\"pool\":{\"fresh\":%llu,\"reused\":%llu,\"recycled\":%llu,"
          "\"oversize\":%llu}",
          static_cast<unsigned long long>(r.pool_fresh),
          static_cast<unsigned long long>(r.pool_reused),
          static_cast<unsigned long long>(r.pool_recycled),
          static_cast<unsigned long long>(r.pool_oversize));
      std::fputs(",\"rates\":{\"delivered_per_s\":", out);
      timeseries_detail::json_number(out, r.delivered_per_s);
      std::fputs(",\"submitted_per_s\":", out);
      timeseries_detail::json_number(out, r.submitted_per_s);
      std::fputs(",\"shed_pct\":", out);
      timeseries_detail::json_number(out, r.shed_pct);
      std::fputs(",\"reject_pct\":", out);
      timeseries_detail::json_number(out, r.reject_pct);
      std::fprintf(out, "},\"slo_breached\":%u,\"counters\":{",
                   r.slo_breached);
      for (unsigned c = 0; c < kNumCounters; ++c) {
        std::fprintf(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                     counter_name(c),
                     static_cast<unsigned long long>(r.counters[c]));
      }
      std::fputs("},\"gauges\":{", out);
      for (unsigned g = 0; g < r.gauges.size(); ++g) {
        std::fprintf(out, "%s\"%s\":", g == 0 ? "" : ",", r.gauges.name(g));
        timeseries_detail::json_number(out, r.gauges.value(g));
      }
      std::fputs("}}\n", out);
      ++lines;
    });
    return lines;
  }

  // Prometheus text exposition of the end-of-run state: cumulative counter
  // totals, the last gauge snapshot, and SLO accounting. A dump, not a
  // scrape endpoint — the names/labels are scrape-shaped for when one grows.
  void write_prometheus(std::FILE* out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fputs("# TYPE cpq_counter_total counter\n", out);
    for (unsigned c = 0; c < kNumCounters; ++c) {
      std::fprintf(out, "cpq_counter_total{counter=\"%s\"} %llu\n",
                   counter_name(c),
                   static_cast<unsigned long long>(prev_counters_[c]));
    }
    std::fprintf(out,
                 "# TYPE cpq_telemetry_samples_total counter\n"
                 "cpq_telemetry_samples_total %llu\n"
                 "# TYPE cpq_telemetry_dropped_total counter\n"
                 "cpq_telemetry_dropped_total %llu\n",
                 static_cast<unsigned long long>(count_),
                 static_cast<unsigned long long>(dropped_));
    std::fputs("# TYPE cpq_gauge gauge\n", out);
    for (unsigned g = 0; g < prev_gauges_.size(); ++g) {
      const double v = prev_gauges_.value(g);
      std::fprintf(out, "cpq_gauge{name=\"%s\"} %.17g\n",
                   prev_gauges_.name(g), std::isfinite(v) ? v : 0.0);
    }
    if (slo_.configured()) {
      std::fputs("# TYPE cpq_slo_bad_samples_total counter\n", out);
      for (std::size_t i = 0; i < slo_.size(); ++i) {
        const SloTracker::ObjectiveState& st = slo_.state(i);
        std::fprintf(out,
                     "cpq_slo_bad_samples_total{objective=\"%s\"} %llu\n",
                     st.objective.to_string().c_str(),
                     static_cast<unsigned long long>(st.bad));
      }
      std::fputs("# TYPE cpq_slo_breach_episodes_total counter\n", out);
      for (std::size_t i = 0; i < slo_.size(); ++i) {
        const SloTracker::ObjectiveState& st = slo_.state(i);
        std::fprintf(
            out, "cpq_slo_breach_episodes_total{objective=\"%s\"} %llu\n",
            st.objective.to_string().c_str(),
            static_cast<unsigned long long>(st.episodes));
      }
    }
  }

  // Flight-recorder tail: the newest `n` records, compact, for watchdog
  // stall dumps. Prints nothing when the plane never sampled.
  void dump_recent(std::FILE* out, unsigned n = 8) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) return;
    std::fprintf(out,
                 "[cpq-telemetry] flight recorder: %llu samples total, "
                 "newest %u:\n",
                 static_cast<unsigned long long>(count_),
                 n < count_ ? n : static_cast<unsigned>(count_));
    const std::uint64_t retained =
        count_ < ring_.size() ? count_ : ring_.size();
    const std::uint64_t show = n < retained ? n : retained;
    for (std::uint64_t k = show; k >= 1; --k) {
      const TelemetryRecord& r = ring_[(count_ - k) % ring_.size()];
      std::fprintf(out,
                   "[cpq-telemetry]   seq=%llu t=+%.3fs dt=%.1fms",
                   static_cast<unsigned long long>(r.seq),
                   static_cast<double>(r.t_ns - start_t_ns_) / 1e9,
                   static_cast<double>(r.interval_ns) / 1e6);
      if (std::isfinite(r.delivered_per_s)) {
        std::fprintf(out, " delivered/s=%.0f", r.delivered_per_s);
      }
      if (r.sojourn.count != 0) {
        std::fprintf(out, " p99_sojourn_us=%.0f",
                     static_cast<double>(r.sojourn.p99) / 1000.0);
      }
      if (r.latency.count != 0) {
        std::fprintf(out, " p99_latency_us=%.0f",
                     static_cast<double>(r.latency.p99) / 1000.0);
      }
      if (std::isfinite(r.shed_pct) && r.shed_pct > 0.0) {
        std::fprintf(out, " shed_pct=%.2f", r.shed_pct);
      }
      if (r.slo_breached != 0) {
        std::fprintf(out, " slo_breached=0x%x", r.slo_breached);
      }
      for (unsigned c = 0; c < kNumCounters; ++c) {
        if (r.counters[c] != 0) {
          std::fprintf(out, " %s=+%llu", counter_name(c),
                       static_cast<unsigned long long>(r.counters[c]));
        }
      }
      std::fputc('\n', out);
    }
    if (slo_.configured()) slo_.dump(out);
  }

 private:
  TelemetryPlane() = default;

  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_requested_) {
      const auto wake = cv_.wait_for(
          lock, std::chrono::nanoseconds(period_ns_),
          [this] { return stop_requested_; });
      if (wake) break;
      sample_locked();
    }
  }

  void collect_gauges(GaugeSet& gauges) {
    for (unsigned i = 0; i < kMaxProviders; ++i) {
      if (providers_[i]) providers_[i](gauges);
    }
  }

  // One snapshot; caller holds mutex_.
  void sample_locked() {
    if (ring_.empty()) return;
    TelemetryRecord& r = ring_[count_ % ring_.size()];
    if (count_ >= ring_.size()) ++dropped_;
    r = TelemetryRecord{};
    r.seq = count_;
    r.t_ns = monotonic_ns();
    // A degenerate interval (clock granularity) still advances by 1 ns so
    // per-record timestamps stay strictly monotonic for the validators.
    if (r.t_ns <= prev_t_ns_) r.t_ns = prev_t_ns_ + 1;
    r.interval_ns = r.t_ns - prev_t_ns_;
    const double dt_s = static_cast<double>(r.interval_ns) / 1e9;

    // Contention counter deltas.
    const auto totals = MetricsRegistry::global().totals();
    for (unsigned c = 0; c < kNumCounters; ++c) {
      r.counters[c] = totals[c] - prev_counters_[c];
    }
    prev_counters_ = totals;

    // Histogram windows.
    std::array<std::uint64_t, LogHistogram::kBuckets>& lat = scratch_;
    latency_feed_.load_buckets(lat.data());
    r.latency = HistogramWindow::from_delta(lat.data(), prev_lat_.data());
    prev_lat_ = lat;
    sojourn_feed_.load_buckets(lat.data());
    r.sojourn = HistogramWindow::from_delta(lat.data(), prev_soj_.data());
    prev_soj_ = lat;

    // Rank estimate (cumulative; zeros when not armed).
    const RankEstimator& estimator = RankEstimator::global();
    if (estimator.enabled()) {
      const RankEstimator::Snapshot rank = estimator.snapshot();
      r.rank_samples = rank.samples;
      r.rank_p50 = rank.p50;
      r.rank_p90 = rank.p90;
      r.rank_max = rank.max;
      r.rank_violations = rank.violations;
    }

    // Arena pool deltas (global atomics + the sampler thread's own locals;
    // still-running workers' tallies fold in when they exit).
    const mm::BlockPool::Stats pool = mm::BlockPool::global().stats();
    r.pool_fresh = pool.fresh - prev_pool_.fresh;
    r.pool_reused = pool.reused - prev_pool_.reused;
    r.pool_recycled = pool.recycled - prev_pool_.recycled;
    r.pool_oversize = pool.oversize - prev_pool_.oversize;
    prev_pool_ = pool;

    // Gauges + derived rates.
    collect_gauges(r.gauges);
    const auto rate_of = [&](const char* name) {
      const auto now = r.gauges.find(name);
      const auto before = prev_gauges_.find(name);
      if (!now || !before || dt_s <= 0.0) return std::nan("");
      return (*now - *before) / dt_s;
    };
    const auto pct_of = [&](const char* num_name, double denom_extra,
                            const char* denom_name) {
      const auto num_now = r.gauges.find(num_name);
      const auto num_before = prev_gauges_.find(num_name);
      const auto den_now = r.gauges.find(denom_name);
      const auto den_before = prev_gauges_.find(denom_name);
      if (!num_now || !num_before || !den_now || !den_before) {
        return std::nan("");
      }
      const double num = *num_now - *num_before;
      const double den = *den_now - *den_before + denom_extra;
      if (den <= 0.0) return num > 0.0 ? 100.0 : 0.0;
      return 100.0 * num / den;
    };
    r.delivered_per_s = rate_of("delivered");
    r.submitted_per_s = rate_of("submitted");
    r.shed_pct = pct_of("shed", 0.0, "submitted");
    {
      // reject_pct denominator is submitted + rejected over the interval
      // (a rejected task was never submitted, so it must join the base).
      const auto rej_now = r.gauges.find("rejected");
      const auto rej_before = prev_gauges_.find("rejected");
      if (rej_now && rej_before) {
        const double rejected_delta = *rej_now - *rej_before;
        r.reject_pct = pct_of("rejected", rejected_delta, "submitted");
      }
    }
    prev_gauges_ = r.gauges;

    // SLO evaluation over this sample's derived metrics.
    if (slo_.configured()) {
      const auto lookup =
          [&](const std::string& name) -> std::optional<double> {
        const auto windowed = [](const HistogramWindow& w,
                                 std::uint64_t v) -> std::optional<double> {
          if (w.count == 0) return std::nullopt;
          return static_cast<double>(v) / 1000.0;
        };
        if (name == "p50_sojourn_us") return windowed(r.sojourn, r.sojourn.p50);
        if (name == "p99_sojourn_us") return windowed(r.sojourn, r.sojourn.p99);
        if (name == "p50_latency_us") return windowed(r.latency, r.latency.p50);
        if (name == "p99_latency_us") return windowed(r.latency, r.latency.p99);
        const auto finite = [](double v) -> std::optional<double> {
          if (!std::isfinite(v)) return std::nullopt;
          return v;
        };
        if (name == "delivered_per_s") return finite(r.delivered_per_s);
        if (name == "submitted_per_s") return finite(r.submitted_per_s);
        if (name == "shed_pct") return finite(r.shed_pct);
        if (name == "reject_pct") return finite(r.reject_pct);
        if (name == "rank_p90") {
          if (r.rank_samples == 0) return std::nullopt;
          return r.rank_p90;
        }
        if (name == "in_flight") {
          const auto v = r.gauges.find("in_flight");
          if (!v) return std::nullopt;
          return *v;
        }
        return std::nullopt;
      };
      r.slo_breached = slo_.evaluate(lookup, r.t_ns);
    }

    prev_t_ns_ = r.t_ns;
    ++count_;
  }

  template <typename Fn>
  void visit_locked(Fn&& fn) const {
    const std::uint64_t retained =
        count_ < ring_.size() ? count_ : ring_.size();
    for (std::uint64_t k = retained; k >= 1; --k) {
      fn(ring_[(count_ - k) % ring_.size()]);
    }
  }

  static void write_window(std::FILE* out, const char* name,
                           const HistogramWindow& w) {
    std::fprintf(out,
                 ",\"%s\":{\"count\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,"
                 "\"max_ns\":%llu}",
                 name, static_cast<unsigned long long>(w.count),
                 static_cast<unsigned long long>(w.p50),
                 static_cast<unsigned long long>(w.p99),
                 static_cast<unsigned long long>(w.max));
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread sampler_;
  std::atomic<bool> active_{false};

  std::vector<TelemetryRecord> ring_;
  std::uint64_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t period_ns_ = 0;
  std::uint64_t start_t_ns_ = 0;
  std::uint64_t prev_t_ns_ = 0;
  // Relaxed-atomic: written by start() (the value never actually changes —
  // it comes from the once-calibrated TscClock), read by hot-path feeds.
  std::atomic<double> ns_per_tick_{1.0};

  AtomicLogHistogram latency_feed_;
  AtomicLogHistogram sojourn_feed_;
  timeseries_detail::SojournStampTable stamps_;

  std::array<std::uint64_t, kNumCounters> prev_counters_{};
  std::array<std::uint64_t, LogHistogram::kBuckets> prev_lat_{};
  std::array<std::uint64_t, LogHistogram::kBuckets> prev_soj_{};
  std::array<std::uint64_t, LogHistogram::kBuckets> scratch_{};
  mm::BlockPool::Stats prev_pool_;
  GaugeSet prev_gauges_;

  Provider providers_[kMaxProviders];
  SloTracker slo_;
};

// RAII provider registration; registers only when the plane is active, so
// inactive runs pay nothing.
class ScopedTelemetryProvider {
 public:
  explicit ScopedTelemetryProvider(TelemetryPlane::Provider provider) {
    if (TelemetryPlane::global().active()) {
      handle_ = TelemetryPlane::global().register_provider(
          std::move(provider));
    }
  }
  ~ScopedTelemetryProvider() {
    TelemetryPlane::global().unregister_provider(handle_);
  }
  ScopedTelemetryProvider(const ScopedTelemetryProvider&) = delete;
  ScopedTelemetryProvider& operator=(const ScopedTelemetryProvider&) = delete;

 private:
  int handle_ = -1;
};

}  // namespace cpq::obs
