// Unified monotonic clock: one nanosecond timeline for every subsystem.
//
// Before this header the repo had two disjoint time domains:
//
//   * fast_timestamp() (platform/timing.hpp) — raw RDTSCP ticks, used by the
//     op-trace rings, the quality logs, and the latency histograms, each
//     calibrated independently (per repetition, per export) against a
//     wall-clock Stopwatch;
//   * steady_now_us() (service/resilience.hpp) — steady_clock microseconds,
//     used by deadlines, circuit breakers, and the chaos campaign.
//
// Two domains with per-consumer calibrations means artifacts cannot be
// aligned: a Chrome trace op event and a service breaker trip had no common
// axis. This header provides the single mapping both sides share:
//
//   * monotonic_ns() / monotonic_us() — steady_clock since its epoch. The
//     canonical timeline; every exported timestamp lands here.
//   * TscClock — a process-wide, once-calibrated affine map from
//     fast_timestamp() ticks into the monotonic_ns() timeline. The Chrome
//     trace exporter, the telemetry sampler, and the service bench all use
//     this one calibration, so their timestamps interleave correctly.
//
// Calibration is lazy (first use) and costs one ~20 ms spin; callers that
// must not pay it on a hot path warm it up explicitly (tsc_clock()) at
// setup time. Extrapolation error is bounded by the calibration's relative
// error (< ~0.1% on an invariant TSC): aligning events minutes apart is
// accurate to well under a second, and within one run to microseconds.
#pragma once

#include <chrono>
#include <cstdint>

#include "platform/timing.hpp"

namespace cpq {

// Steady-clock nanoseconds since the (arbitrary, per-boot) steady epoch.
// The canonical monotonic timeline; immune to wall-clock adjustment.
inline std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t monotonic_us() noexcept { return monotonic_ns() / 1000; }

// Affine tick -> monotonic_ns mapping, calibrated once per process.
class TscClock {
 public:
  // Process-wide instance; first call performs the calibration spin.
  static const TscClock& instance() {
    static const TscClock clock;
    return clock;
  }

  double ns_per_tick() const noexcept { return ns_per_tick_; }

  // Map a fast_timestamp() tick into the monotonic_ns() timeline. Ticks
  // recorded before the calibration anchor map correctly too (signed
  // extrapolation backwards), clamped at 0 for pathological inputs.
  std::uint64_t to_ns(std::uint64_t tick) const noexcept {
    const double delta =
        static_cast<double>(static_cast<std::int64_t>(tick - base_tick_)) *
        ns_per_tick_;
    const double ns = static_cast<double>(base_ns_) + delta;
    return ns <= 0.0 ? 0 : static_cast<std::uint64_t>(ns);
  }

  TscClock(const TscClock&) = delete;
  TscClock& operator=(const TscClock&) = delete;

 private:
  TscClock() {
    // Spin ~20 ms measuring ticks against the steady clock; anchor the
    // affine map at the *end* pair so to_ns() interpolates (not
    // extrapolates) for timestamps taken right after construction. On
    // non-x86 fast_timestamp() already returns steady-clock ns and the
    // measured ratio comes out ~1.
    const std::uint64_t ns0 = monotonic_ns();
    const std::uint64_t tick0 = fast_timestamp();
    constexpr std::uint64_t kWindowNs = 20'000'000;
    std::uint64_t ns1 = ns0;
    while (ns1 - ns0 < kWindowNs) ns1 = monotonic_ns();
    const std::uint64_t tick1 = fast_timestamp();
    base_tick_ = tick1;
    base_ns_ = ns1;
    ns_per_tick_ = tick1 > tick0 ? static_cast<double>(ns1 - ns0) /
                                       static_cast<double>(tick1 - tick0)
                                 : 1.0;
    if (ns_per_tick_ <= 0.0) ns_per_tick_ = 1.0;
  }

  std::uint64_t base_tick_ = 0;
  std::uint64_t base_ns_ = 0;
  double ns_per_tick_ = 1.0;
};

// Shorthand; call once at setup time to pay the calibration spin outside
// any measured region.
inline const TscClock& tsc_clock() { return TscClock::instance(); }

}  // namespace cpq
