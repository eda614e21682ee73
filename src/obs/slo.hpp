// Declarative service-level objectives over the telemetry stream.
//
// An SLO spec is a comma-separated list of per-sample objectives:
//
//   --slo=p99_sojourn_us<500,shed_pct<1,delivered_per_s>10000
//
// Each objective names a metric the telemetry sampler derives per snapshot
// (the closed set below — unknown names are a parse error, so typos exit 2
// at the CLI instead of silently never firing) and a strict threshold.
// Every snapshot either meets or violates each objective.
//
// On top of the per-sample bits the tracker keeps SRE-style multi-window
// burn rates: the violation fraction over a fast window (last 8 samples)
// and a slow window (last 64), each divided by the error budget (1% of
// samples may violate). An objective is *breached* — actively burning, not
// just noisy — while BOTH windows exceed the alert burn rate: the fast
// window makes the alarm react within seconds, the slow window keeps one
// stray sample from flapping it. Breach episodes (entry/exit transitions)
// and the per-sample violation mask stored in each telemetry record give
// the chaos campaign a *measured* recovery time: first post-fault sample
// where every objective holds again.
//
// Single-threaded by design: evaluate() runs on the telemetry sampler
// thread; summaries are read after stop() (or under the plane's lock).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cpq::obs {

// One `metric<threshold` / `metric>threshold` clause.
struct SloObjective {
  std::string metric;
  bool less_than = true;  // false: metric must stay ABOVE the threshold
  double threshold = 0.0;

  std::string to_string() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%c%g", metric.c_str(),
                  less_than ? '<' : '>', threshold);
    return buf;
  }
};

// The closed set of metrics an objective may reference; each is derived per
// telemetry snapshot (see TelemetryPlane::sample). Windowed quantiles are in
// microseconds, rates per second, percentages in [0, 100].
inline const char* const kSloMetricNames[] = {
    "p50_sojourn_us",  "p99_sojourn_us", "p50_latency_us", "p99_latency_us",
    "delivered_per_s", "submitted_per_s", "shed_pct",      "reject_pct",
    "rank_p90",        "in_flight",
};

inline bool known_slo_metric(const std::string& name) {
  for (const char* known : kSloMetricNames) {
    if (name == known) return true;
  }
  return false;
}

// Parse a full spec; std::nullopt on any malformed clause (empty clause,
// unknown metric, missing or trailing-garbage threshold).
inline std::optional<std::vector<SloObjective>> parse_slo_spec(
    const std::string& spec) {
  std::vector<SloObjective> objectives;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) return std::nullopt;
    const std::size_t lt = clause.find('<');
    const std::size_t gt = clause.find('>');
    if ((lt == std::string::npos) == (gt == std::string::npos)) {
      return std::nullopt;  // need exactly one comparator
    }
    const std::size_t cmp = lt != std::string::npos ? lt : gt;
    SloObjective obj;
    obj.metric = clause.substr(0, cmp);
    obj.less_than = lt != std::string::npos;
    if (!known_slo_metric(obj.metric)) return std::nullopt;
    const std::string number = clause.substr(cmp + 1);
    if (number.empty()) return std::nullopt;
    char* end = nullptr;
    obj.threshold = std::strtod(number.c_str(), &end);
    if (end != number.c_str() + number.size() || !std::isfinite(obj.threshold)) {
      return std::nullopt;
    }
    objectives.push_back(std::move(obj));
    if (comma == spec.size()) break;
  }
  if (objectives.empty() || objectives.size() > 32) return std::nullopt;
  return objectives;
}

class SloTracker {
 public:
  static constexpr unsigned kFastWindow = 8;
  static constexpr unsigned kSlowWindow = 64;
  // Error budget: the tolerated violation fraction. burn = fraction/budget,
  // so burn 1.0 means exactly on budget, >1 means burning it down.
  static constexpr double kErrorBudget = 0.01;
  // Both windows must burn at this rate or faster to call it a breach.
  static constexpr double kAlertBurn = 2.0;

  struct ObjectiveState {
    SloObjective objective;
    std::uint64_t samples = 0;       // evaluations with the metric available
    std::uint64_t bad = 0;           // violations, total
    std::uint64_t unavailable = 0;   // samples where the metric was absent
    std::uint64_t episodes = 0;      // breach entries
    bool breached = false;           // currently burning (both windows)
    std::uint64_t breach_start_ns = 0;  // t of the episode entry
    std::uint64_t breach_ns = 0;        // total time spent breached
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    // Rolling per-sample violation bits, newest in bit 0.
    std::uint64_t history = 0;
    std::uint64_t last_t_ns = 0;
  };

  void configure(std::vector<SloObjective> objectives) {
    states_.clear();
    for (SloObjective& obj : objectives) {
      ObjectiveState st;
      st.objective = std::move(obj);
      states_.push_back(std::move(st));
    }
  }

  bool configured() const noexcept { return !states_.empty(); }
  std::size_t size() const noexcept { return states_.size(); }
  const ObjectiveState& state(std::size_t i) const { return states_[i]; }

  // Evaluate every objective against one snapshot. `lookup(name)` returns
  // the metric value or std::nullopt when it is unavailable this sample
  // (e.g. a quantile with an empty window — counted separately, never a
  // violation). Returns the violation bitmask (bit i = objective i).
  template <typename Lookup>
  std::uint32_t evaluate(Lookup&& lookup, std::uint64_t t_ns) {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      ObjectiveState& st = states_[i];
      const std::optional<double> value = lookup(st.objective.metric);
      if (!value.has_value()) {
        ++st.unavailable;
        continue;
      }
      ++st.samples;
      const bool bad = st.objective.less_than
                           ? !(*value < st.objective.threshold)
                           : !(*value > st.objective.threshold);
      st.history = (st.history << 1) | (bad ? 1 : 0);
      if (bad) {
        ++st.bad;
        mask |= (1u << i);
      }
      st.burn_fast = window_burn(st, kFastWindow);
      st.burn_slow = window_burn(st, kSlowWindow);
      const bool burning =
          st.burn_fast >= kAlertBurn && st.burn_slow >= kAlertBurn;
      if (burning && !st.breached) {
        st.breached = true;
        ++st.episodes;
        st.breach_start_ns = t_ns;
      } else if (!burning && st.breached) {
        st.breached = false;
        if (t_ns > st.breach_start_ns) {
          st.breach_ns += t_ns - st.breach_start_ns;
        }
      }
      st.last_t_ns = t_ns;
    }
    return mask;
  }

  // Total breach time including a still-open episode up to `now_ns`.
  std::uint64_t breach_ns(std::size_t i, std::uint64_t now_ns) const {
    const ObjectiveState& st = states_[i];
    std::uint64_t total = st.breach_ns;
    if (st.breached && now_ns > st.breach_start_ns) {
      total += now_ns - st.breach_start_ns;
    }
    return total;
  }

  void dump(std::FILE* out) const {
    for (const ObjectiveState& st : states_) {
      std::fprintf(
          out,
          "[cpq-slo] %-24s bad=%llu/%llu burn_fast=%.2f burn_slow=%.2f "
          "episodes=%llu%s%s\n",
          st.objective.to_string().c_str(),
          static_cast<unsigned long long>(st.bad),
          static_cast<unsigned long long>(st.samples), st.burn_fast,
          st.burn_slow, static_cast<unsigned long long>(st.episodes),
          st.breached ? " BREACHED" : "",
          st.unavailable ? " (some samples n/a)" : "");
    }
  }

 private:
  // Violation fraction over the newest `window` samples (or all samples
  // while fewer have been seen), divided by the error budget.
  static double window_burn(const ObjectiveState& st, unsigned window) {
    const std::uint64_t n =
        st.samples < window ? st.samples : static_cast<std::uint64_t>(window);
    if (n == 0) return 0.0;
    std::uint64_t bits = st.history;
    if (n < 64) bits &= (std::uint64_t{1} << n) - 1;
    unsigned bad = 0;
    while (bits != 0) {
      bits &= bits - 1;
      ++bad;
    }
    return static_cast<double>(bad) / static_cast<double>(n) / kErrorBudget;
  }

  std::vector<ObjectiveState> states_;
};

}  // namespace cpq::obs
