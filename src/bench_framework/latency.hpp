// Latency percentiles for the paper's throughput/latency switch (§F):
// --mode=latency (bench_framework/harness.hpp times every operation into
// log-linear histograms) and the service table's delete and sojourn columns.
// Throughput hides convoying and tail effects (e.g. a GlobalLock queue can
// post decent throughput while its p99 explodes), which is precisely why
// the paper proposes the switch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/histogram.hpp"

namespace cpq::bench {

struct LatencyPercentiles {
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
  std::uint64_t samples = 0;
};

// Destructive percentile extraction (sorts `samples_ns` in place).
//
// Nearest-rank indexing: the q-quantile of n sorted samples is element
// ceil(q*n) (1-based). The previous floor(q*(n-1)) indexing under-reported
// the tail — with 10 samples "p99" read the 9th value instead of the max.
inline LatencyPercentiles percentiles_of(std::vector<double>& samples_ns) {
  LatencyPercentiles result;
  result.samples = samples_ns.size();
  if (samples_ns.empty()) return result;
  std::sort(samples_ns.begin(), samples_ns.end());
  auto at = [&](double q) {
    const double rank = std::ceil(q * static_cast<double>(samples_ns.size()));
    std::size_t index =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    index = std::min(index, samples_ns.size() - 1);
    return samples_ns[index];
  };
  result.p50_ns = at(0.50);
  result.p90_ns = at(0.90);
  result.p99_ns = at(0.99);
  result.max_ns = samples_ns.back();
  return result;
}

// Percentiles from a (nanosecond-domain) histogram; same nearest-rank
// convention, quantized to the histogram's ~3% relative bucket width
// (max is exact).
inline LatencyPercentiles percentiles_of(const obs::LogHistogram& hist) {
  LatencyPercentiles result;
  result.samples = hist.count();
  if (result.samples == 0) return result;
  result.p50_ns = static_cast<double>(hist.quantile(0.50));
  result.p90_ns = static_cast<double>(hist.quantile(0.90));
  result.p99_ns = static_cast<double>(hist.quantile(0.99));
  result.max_ns = static_cast<double>(hist.max_value());
  return result;
}

}  // namespace cpq::bench
