#include "bench_framework/options.hpp"

#include <utility>

namespace cpq::bench {

bool parse_thread_ladder(std::string_view text, std::vector<unsigned>& ladder,
                         std::string& bad) {
  std::vector<unsigned> parsed;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string_view entry = text.substr(
        start, comma == std::string_view::npos ? comma : comma - start);
    // At most four digits keeps the accumulation far from overflow; the
    // range check below does the rest.
    bool ok = !entry.empty() && entry.size() <= 4;
    unsigned value = 0;
    for (const char c : entry) {
      ok = ok && c >= '0' && c <= '9';
      if (ok) value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (!ok || value < 1 || value > kMaxLadderThreads) {
      bad.assign(entry);
      return false;
    }
    parsed.push_back(value);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  ladder = std::move(parsed);
  return true;
}

BenchConfig base_config(const Options& options, BenchConfig shape) {
  shape.duration_s = options.duration_s;
  shape.repetitions = options.repetitions;
  shape.prefill = options.prefill;
  shape.ops_per_thread = options.quality_ops;
  shape.seed = options.seed;
  return shape;
}

}  // namespace cpq::bench
