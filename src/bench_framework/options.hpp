// Benchmark options shared by every table printer.
//
// Defaults are container-friendly; cpq_bench_cli's flags scale them back up
// to the paper's parameters on real hardware:
//
//   --threads   thread ladder (default 1,2,4,8; mars: 1,2,4,6,...,16)
//   --ms        measurement window per point (default 60; paper: 10000)
//   --reps      repetitions per point (default 3; paper: 10+)
//   --prefill   prefill item count (default 100000; paper: 1000000)
//   --ops       quality/latency operations per thread (default 20000)
//   --seed      base RNG seed (default 42)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_framework/harness.hpp"

namespace cpq::bench {

struct Options {
  std::vector<unsigned> thread_ladder = {1, 2, 4, 8};
  double duration_s = 0.06;
  unsigned repetitions = 3;
  std::size_t prefill = 100'000;
  std::uint64_t quality_ops = 20'000;
  std::uint64_t seed = 42;
};

// Largest thread count a ladder entry may name.
inline constexpr unsigned kMaxLadderThreads = 1024;

// Parse a thread ladder ("1,2,4,8"). Every comma-separated entry must be a
// plain integer 1..kMaxLadderThreads. On failure returns false, leaves
// `ladder` untouched, and sets `bad` to the first offending entry.
bool parse_thread_ladder(std::string_view text, std::vector<unsigned>& ladder,
                         std::string& bad);

// `shape` (workload, keys, arrivals, …) with the harness-wide options
// applied on top; callers then set threads.
BenchConfig base_config(const Options& options, BenchConfig shape = {});

}  // namespace cpq::bench
