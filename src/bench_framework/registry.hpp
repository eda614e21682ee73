// Queue registry: every benchmarkable queue under its paper name, bound to
// type-erased throughput and quality runners (the template harness is
// instantiated once per queue type in registry.cpp, so the hot loops stay
// fully inlined — no virtual dispatch per operation). Alongside it, the
// benchmark-mode list and the preset table of cpq_bench_cli.
//
// Paper roster: glock, linden, spray, mq, klsm128, klsm256, klsm4096.
// Extensions:   hunt (appendix D), dlsm, slsm256 (component ablation),
//               mq-pairing (MultiQueue over pairing heaps), the ablation
//               sweep points (klsm16/1024, mq-cN, mq-eng-sN/-bN), …
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_framework/harness.hpp"
#include "bench_framework/latency.hpp"
#include "service/service_bench.hpp"

namespace cpq::bench {

// Raw-handles versus PriorityService-wrapped open-loop comparison
// (src/service/service_bench.hpp) for one queue.
struct ServiceComparison {
  service::ServiceBenchResult raw;
  service::ServiceBenchResult service;
};

struct QueueSpec {
  std::string name;
  std::string description;
  bool strict;    // strict (rank error 0 expected) vs relaxed semantics
  bool in_paper;  // part of the paper's benchmark roster
  // Theoretical rank-error cap as a function of the thread count P (empty =
  // no published bound). rank_bound_hard distinguishes worst-case guarantees
  // (k-LSM: kP) from expectations (MultiQueue: O(cP)) — the live estimator
  // counts violations only against hard bounds.
  std::function<double(unsigned)> rank_bound;
  bool rank_bound_hard = false;
  std::function<ThroughputResult(const BenchConfig&)> throughput;
  std::function<QualityResult(const BenchConfig&)> quality;
  std::function<LatencyResult(const BenchConfig&)> latency;
  // Larkin-Sen-Tarjan-style sort phases: all threads insert their share of
  // cfg.prefill items (timed), then delete until the queue is drained
  // (timed): insert and delete MOps/s, or a failed cell.
  std::function<SortResult(const BenchConfig&)> sort_phases;
  // Open-loop task-dispatch benchmark: the same Poisson client traffic run
  // against raw handles and through the PriorityService layer.
  std::function<ServiceComparison(const service::ServiceBenchConfig&)>
      service_bench;
};

// One benchmark mode of cpq_bench_cli (--mode=<name>), described for
// --list and validated strictly before any measurement starts.
struct BenchModeSpec {
  std::string name;
  std::string description;
};

// All CLI benchmark modes.
const std::vector<BenchModeSpec>& bench_mode_registry();

// nullptr when unknown.
const BenchModeSpec* find_bench_mode(std::string_view name);

// All registered queues, in the paper's presentation order.
const std::vector<QueueSpec>& queue_registry();

// nullptr when unknown.
const QueueSpec* find_queue(std::string_view name);

// The paper's seven-queue roster (Figure 1 ordering).
std::vector<const QueueSpec*> paper_roster();

// Resolve a comma-separated list of names ("klsm256,mq,linden"); empty input
// yields the paper roster. On an unknown or empty name returns false, leaves
// `roster` untouched, and sets `bad` to the offending entry.
bool resolve_roster(std::string_view names,
                    std::vector<const QueueSpec*>& roster, std::string& bad);

// One table of a preset. kInterleaved is the anti-artifact throughput pass
// (arXiv:2208.08469): every queue in one process, shuffled order per
// repetition, shuffled prefill and a perturbed heap layout.
enum class PanelMode { kThroughput, kQuality, kInterleaved };

struct PresetPanel {
  std::string label;  // table title and JSON experiment prefix
  PanelMode mode = PanelMode::kThroughput;
  // Workload, keys, insert fraction, arrivals, producer fraction; the run's
  // options go on top (base_config).
  BenchConfig shape;
};

// A named, fixed configuration of cpq_bench_cli (--preset=<name>) that
// reproduces one paper figure/table or one experiment of EXPERIMENTS.md.
struct PresetSpec {
  std::string name;
  std::string reproduces;  // the artifact, for --list and the run header
  std::string roster;      // default --queues ("" = the paper roster)
  std::vector<PresetPanel> panels;
};

// All presets, in DESIGN.md §3 order.
const std::vector<PresetSpec>& preset_registry();

// nullptr when unknown.
const PresetSpec* find_preset(std::string_view name);

}  // namespace cpq::bench
