#include "bench_framework/registry.hpp"

#include <memory>
#include <utility>

#include "queues/cbpq.hpp"
#include "queues/flat_combining.hpp"
#include "queues/globallock.hpp"
#include "queues/hunt_heap.hpp"
#include "queues/klsm/klsm.hpp"
#include "queues/klsm/standalone.hpp"
#include "queues/linden.hpp"
#include "queues/mound.hpp"
#include "queues/multiqueue.hpp"
#include "queues/multiqueue_eng.hpp"
#include "queues/shavit_lotan.hpp"
#include "queues/spraylist.hpp"
#include "queues/sundell_tsigas.hpp"
#include "seq/dary_heap.hpp"
#include "seq/pairing_heap.hpp"

namespace cpq::bench {

namespace {

using K = bench_key;
using V = bench_value;

// The MultiQueue family self-reports its (tuning-dependent) soft rank
// bound; keep the registry honest about reading it from the queues rather
// than duplicating the formula.
static_assert(RelaxationSelfReporting<MultiQueue<K, V>>);
static_assert(RelaxationSelfReporting<EngMultiQueue<K, V>>);

// Bind the template harness to a queue factory. Each runner stamps the
// queue's registry name into the config so watchdog dumps and repetition
// failure reports name the queue they supervise.
template <typename Factory>
QueueSpec make_spec(std::string name, std::string description, bool strict,
                    bool in_paper, Factory factory) {
  QueueSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.strict = strict;
  spec.in_paper = in_paper;
  spec.throughput = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_throughput(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.quality = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_quality(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.latency = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_latency(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.sort_phases = [factory, name = spec.name](const BenchConfig& cfg) {
    BenchConfig labeled = cfg;
    labeled.label = name;
    return run_sort_phases(
        [&](unsigned threads, std::uint64_t seed) {
          return factory(threads, seed, labeled);
        },
        labeled);
  };
  spec.service_bench = [factory,
                        name = spec.name](const service::ServiceBenchConfig&
                                              cfg) {
    // The shard/queue factories reuse the throughput factory with a
    // BenchConfig carrying only what it reads (prefill sizing, label).
    BenchConfig inner;
    inner.prefill = cfg.prefill;
    inner.label = name;
    auto make_queue = [&](unsigned threads, std::uint64_t seed) {
      return factory(threads, seed, inner);
    };
    service::ServiceBenchConfig labeled = cfg;
    labeled.label = name + " (raw)";
    ServiceComparison comparison;
    comparison.raw = service::run_open_loop_raw(make_queue, labeled);
    labeled.label = name + " (service)";
    comparison.service = service::run_open_loop_service(make_queue, labeled);
    return comparison;
  };
  return spec;
}

std::vector<QueueSpec> build_registry() {
  std::vector<QueueSpec> registry;

  registry.push_back(make_spec(
      "glock", "sequential binary heap + global lock (baseline)",
      /*strict=*/true, /*in_paper=*/true,
      [](unsigned threads, std::uint64_t seed, const BenchConfig& cfg) {
        (void)seed;
        return std::make_unique<GlobalLockQueue<K, V>>(threads, cfg.prefill);
      }));

  registry.push_back(make_spec(
      "fc", "flat-combining sequential heap (strict, single combiner)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig& cfg) {
        return std::make_unique<FcPriorityQueue<K, V>>(
            threads, cfg.prefill == 0 ? 1024 : cfg.prefill, seed);
      }));

  registry.push_back(make_spec(
      "linden", "Linden-Jonsson lock-free skiplist PQ (strict)",
      /*strict=*/true, /*in_paper=*/true,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<LindenQueue<K, V>>(threads, 32, seed);
      }));

  registry.push_back(make_spec(
      "spray", "SprayList relaxed skiplist PQ",
      /*strict=*/false, /*in_paper=*/true,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<SprayList<K, V>>(threads, 1, seed);
      }));

  // The paper fixes c=4 ("mq"); mq-c1/c2/c8 are the A2 ablation's sweep.
  for (const unsigned c : {4u, 1u, 2u, 8u}) {
    registry.push_back(make_spec(
        c == 4 ? "mq" : "mq-c" + std::to_string(c),
        "MultiQueue, c=" + std::to_string(c) + ", binary-heap backed",
        /*strict=*/false, /*in_paper=*/c == 4,
        [c](unsigned threads, std::uint64_t seed, const BenchConfig&) {
          return std::make_unique<MultiQueue<K, V>>(threads, c, seed);
        }));
    // The MultiQueue's rank error is O(cP) only in expectation — soft
    // bound, self-reported by the queue (queue_traits.hpp
    // RelaxationSelfReporting), shown by the live estimator for context,
    // never a violation.
    registry.back().rank_bound = [c](unsigned threads) {
      return MultiQueue<K, V>(1, c).soft_rank_bound(threads);
    };
    registry.back().rank_bound_hard = false;
  }

  // The paper roster runs k = 128/256/4096; 16 and 1024 complete the A1
  // relaxation sweep.
  for (const std::uint64_t k : {16ULL, 128ULL, 256ULL, 1024ULL, 4096ULL}) {
    registry.push_back(make_spec(
        "klsm" + std::to_string(k),
        "k-LSM relaxed PQ, k=" + std::to_string(k),
        /*strict=*/false, /*in_paper=*/k != 16 && k != 1024,
        [k](unsigned threads, std::uint64_t seed, const BenchConfig&) {
          return std::make_unique<KLsmQueue<K, V>>(threads, k, seed);
        }));
    // Worst-case kP guarantee from the k-LSM paper — hard bound.
    registry.back().rank_bound = [k](unsigned threads) {
      return static_cast<double>(k) * threads;
    };
    registry.back().rank_bound_hard = true;
  }

  // ---- extensions (not part of the paper's roster) ----------------------

  registry.push_back(make_spec(
      "hunt", "Hunt et al. fine-grained locked heap (appendix D)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig& cfg) {
        (void)seed;
        // Size generously: prefill plus room for the worst split-workload
        // drift during a measurement window.
        const std::size_t capacity = cfg.prefill * 2 + (1u << 22);
        return std::make_unique<HuntHeap<K, V>>(threads, capacity);
      }));

  registry.push_back(make_spec(
      "dlsm", "standalone distributed LSM (thread-local + spy)",
      /*strict=*/false, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<DlsmQueue<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "slsm256", "standalone shared LSM, k=256",
      /*strict=*/false, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<SlsmQueue<K, V>>(threads, 256, seed);
      }));
  registry.back().rank_bound = [](unsigned threads) {
    return 256.0 * threads;
  };
  registry.back().rank_bound_hard = true;

  registry.push_back(make_spec(
      "mq-pairing", "MultiQueue, c=4, pairing-heap backed",
      /*strict=*/false, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<
            MultiQueue<K, V, seq::PairingHeap<K, V>>>(threads, 4, seed);
      }));
  registry.back().rank_bound = [](unsigned threads) {
    return 4.0 * threads;
  };

  registry.push_back(make_spec(
      "mq-dary", "MultiQueue, c=4, 4-ary-heap backed",
      /*strict=*/false, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<
            MultiQueue<K, V, seq::DaryHeap<K, V, 4>>>(threads, 4, seed);
      }));
  registry.back().rank_bound = [](unsigned threads) {
    return 4.0 * threads;
  };

  // Engineered MultiQueues (Williams & Sanders, arXiv:2504.11652): the
  // post-paper generation, c=4 throughout. mq-eng is the default point
  // (stickiness s=8, insertion/deletion buffers b=16); mq-eng-sN and
  // mq-eng-bN are the X8 ablation's sweep around it (s=1 is buffers only,
  // b=0 sticky rounds only). Both knobs trade rank error for locality, so
  // each armed bound is the queue's own widened soft_rank_bound, never
  // hard.
  const auto add_eng = [&registry](std::string name, std::string description,
                                   unsigned stickiness, unsigned buffer) {
    MqEngConfig config;
    config.stickiness = stickiness;
    config.ins_buffer = buffer;
    config.del_buffer = buffer;
    registry.push_back(make_spec(
        std::move(name), std::move(description),
        /*strict=*/false, /*in_paper=*/false,
        [config](unsigned threads, std::uint64_t seed, const BenchConfig&) {
          return std::make_unique<EngMultiQueue<K, V>>(threads, config, seed);
        }));
    registry.back().rank_bound = [config](unsigned threads) {
      return EngMultiQueue<K, V>::soft_rank_bound(config, threads);
    };
    registry.back().rank_bound_hard = false;
  };
  add_eng("mq-eng", "engineered MultiQueue: buffers + sticky rounds", 8, 16);
  for (const unsigned s : {1u, 4u, 16u, 64u}) {
    add_eng("mq-eng-s" + std::to_string(s),
            "engineered MultiQueue, s=" + std::to_string(s) + ", b=16", s,
            16);
  }
  for (const unsigned b : {0u, 4u, 64u}) {
    add_eng("mq-eng-b" + std::to_string(b),
            "engineered MultiQueue, s=8, b=" + std::to_string(b), 8, b);
  }

  registry.push_back(make_spec(
      "slotan", "Shavit-Lotan-style skiplist PQ, eager physical delete",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<ShavitLotanQueue<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "sundell", "Sundell-Tsigas-style skiplist PQ, cooperative cleanup",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<SundellTsigasQueue<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "mound", "Liu-Spear mound, lock-based (appendix D)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        return std::make_unique<Mound<K, V>>(threads, seed);
      }));

  registry.push_back(make_spec(
      "cbpq", "Braginsky chunk-based PQ, FAA deletes (appendix D)",
      /*strict=*/true, /*in_paper=*/false,
      [](unsigned threads, std::uint64_t seed, const BenchConfig&) {
        (void)seed;
        return std::make_unique<ChunkBasedQueue<K, V>>(threads);
      }));

  return registry;
}

// The preset table: one entry per reproduced artifact (DESIGN.md §3).
std::vector<PresetSpec> build_presets() {
  using workloads::ArrivalConfig;
  using workloads::KeyConfig;
  using workloads::Workload;
  constexpr PanelMode kTput = PanelMode::kThroughput;
  constexpr PanelMode kQual = PanelMode::kQuality;
  const auto panel = [](std::string label, PanelMode mode, Workload workload,
                        KeyConfig keys) {
    PresetPanel p;
    p.label = std::move(label);
    p.mode = mode;
    p.shape.workload = workload;
    p.shape.keys = keys;
    return p;
  };

  // Figure 4's eight mars configurations (panels a-h); Table 2 measures
  // rank error over the same grid.
  const struct {
    char panel;
    Workload workload;
    KeyConfig keys;
  } matrix[] = {
      {'a', Workload::kUniform, KeyConfig::uniform(32)},
      {'b', Workload::kUniform, KeyConfig::ascending()},
      {'c', Workload::kUniform, KeyConfig::descending()},
      {'d', Workload::kSplit, KeyConfig::uniform(32)},
      {'e', Workload::kSplit, KeyConfig::ascending()},
      {'f', Workload::kSplit, KeyConfig::descending()},
      {'g', Workload::kUniform, KeyConfig::uniform(8)},
      {'h', Workload::kUniform, KeyConfig::uniform(16)},
  };
  const auto grid = [&](const std::string& prefix, PanelMode mode) {
    std::vector<PresetPanel> panels;
    for (const auto& cell : matrix) {
      panels.push_back(
          panel(prefix + cell.panel, mode, cell.workload, cell.keys));
    }
    return panels;
  };
  // Figure 8 / Table 5 panels a-c: the alternating workload.
  const auto alternating = [&](const std::string& prefix, PanelMode mode) {
    std::vector<PresetPanel> panels;
    char id = 'a';
    for (const KeyConfig& keys : {KeyConfig::uniform(32),
                                  KeyConfig::ascending(),
                                  KeyConfig::descending()}) {
      panels.push_back(
          panel(prefix + id++, mode, Workload::kAlternating, keys));
    }
    return panels;
  };
  // The ablations pair a throughput and a rank-error table over one roster.
  const auto tradeoff = [&](const std::string& label) {
    return std::vector<PresetPanel>{
        panel(label, kTput, Workload::kUniform, KeyConfig::uniform(32)),
        panel(label, kQual, Workload::kUniform, KeyConfig::uniform(32))};
  };

  // X1: three operation mixes. Deletion-leaning is 40% inserts, not 10%: a
  // time-boxed run at 10% drains the prefill and then measures cheap
  // empty-queue polls (the pure deletion phase is --mode=sort).
  std::vector<PresetPanel> appendix;
  for (const auto& [label, fraction] :
       {std::pair{"Appendix D — mixed (50% ins)", 0.5},
        std::pair{"Appendix D — deletion-leaning (40% ins)", 0.4},
        std::pair{"Appendix D — insertion-heavy (90% ins)", 0.9}}) {
    appendix.push_back(
        panel(label, kTput, Workload::kUniform, KeyConfig::uniform(32)));
    appendix.back().shape.insert_fraction = fraction;
  }

  // X9: throughput and rank error per key distribution, then the zipf grid
  // interleaved, under MMPP bursts (ON 200k/s ~5 ms, OFF 20k/s ~15 ms per
  // thread), and an ingest-heavy producer/consumer split.
  std::vector<PresetPanel> skew;
  for (const KeyConfig& keys :
       {KeyConfig::uniform(32), KeyConfig::zipf(1.1),
        KeyConfig::hotspot(0.9, 0.1), KeyConfig::dijkstra(1, 100)}) {
    skew.push_back(panel("X9 skew", kTput, Workload::kUniform, keys));
    skew.push_back(panel("X9 skew", kQual, Workload::kUniform, keys));
  }
  skew.push_back(panel("X9 layout", PanelMode::kInterleaved,
                       Workload::kUniform, KeyConfig::zipf(1.1)));
  skew.push_back(
      panel("X9 burst", kTput, Workload::kUniform, KeyConfig::zipf(1.1)));
  skew.back().shape.arrivals =
      ArrivalConfig::mmpp(200'000, 20'000, 0.005, 0.015);
  skew.push_back(panel("X9 pcsplit", kTput, Workload::kPcSplit,
                       KeyConfig::hotspot(0.9, 0.1)));
  skew.back().shape.producer_fraction = 0.75;

  return {
      {"fig1",
       "Fig. 1 / Fig. 4a (mars): uniform workload, uniform 32-bit keys", "",
       {panel("Fig. 1", kTput, Workload::kUniform,
              KeyConfig::uniform(32))}},
      {"fig2", "Fig. 2 / Fig. 4e (mars): split workload, ascending keys", "",
       {panel("Fig. 2", kTput, Workload::kSplit, KeyConfig::ascending())}},
      {"fig3",
       "Fig. 3 / Fig. 4g (mars): uniform workload, uniform 8-bit keys", "",
       {panel("Fig. 3", kTput, Workload::kUniform, KeyConfig::uniform(8))}},
      {"fig4",
       "Fig. 4a-h (mars); Figs. 5-7 (saturn/ceres/pluto) with their "
       "--threads ladders",
       "", grid("Fig. 4", kTput)},
      {"fig8",
       "Fig. 8a-c (mars): alternating workload; Figs. 8d-f / 9 with other "
       "--threads ladders",
       "", alternating("Fig. 8", kTput)},
      {"table1",
       "Table 1 / Table 2a (mars): rank error, uniform workload, uniform "
       "32-bit keys",
       "",
       {panel("Table 1", kQual, Workload::kUniform, KeyConfig::uniform(32))}},
      {"table2",
       "Table 2a-h (mars); Tables 3-4 (saturn/ceres) with their --threads "
       "ladders",
       "", grid("Table 2", kQual)},
      {"table5",
       "Table 5a-c (mars): rank error, alternating workload; 5d-i with "
       "other --threads ladders",
       "", alternating("Table 5", kQual)},
      {"ablation-klsm-k",
       "A1: k-LSM relaxation sweep (paper §3: k=16 mimics linden)",
       "linden,klsm16,klsm128,klsm256,klsm1024,klsm4096",
       tradeoff("Ablation A1")},
      {"ablation-mq-c",
       "A2: MultiQueue c sweep + backing heap (paper fixes c=4, binary heap)",
       "mq-c1,mq-c2,mq,mq-c8,mq-pairing", tradeoff("Ablation A2")},
      {"ablation-mq-eng",
       "X8: engineered MultiQueue stickiness s and buffer b sweeps "
       "(arXiv:2504.11652), classic mq as reference",
       "mq-eng-s1,mq-eng-s4,mq-eng-s16,mq-eng-s64,mq-eng-b0,mq-eng-b4,"
       "mq-eng-b64,mq-eng,mq",
       tradeoff("Ablation X8")},
      {"ablation-klsm-components",
       "A3: DLSM-only vs SLSM-only vs k-LSM (paper §G load-shift explanation)",
       "dlsm,slsm256,klsm256",
       {panel("A3 DLSM-friendly", kTput, Workload::kUniform,
              KeyConfig::uniform(32)),
        panel("A3 SLSM-bound", kTput, Workload::kSplit,
              KeyConfig::ascending())}},
      {"appendix",
       "X1: appendix D claims, hunt/slotan/sundell/mound/cbpq vs "
       "linden/glock",
       "glock,linden,slotan,sundell,hunt,mound,cbpq", std::move(appendix)},
      {"skew",
       "X9: skewed/bursty adversarial workloads + anti-artifact hygiene",
       "glock,linden,spray,mq,klsm128,klsm256,klsm4096,mq-eng",
       std::move(skew)},
  };
}

}  // namespace

const std::vector<QueueSpec>& queue_registry() {
  static const std::vector<QueueSpec> registry = build_registry();
  return registry;
}

const std::vector<BenchModeSpec>& bench_mode_registry() {
  static const std::vector<BenchModeSpec> modes = {
      {"throughput", "fixed-duration MOps/s sweep (paper Figs. 1-4)"},
      {"quality", "rank-error replay, mean/stddev (paper Tables 1-5)"},
      {"latency", "per-operation percentiles, p50/p99 ns (paper §F)"},
      {"sort", "Larkin-Sen-Tarjan insert-all/delete-all phases (§F)"},
      {"service", "open-loop Poisson task dispatch, raw vs PriorityService"},
  };
  return modes;
}

const BenchModeSpec* find_bench_mode(std::string_view name) {
  for (const BenchModeSpec& mode : bench_mode_registry()) {
    if (mode.name == name) return &mode;
  }
  return nullptr;
}

const std::vector<PresetSpec>& preset_registry() {
  static const std::vector<PresetSpec> presets = build_presets();
  return presets;
}

const PresetSpec* find_preset(std::string_view name) {
  for (const PresetSpec& preset : preset_registry()) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

const QueueSpec* find_queue(std::string_view name) {
  for (const QueueSpec& spec : queue_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const QueueSpec*> paper_roster() {
  std::vector<const QueueSpec*> roster;
  for (const QueueSpec& spec : queue_registry()) {
    if (spec.in_paper) roster.push_back(&spec);
  }
  return roster;
}

bool resolve_roster(std::string_view names,
                    std::vector<const QueueSpec*>& roster, std::string& bad) {
  if (names.empty()) {
    roster = paper_roster();
    return true;
  }
  std::vector<const QueueSpec*> resolved;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = names.find(',', start);
    const std::string_view name = names.substr(
        start, comma == std::string_view::npos ? comma : comma - start);
    const QueueSpec* spec = find_queue(name);
    if (spec == nullptr) {
      bad.assign(name);
      return false;
    }
    resolved.push_back(spec);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  roster = std::move(resolved);
  return true;
}

}  // namespace cpq::bench
