// sssp-klsm256: parallel label-correcting single-source shortest paths on
// the k-LSM (k = 256), checked against the benchmark's own sequential
// Dijkstra. A closed loop: every key the queue sees comes from the
// application's own relaxations, so the queue's ordering decides how much
// work is wasted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "mm/arena.hpp"
#include "mm/epoch.hpp"
#include "obs/metrics.hpp"
#include "queues/klsm/klsm.hpp"

namespace e2e::sssp {

// A uniform random graph: one backbone edge per vertex along a random
// Hamiltonian cycle (so every vertex is reachable) plus kDegree - 1 edges
// to uniform random targets; weights uniform in [1, kMaxWeight].
constexpr std::uint32_t kVertices = 1'000'000;
constexpr std::uint32_t kDegree = 8;
constexpr std::uint32_t kMaxWeight = 100;
constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kRelaxation = 256;
// Set-up (graph + oracle) is repeated this often; setup_s is the median.
constexpr unsigned kSetups = 3;
// One solve takes about this long with kWorkers workers on the reference
// machine; the number of measured solves is fixed from --seconds with it,
// so every run of a given length does the same work.
constexpr double kNominalSolveS = 2.0;
// One traced span sample per this many pops per worker.
constexpr std::uint64_t kSpanSample = 4096;

constexpr std::uint32_t kUnreached = UINT32_MAX;
constexpr unsigned kVertexBits = 20;
static_assert(kVertices <= (1u << kVertexBits));

using Queue = cpq::KLsmQueue<std::uint64_t, std::uint64_t>;

struct Edge {
  std::uint32_t to;
  std::uint32_t weight;
};

struct Graph {
  std::vector<Edge> edges;  // vertex v owns [v * kDegree, (v + 1) * kDegree)
  std::uint32_t source = 0;
};

// Built straight into its final layout: no edge list or sort, so set-up's
// memory peak stays below the solve's and the queue's share shows in
// peak_rss_mb.
inline Graph make_graph(std::uint64_t seed) {
  Rng rng(stream_seed(seed, 1));
  std::vector<std::uint32_t> order(kVertices);
  std::iota(order.begin(), order.end(), 0u);
  for (std::uint32_t i = kVertices - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  Graph g;
  g.edges.resize(std::size_t{kVertices} * kDegree);
  for (std::uint32_t i = 0; i < kVertices; ++i) {
    const std::uint32_t v = order[i];
    const std::uint32_t next = order[(i + 1) % kVertices];
    g.edges[std::size_t{v} * kDegree] = {
        next, static_cast<std::uint32_t>(1 + rng.below(kMaxWeight))};
  }
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    for (std::uint32_t j = 1; j < kDegree; ++j) {
      g.edges[std::size_t{v} * kDegree + j] = {
          static_cast<std::uint32_t>(rng.below(kVertices)),
          static_cast<std::uint32_t>(1 + rng.below(kMaxWeight))};
    }
  }
  g.source = order[0];
  return g;
}

struct Oracle {
  std::vector<std::uint32_t> dist;
  std::uint64_t pops = 0;          // heap pops, stale entries included
  std::uint32_t urgent_limit = 0;  // distance bounding the nearest quarter
};

// Sequential lazy-deletion Dijkstra on std::priority_queue: the exact
// reference every parallel solve is compared with.
inline Oracle dijkstra(const Graph& g) {
  Oracle o;
  o.dist.assign(kVertices, kUnreached);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  o.dist[g.source] = 0;
  heap.push(g.source);
  while (!heap.empty()) {
    const std::uint64_t top = heap.top();
    heap.pop();
    ++o.pops;
    const auto d = static_cast<std::uint32_t>(top >> kVertexBits);
    const auto v = static_cast<std::uint32_t>(top & ((1u << kVertexBits) - 1));
    if (d != o.dist[v]) continue;
    for (std::size_t e = std::size_t{v} * kDegree;
         e < std::size_t{v + 1} * kDegree; ++e) {
      const std::uint32_t c = d + g.edges[e].weight;
      if (c < o.dist[g.edges[e].to]) {
        o.dist[g.edges[e].to] = c;
        heap.push((std::uint64_t{c} << kVertexBits) | g.edges[e].to);
      }
    }
  }
  std::vector<std::uint32_t> sorted = o.dist;
  std::nth_element(sorted.begin(), sorted.begin() + kVertices / 4,
                   sorted.end());
  o.urgent_limit = sorted[kVertices / 4];
  return o;
}

struct WorkerStats {
  std::uint64_t pops = 0;
  std::uint64_t empty = 0;
  std::uint64_t inserts = 0;
  std::uint64_t exit_ns = 0;
  // Traced solves only.
  std::uint64_t queue_ticks = 0;  // inside delete_min and insert
  std::uint64_t relax_ticks = 0;  // inside the relax loop, inserts included
  std::uint64_t insert_ticks = 0;
  Histogram delete_hit_ns;
  Histogram insert_ns;
  std::vector<Span> spans;
};

struct Solve {
  double seconds = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unsettled = 0;
  std::uint64_t ebr_backlog = 0;
  std::vector<WorkerStats> workers;
  Histogram settle_ns;         // every vertex
  Histogram settle_urgent_ns;  // the nearest quarter
};

// One solve on a fresh queue, in its own worker threads. The workers start
// together at `release`; the solve ends when the last one exits.
inline Solve solve(const Graph& g, const Oracle& oracle, std::uint64_t seed,
                   bool traced) {
  Queue queue(kWorkers, kRelaxation, seed);
  std::vector<std::atomic<std::uint32_t>> dist(kVertices);
  std::vector<std::atomic<std::uint64_t>> settled(kVertices);
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    dist[v].store(kUnreached, std::memory_order_relaxed);
    settled[v].store(0, std::memory_order_relaxed);
  }
  dist[g.source].store(0, std::memory_order_relaxed);
  queue.get_handle(0).insert(0, g.source);

  // Items inserted but not yet fully processed; 0 means done.
  std::atomic<std::uint64_t> pending{1};
  std::atomic<bool> go{false};
  Solve result;
  result.workers.resize(kWorkers);
  std::uint64_t release_ns = 0;
  const TickScale* scale = traced ? &TickScale::get() : nullptr;

  auto work = [&](unsigned tid) {
    WorkerStats& ws = result.workers[tid];
    auto handle = queue.get_handle(tid);
    std::uint32_t improved[kDegree];
    std::uint32_t improved_dist[kDegree];
    while (!go.load(std::memory_order_acquire)) {
    }
    while (pending.load(std::memory_order_acquire) > 0) {
      std::uint64_t key = 0;
      std::uint64_t value = 0;
      bool hit;
      const bool sample = traced && ws.pops % kSpanSample == 0;
      std::uint64_t t0 = 0;
      std::uint64_t t1 = 0;
      if (traced) {
        t0 = ticks();
        hit = handle.delete_min(key, value);
        t1 = ticks();
        ws.queue_ticks += t1 - t0;
        if (hit) {
          ws.delete_hit_ns.add(
              scale->call_units(t1 - t0));
        }
      } else {
        hit = handle.delete_min(key, value);
      }
      if (!hit) {
        ++ws.empty;
        continue;
      }
      ++ws.pops;
      const auto v = static_cast<std::uint32_t>(value);
      const auto d = static_cast<std::uint32_t>(key);
      if (d != dist[v].load(std::memory_order_acquire)) {  // stale entry
        pending.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      settled[v].store(now_ns(), std::memory_order_relaxed);
      if (sample) {
        ws.spans.push_back({"queues.delete_min", nullptr, scale->to_ns(t0),
                            scale->to_ns(t1), v});
      }
      const std::uint64_t r0 = traced ? ticks() : 0;
      unsigned n = 0;
      for (std::size_t e = std::size_t{v} * kDegree;
           e < std::size_t{v + 1} * kDegree; ++e) {
        const std::uint32_t to = g.edges[e].to;
        const std::uint32_t c = d + g.edges[e].weight;
        std::uint32_t current = dist[to].load(std::memory_order_relaxed);
        while (c < current) {
          if (dist[to].compare_exchange_weak(current, c,
                                             std::memory_order_acq_rel)) {
            improved[n] = to;
            improved_dist[n] = c;
            ++n;
            break;
          }
        }
      }
      // This pop's own pending unit passes to its first child, so a vertex
      // with one improvement touches the shared counter not at all.
      if (n == 0) {
        pending.fetch_sub(1, std::memory_order_acq_rel);
      } else if (n > 1) {
        pending.fetch_add(n - 1, std::memory_order_acq_rel);
      }
      for (unsigned i = 0; i < n; ++i) {
        if (traced) {
          const std::uint64_t i0 = ticks();
          handle.insert(improved_dist[i], improved[i]);
          const std::uint64_t i1 = ticks();
          ws.queue_ticks += i1 - i0;
          ws.insert_ticks += i1 - i0;
          ws.insert_ns.add(scale->call_units(i1 - i0));
          if (sample) {
            ws.spans.push_back({"queues.insert", "app.relax", scale->to_ns(i0),
                                scale->to_ns(i1), improved[i]});
          }
        } else {
          handle.insert(improved_dist[i], improved[i]);
        }
      }
      ws.inserts += n;
      if (traced) {
        const std::uint64_t r1 = ticks();
        ws.relax_ticks += r1 - r0;
        if (sample) {
          ws.spans.push_back(
              {"app.relax", nullptr, scale->to_ns(r0), scale->to_ns(r1), v});
        }
      }
    }
    ws.exit_ns = now_ns();
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWorkers; ++t) threads.emplace_back(work, t);
  release_ns = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  std::uint64_t last_exit = release_ns;
  for (const WorkerStats& ws : result.workers) {
    last_exit = std::max(last_exit, ws.exit_ns);
  }
  result.seconds = static_cast<double>(last_exit - release_ns) / 1e9;
  result.ebr_backlog = cpq::mm::EbrDomain::global().retired_count();

  for (std::uint32_t v = 0; v < kVertices; ++v) {
    if (dist[v].load(std::memory_order_relaxed) != oracle.dist[v]) {
      ++result.mismatches;
    }
    const std::uint64_t at = settled[v].load(std::memory_order_relaxed);
    if (at < release_ns) {
      ++result.unsettled;
      continue;
    }
    result.settle_ns.add(at - release_ns);
    if (oracle.dist[v] <= oracle.urgent_limit) {
      result.settle_urgent_ns.add(at - release_ns);
    }
  }
  return result;
}

// Relaxation waste: pops beyond the sequential oracle's, over the oracle's
// pops for the same number of solves.
inline double extra_pop_pct(std::uint64_t pops, std::uint64_t oracle_pops,
                            std::uint64_t solves) {
  const double base =
      static_cast<double>(oracle_pops) * static_cast<double>(solves);
  return pct(static_cast<double>(pops) - base, base);
}

// Sums over the workers of the solves of one kind (untraced or traced).
struct Totals {
  std::uint64_t pops = 0;
  std::uint64_t empty = 0;
  std::uint64_t inserts = 0;
  std::uint64_t queue_ticks = 0;
  std::uint64_t relax_ticks = 0;
  std::uint64_t insert_ticks = 0;
  double worker_ns = 0;
};

inline Report run(std::uint64_t seed, unsigned seconds, bool trace,
                  const std::string& trace_path) {
  Report report;
  // Set-up: graph plus oracle, built kSetups times from scratch.
  std::vector<double> setup_s;
  Graph graph;
  Oracle oracle;
  for (unsigned i = 0; i < kSetups; ++i) {
    graph = Graph{};
    oracle = Oracle{};
    const std::uint64_t t0 = now_ns();
    graph = make_graph(seed);
    oracle = dijkstra(graph);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_rss_mb = peak_rss_mb();
  if (trace) TickScale::get();

  // The first solve warms the block pool and the allocator and is not
  // measured: later solves in one process run measurably slower than the
  // first, so mixing it in would bias the median.
  const unsigned measured = std::max(
      3u, static_cast<unsigned>(std::lround(seconds / kNominalSolveS)));
  const std::uint64_t queue_seed = stream_seed(seed, 2);
  auto check = [&](const Solve& s, const std::string& which) {
    report.attempted += 1;
    if (s.mismatches == 0 && s.unsettled == 0) return true;
    report.failed += 1;
    report.fail(which + ": " + std::to_string(s.mismatches) +
                " distances differ from the oracle, " +
                std::to_string(s.unsettled) + " vertices never settled");
    return false;
  };
  check(solve(graph, oracle, queue_seed, false), "warm-up solve");

  const cpq::mm::BlockPool::Stats pool0 = cpq::mm::BlockPool::global().stats();
  const cpq::mm::EbrDomain& ebr = cpq::mm::EbrDomain::global();
  const std::uint64_t ebr0 = ebr.retired_count() + ebr.freed_count();
  const auto counters0 = cpq::obs::MetricsRegistry::global().totals();

  std::vector<double> solve_s[2];  // indexed by traced
  std::vector<double> settle_p50, settle_p90, urgent_p90, backlog;
  Totals totals[2];
  Histogram delete_hit_ns;
  Histogram insert_ns;
  std::vector<std::vector<Span>> spans;
  const std::uint64_t origin = now_ns();
  for (unsigned i = 0; i < measured; ++i) {
    // A traced run alternates untraced and traced solves, so the tracing
    // overhead is measured under the same drift.
    const bool traced = trace && i % 2 == 1;
    Solve s = solve(graph, oracle, stream_seed(queue_seed, i + 1), traced);
    if (!check(s, "solve " + std::to_string(i))) continue;
    solve_s[traced].push_back(s.seconds);
    backlog.push_back(static_cast<double>(s.ebr_backlog));
    Totals& t = totals[traced];
    for (WorkerStats& ws : s.workers) {
      t.pops += ws.pops;
      t.empty += ws.empty;
      t.inserts += ws.inserts;
      t.queue_ticks += ws.queue_ticks;
      t.relax_ticks += ws.relax_ticks;
      t.insert_ticks += ws.insert_ticks;
      t.worker_ns += s.seconds * 1e9;
      delete_hit_ns.merge(ws.delete_hit_ns);
      insert_ns.merge(ws.insert_ns);
      if (traced) spans.push_back(std::move(ws.spans));
    }
    if (!traced) {
      settle_p50.push_back(checked_percentile(report, s.settle_ns, 50,
                                              "vertex settle times"));
      settle_p90.push_back(checked_percentile(report, s.settle_ns, 90,
                                              "vertex settle times"));
      urgent_p90.push_back(checked_percentile(
          report, s.settle_urgent_ns, 90, "nearest-quarter settle times"));
    }
  }
  const double rss_mb = peak_rss_mb();
  const cpq::mm::BlockPool::Stats pool1 = cpq::mm::BlockPool::global().stats();
  const std::uint64_t ebr1 = ebr.retired_count() + ebr.freed_count();
  const auto counters1 = cpq::obs::MetricsRegistry::global().totals();

  const double solve_med = median(solve_s[0]);
  const std::string solves =
      std::to_string(solve_s[0].size()) + " untraced solves";
  std::printf("# sssp-klsm256: %u vertices, %u edges, k=%llu, %u workers, "
              "seed %llu\n# solve_s %.6f s (median of %s; warm-up solve "
              "not measured)\n# rss after set-up %.1f MB, peak %.1f MB; "
              "oracle pops %llu\n",
              kVertices, kVertices * kDegree,
              static_cast<unsigned long long>(kRelaxation), kWorkers,
              static_cast<unsigned long long>(seed), solve_med, solves.c_str(),
              setup_rss_mb, rss_mb,
              static_cast<unsigned long long>(oracle.pops));
  if (!report.correct) return report;

  if (!trace) {
    report.add("setup_s", median(setup_s), "s",
               "median of " + std::to_string(kSetups) +
                   " graph + oracle builds");
    report.add("peak_rss_mb", rss_mb, "MB", "process peak");
    report.add("goodput_per_s", kVertices / solve_med, "1/s",
               "vertices settled per second of solve, median of " + solves);
    report.add("sojourn_p50_us", median(settle_p50) / 1e3, "us",
               "vertex settle time from release; median over " + solves +
                   " of p50 of " + std::to_string(kVertices) + " vertices");
    report.add("sojourn_p90_us", median(settle_p90) / 1e3, "us",
               "as above, p90");
    report.add("urgent_sojourn_p90_us", median(urgent_p90) / 1e3, "us",
               "p90 over the nearest quarter of vertices, median over " +
                   solves);
    return report;
  }

  const Totals& u = totals[0];
  const Totals& t = totals[1];
  const double n_solves =
      static_cast<double>(solve_s[0].size() + solve_s[1].size());
  const double oracle_pops = static_cast<double>(oracle.pops) * n_solves;
  const double pops = static_cast<double>(u.pops + t.pops);
  const double calls = pops + static_cast<double>(u.empty + t.empty);
  const double ops = calls + static_cast<double>(u.inserts + t.inserts);
  const TickScale& scale = TickScale::get();
  auto counter = [&](cpq::obs::Counter c) {
    const auto i = static_cast<unsigned>(c);
    return static_cast<double>(counters1[i] - counters0[i]);
  };
  const std::string traced_solves =
      std::to_string(solve_s[1].size()) + " traced solves";
  const std::string all_solves =
      std::to_string(static_cast<int>(n_solves)) + " measured solves";
  report.add("queues.insert_ns_p50",
             call_ns_percentile(report, insert_ns, 50, "inserts"), "ns",
             std::to_string(insert_ns.count()) + " inserts, " + traced_solves);
  report.add("queues.insert_ns_p99",
             call_ns_percentile(report, insert_ns, 99, "inserts"), "ns",
             std::to_string(insert_ns.count()) + " inserts");
  report.add("queues.delete_ns_p50",
             call_ns_percentile(report, delete_hit_ns, 50, "delete hits"),
             "ns", std::to_string(delete_hit_ns.count()) + " delete_min hits");
  report.add("queues.delete_ns_p99",
             call_ns_percentile(report, delete_hit_ns, 99, "delete hits"),
             "ns", std::to_string(delete_hit_ns.count()) + " delete_min hits");
  report.add("queues.empty_pop_pct", pct(calls - pops, calls), "%",
             "of " + std::to_string(static_cast<std::uint64_t>(calls)) +
                 " delete_min calls, " + all_solves);
  report.add("queues.extra_pop_pct",
             extra_pop_pct(u.pops + t.pops, oracle.pops,
                           solve_s[0].size() + solve_s[1].size()),
             "%",
             "over " + std::to_string(static_cast<std::uint64_t>(oracle_pops)) +
                 " oracle pops (" + std::to_string(oracle.pops) +
                 " per solve)");
  report.add("queues.busy_pct", pct(scale.ns(t.queue_ticks), t.worker_ns),
             "%", "of worker time in delete_min + insert, " + traced_solves);
  report.add("app.busy_pct",
             pct(scale.ns(t.relax_ticks - t.insert_ticks), t.worker_ns), "%",
             "of worker time relaxing edges, inserts excluded");
  const double fresh = static_cast<double>(pool1.fresh - pool0.fresh);
  const double reused = static_cast<double>(pool1.reused - pool0.reused);
  report.add("mm.pool_fresh", fresh, "count",
             "BlockPool chunks from operator new, " + all_solves);
  report.add("mm.pool_reuse_pct", pct(reused, reused + fresh), "%",
             "of " + std::to_string(static_cast<std::uint64_t>(reused + fresh)) +
                 " BlockPool allocations");
  report.add("mm.ebr_retired", static_cast<double>(ebr1 - ebr0), "count",
             "EBR retirements, " + all_solves);
  report.add("mm.ebr_backlog", median(backlog), "count",
             "retired - freed at solve end, median of " + all_solves);
  const std::string per_op =
      "over " + std::to_string(static_cast<std::uint64_t>(ops)) +
      " queue calls";
  report.add("platform.cas_retry_per_op",
             per(counter(cpq::obs::Counter::kCasRetry), ops), "1/op", per_op);
  report.add("platform.lock_retry_per_op",
             per(counter(cpq::obs::Counter::kLockRetry), ops), "1/op", per_op);
  report.add("platform.backoff_per_op",
             per(counter(cpq::obs::Counter::kBackoffPause), ops), "1/op",
             per_op);
  const double traced_med = median(solve_s[1]);
  report.add("trace.overhead_pct", pct(traced_med - solve_med, solve_med),
             "%",
             "median solve_s traced " + std::to_string(traced_med) +
                 " s vs untraced " + std::to_string(solve_med) + " s");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    names.push_back("solve worker " + std::to_string(i % kWorkers));
  }
  if (!write_chrome_trace(trace_path, spans, names, origin)) {
    report.fail("cannot write trace " + trace_path);
  }
  return report;
}

}  // namespace e2e::sssp
