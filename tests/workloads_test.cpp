// The adversarial workload subsystem (src/workloads/): statistical
// goodness-of-fit for the skewed key distributions, mean-rate and
// overdispersion checks for the open-loop arrival processes, determinism
// under (seed, thread id), spec-string parsing, the anti-artifact hygiene
// helpers, and end-to-end conservation / quality runs under skewed keys.
//
// Every statistical test draws from a fixed seed, so thresholds only need
// to hold for the one deterministic stream each test replays — they are
// still sized generously (3-4 sigma or a 99.9% chi-square quantile) so a
// legitimate sampler change that reseeds the stream stays green.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "bench_framework/harness.hpp"
#include "bench_framework/registry.hpp"
#include "platform/rng.hpp"
#include "queues/multiqueue.hpp"
#include "validation/checked_queue.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/distributions.hpp"
#include "workloads/hygiene.hpp"
#include "workloads/keyspace.hpp"
#include "workloads/shape.hpp"
#include "workloads/spec.hpp"

namespace cpq::workloads {
namespace {

// ------------------------------------------------------------ ZipfSampler

// Chi-square goodness of fit against the exact rank probabilities: n = 50,
// theta = 1.1, 200k draws. df = 49; the 99.9% quantile is 85.35 — a broken
// sampler (e.g. the classic off-by-one at the head rank, which holds ~23%
// of the mass here) lands in the thousands.
TEST(ZipfSampler, ChiSquareGoodnessOfFit) {
  constexpr std::uint64_t kN = 50;
  constexpr std::uint64_t kDraws = 200'000;
  const ZipfSampler zipf(kN, 1.1);
  Xoroshiro128 rng(0xf17df00dULL);

  std::vector<std::uint64_t> counts(kN + 1, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, kN);
    ++counts[rank];
  }

  double chi2 = 0.0;
  for (std::uint64_t k = 1; k <= kN; ++k) {
    const double expected = zipf.probability(k) * kDraws;
    ASSERT_GT(expected, 5.0) << "rank " << k;  // chi-square validity
    const double diff = static_cast<double>(counts[k]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 90.0) << "chi2 over 49 df";
  // Monotone popularity at the head: rank 1 strictly beats rank 2.
  EXPECT_GT(counts[1], counts[2]);
}

TEST(ZipfSampler, ProbabilitiesSumToOne) {
  const ZipfSampler zipf(100, 0.75);
  double sum = 0.0;
  for (std::uint64_t k = 1; k <= 100; ++k) sum += zipf.probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfSampler, DegenerateSingleRank) {
  const ZipfSampler zipf(1, 1.1);
  Xoroshiro128 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.next(rng), 1u);
}

// --------------------------------------------------------- HotspotSampler

// 90% of draws must land below hot_span: binomial with p = 0.9 over 100k
// draws has sigma ~95, so a 400-draw band is > 4 sigma.
TEST(HotspotSampler, HotFractionWithinFourSigma) {
  constexpr std::uint64_t kSpan = 1'000'000;
  constexpr std::uint64_t kDraws = 100'000;
  const HotspotSampler hotspot(kSpan, 0.9, 0.1);
  EXPECT_EQ(hotspot.hot_span(), kSpan / 10);
  Xoroshiro128 rng(0x407ULL);

  std::uint64_t hot = 0;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t key = hotspot.next(rng);
    ASSERT_LT(key, kSpan);
    if (key < hotspot.hot_span()) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot), 0.9 * kDraws, 400.0);
}

TEST(HotspotSampler, ColdDrawsCoverTheRemainder) {
  const HotspotSampler hotspot(1000, 0.0, 0.1);  // never hot
  Xoroshiro128 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = hotspot.next(rng);
    EXPECT_GE(key, hotspot.hot_span());
    EXPECT_LT(key, 1000u);
  }
}

// ------------------------------------------------------------ KeyGenerator

TEST(KeyGenerator, DijkstraIncrementsStayInBand) {
  KeyGenerator gen(KeyConfig::dijkstra(5, 9), 42, 0);
  std::uint64_t frontier = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t key = gen.next();
    EXPECT_GE(key, frontier + 5);
    EXPECT_LE(key, frontier + 9);
    // The model: the popped minimum advances, new work trails it.
    frontier = key - 3;
    gen.observe_deleted(frontier);
  }
}

TEST(KeyGenerator, ZipfKeysAreZeroBasedAndBounded) {
  KeyGenerator gen(KeyConfig::zipf(1.1, 6), 7, 0);  // span 64
  std::vector<std::uint64_t> counts(64, 0);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = gen.next();
    ASSERT_LT(key, 64u);
    ++counts[key];
  }
  // Rank 1 maps to key 0: the popular mass sits at the minimum end.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()), counts.begin());
}

TEST(KeyGenerator, SameSeedSameThreadReplaysIdenticalKeys) {
  for (const KeyConfig& cfg :
       {KeyConfig::zipf(1.1, 20), KeyConfig::hotspot(0.9, 0.1, 20),
        KeyConfig::dijkstra(1, 100), KeyConfig::uniform(32)}) {
    KeyGenerator a(cfg, 99, 3);
    KeyGenerator b(cfg, 99, 3);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.next(), b.next()) << cfg.name();
    }
  }
}

TEST(KeyGenerator, DifferentThreadsDrawIndependentStreams) {
  KeyGenerator a(KeyConfig::zipf(1.1, 32), 99, 0);
  KeyGenerator b(KeyConfig::zipf(1.1, 32), 99, 1);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 100);  // zipf collides on hot keys, but not in lockstep
}

// -------------------------------------------------------- ArrivalProcess

// Helper: simulate one process for `horizon_s` of process time, returning
// the per-bin arrival counts at 10 ms resolution.
std::vector<std::uint64_t> bin_arrivals(ArrivalProcess& process,
                                        double horizon_s) {
  const double horizon_ns = horizon_s * 1e9;
  const double bin_ns = 10e6;
  std::vector<std::uint64_t> bins(
      static_cast<std::size_t>(horizon_ns / bin_ns), 0);
  for (;;) {
    const double t = process.next_arrival_ns();
    if (t >= horizon_ns) break;
    ++bins[static_cast<std::size_t>(t / bin_ns)];
  }
  return bins;
}

double mean_of(const std::vector<std::uint64_t>& bins) {
  return std::accumulate(bins.begin(), bins.end(), 0.0) /
         static_cast<double>(bins.size());
}

double dispersion_index(const std::vector<std::uint64_t>& bins) {
  const double mean = mean_of(bins);
  double var = 0.0;
  for (const std::uint64_t c : bins) {
    const double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(bins.size() - 1);
  return var / mean;
}

// The MMPP's long-run rate has a closed form; the empirical rate over 20 s
// of process time must match it within 15%, and the 10 ms bin counts must
// be clearly overdispersed (a Poisson process has index 1).
TEST(ArrivalProcess, MmppMatchesMeanRateAndIsOverdispersed) {
  const ArrivalConfig cfg = ArrivalConfig::mmpp(20'000, 1'000, 0.010, 0.090);
  EXPECT_NEAR(cfg.mean_hz(), 2'900.0, 1e-9);

  ArrivalProcess process(cfg, 0xabcdULL, 0);
  const std::vector<std::uint64_t> bins = bin_arrivals(process, 20.0);
  const double rate = mean_of(bins) * 100.0;  // 10 ms bins -> per second
  EXPECT_NEAR(rate, cfg.mean_hz(), 0.15 * cfg.mean_hz());
  EXPECT_GT(dispersion_index(bins), 1.5);
  EXPECT_GT(process.bursts(), 10u);  // ~1 ON sojourn per 100 ms over 20 s
  const double on_fraction = process.on_time_fraction();
  EXPECT_GT(on_fraction, 0.02);
  EXPECT_LT(on_fraction, 0.5);  // stationary ON share is 10%
}

// The Poisson special case: correct rate, dispersion ~1, exponential gaps
// with mean 1/rate.
TEST(ArrivalProcess, PoissonMatchesRateAndIsNotBursty) {
  const ArrivalConfig cfg = ArrivalConfig::poisson(10'000);
  ArrivalProcess process(cfg, 0x9e3ULL, 0);
  const std::vector<std::uint64_t> bins = bin_arrivals(process, 10.0);
  const double rate = mean_of(bins) * 100.0;
  EXPECT_NEAR(rate, 10'000.0, 0.05 * 10'000.0);
  EXPECT_LT(dispersion_index(bins), 1.3);
  EXPECT_EQ(process.bursts(), 0u);  // single eternal ON state
  EXPECT_DOUBLE_EQ(process.on_time_fraction(), 1.0);

  ArrivalProcess gaps(cfg, 0x9e3ULL, 1);
  double prev = 0.0, sum = 0.0;
  constexpr int kGaps = 50'000;
  for (int i = 0; i < kGaps; ++i) {
    const double t = gaps.next_arrival_ns();
    EXPECT_GT(t, prev);  // strictly increasing schedule
    sum += t - prev;
    prev = t;
  }
  EXPECT_NEAR(sum / kGaps, 1e5, 0.05 * 1e5);  // mean gap 100 us
}

TEST(ArrivalProcess, SameSeedReplaysIdenticalSchedule) {
  const ArrivalConfig cfg = ArrivalConfig::mmpp(5'000, 500, 0.010, 0.090);
  ArrivalProcess a(cfg, 4242, 2);
  ArrivalProcess b(cfg, 4242, 2);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(a.next_arrival_ns(), b.next_arrival_ns());
  }
  ArrivalProcess other(cfg, 4242, 3);
  EXPECT_NE(a.next_arrival_ns(), other.next_arrival_ns());
}

// ----------------------------------------------------------------- hygiene

TEST(LayoutPerturbation, DisabledCostsNothingEnabledHoldsBlocks) {
  const LayoutPerturbation off(false, 1);
  EXPECT_EQ(off.blocks(), 0u);
  const LayoutPerturbation a(true, 1);
  const LayoutPerturbation b(true, 1);
  EXPECT_GT(a.blocks(), 0u);
  EXPECT_EQ(a.blocks(), b.blocks());  // same seed, same layout
}

TEST(DeterministicShuffle, SeedStablePermutation) {
  std::vector<int> first(100);
  std::iota(first.begin(), first.end(), 0);
  std::vector<int> second = first;
  const std::vector<int> identity = first;

  Xoroshiro128 rng_a(7), rng_b(7);
  deterministic_shuffle(first, rng_a);
  deterministic_shuffle(second, rng_b);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, identity);
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first, identity);  // a permutation, nothing lost
}

// -------------------------------------------------------------- spec.hpp

TEST(SpecParse, KeySpecsRoundTripThroughNames) {
  const auto zipf = parse_key_spec("zipf:1.1");
  ASSERT_TRUE(zipf);
  EXPECT_EQ(zipf->distribution, KeyDistribution::kZipf);
  EXPECT_DOUBLE_EQ(zipf->zipf_theta, 1.1);
  EXPECT_EQ(zipf->bits, 32u);
  EXPECT_EQ(zipf->name(), "zipf1.1");

  const auto zipf_bits = parse_key_spec("zipf:0.8,20");
  ASSERT_TRUE(zipf_bits);
  EXPECT_EQ(zipf_bits->bits, 20u);

  const auto hotspot = parse_key_spec("hotspot:0.9,0.1");
  ASSERT_TRUE(hotspot);
  EXPECT_DOUBLE_EQ(hotspot->hot_ops, 0.9);
  EXPECT_DOUBLE_EQ(hotspot->hot_keys, 0.1);
  EXPECT_EQ(hotspot->name(), "hotspot0.9/0.1");

  const auto dijkstra = parse_key_spec("dijkstra:1,100");
  ASSERT_TRUE(dijkstra);
  EXPECT_EQ(dijkstra->dijkstra_min, 1u);
  EXPECT_EQ(dijkstra->dijkstra_max, 100u);
  EXPECT_EQ(dijkstra->name(), "dijkstra1-100");

  for (const char* legacy : {"uniform32", "uniform16", "uniform8",
                             "ascending", "descending", "hold"}) {
    EXPECT_TRUE(parse_key_spec(legacy)) << legacy;
  }
}

TEST(SpecParse, RejectsMalformedKeySpecs) {
  for (const char* bad :
       {"", "bogus", "zipf", "zipf:", "zipf:0", "zipf:-1", "zipf:17",
        "zipf:1.1,0", "zipf:1.1,64", "zipf:1.1,20,3", "zipf:abc",
        "hotspot:0.9", "hotspot:1.5,0.1", "hotspot:0.9,0", "hotspot:0.9,1.5",
        "hotspot:0.9,,", "hotspot:0.9,0.1,64", "dijkstra:1", "dijkstra:5,2",
        "dijkstra:0,0", "dijkstra:-1,5", "dijkstra:1,100,3", "uniform64"}) {
    EXPECT_FALSE(parse_key_spec(bad)) << bad;
  }
}

TEST(SpecParse, ArrivalSpecsRoundTrip) {
  const auto closed = parse_arrival_spec("closed");
  ASSERT_TRUE(closed);
  EXPECT_FALSE(closed->enabled());

  const auto poisson = parse_arrival_spec("poisson:5000");
  ASSERT_TRUE(poisson);
  EXPECT_EQ(poisson->kind, ArrivalConfig::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(poisson->mean_hz(), 5'000.0);

  const auto mmpp = parse_arrival_spec("mmpp:20000,1000,10,90");
  ASSERT_TRUE(mmpp);
  EXPECT_EQ(mmpp->kind, ArrivalConfig::Kind::kMmpp);
  EXPECT_DOUBLE_EQ(mmpp->on_s, 0.010);
  EXPECT_DOUBLE_EQ(mmpp->off_s, 0.090);
  EXPECT_NEAR(mmpp->mean_hz(), 2'900.0, 1e-9);
  EXPECT_EQ(mmpp->name(), "mmpp:20000,1000,10,90");
}

TEST(SpecParse, RejectsMalformedArrivalSpecs) {
  for (const char* bad :
       {"", "poisson", "poisson:", "poisson:0", "poisson:-5", "poisson:abc",
        "mmpp:1000", "mmpp:1000,100,10", "mmpp:1000,2000,10,90",
        "mmpp:0,0,10,90", "mmpp:1000,100,0,90", "mmpp:1000,100,10,0",
        "mmpp:1000,-1,10,90", "burst:5"}) {
    EXPECT_FALSE(parse_arrival_spec(bad)) << bad;
  }
}

// ------------------------------------------------------------ shape.hpp

TEST(OpChooser, ProducerCountClampsToBothSides) {
  EXPECT_EQ(OpChooser::producer_count(8, 0.25), 2u);
  EXPECT_EQ(OpChooser::producer_count(8, 0.5), 4u);
  EXPECT_EQ(OpChooser::producer_count(8, 1.0), 8u);
  EXPECT_EQ(OpChooser::producer_count(4, 0.9), 3u);  // keep one consumer
  EXPECT_EQ(OpChooser::producer_count(1, 0.01), 1u);  // keep one producer
  EXPECT_EQ(OpChooser::producer_count(1, 1.0), 1u);
}

TEST(OpChooser, PcSplitAssignsRolesByFraction) {
  constexpr unsigned kThreads = 8;
  const unsigned producers = OpChooser::producer_count(kThreads, 0.25);
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    OpChooser chooser(Workload::kPcSplit, tid, kThreads, 42, 0.5, 1, 0.25);
    const bool expect_insert = tid < producers;
    for (int op = 0; op < 10; ++op) {
      EXPECT_EQ(chooser.next_is_insert(), expect_insert) << tid;
    }
  }
}

// ---------------------------------------------- end-to-end under skew

// Conservation under hotspot keys: skewed popularity must not break
// exactly-once delivery on a relaxed queue.
TEST(SkewedEndToEnd, CheckedMultiQueueConservesUnderHotspotKeys) {
  using Queue = MultiQueue<std::uint64_t, std::uint64_t>;
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 20'000;
  validation::CheckedQueue<Queue> queue(
      kThreads, std::make_unique<Queue>(kThreads, 4, 17));

  std::vector<std::thread> team;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    team.emplace_back([&, tid] {
      auto handle = queue.get_handle(tid);
      KeyGenerator gen(KeyConfig::hotspot(0.9, 0.004, 16), 1234, tid);
      OpChooser chooser(Workload::kUniform, tid, kThreads, 1234);
      std::uint64_t inserted = 0;
      for (std::uint64_t op = 0; op < kOps; ++op) {
        if (chooser.next_is_insert()) {
          handle.insert(gen.next(),
                        (static_cast<std::uint64_t>(tid + 1) << 40) |
                            inserted++);
        } else {
          std::uint64_t k, v;
          if (handle.delete_min(k, v)) gen.observe_deleted(k);
        }
      }
    });
  }
  for (auto& t : team) t.join();

  const validation::ReconcileReport report = queue.reconcile();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.inserted, 0u);
}

// The full quality pipeline (rank-error replay included) must complete on
// the registry's MultiQueue under a Zipf keyspace.
TEST(SkewedEndToEnd, RegistryQualityRunCompletesUnderZipf) {
  const bench::QueueSpec* mq = bench::find_queue("mq");
  ASSERT_NE(mq, nullptr);
  bench::BenchConfig cfg;
  cfg.threads = 2;
  cfg.keys = KeyConfig::zipf(1.1, 16);
  cfg.prefill = 2'000;
  cfg.ops_per_thread = 2'000;
  cfg.repetitions = 1;
  cfg.pin_threads = false;
  cfg.label = "workloads_test/mq";
  const bench::QualityResult result = mq->quality(cfg);
  EXPECT_FALSE(result.failed());
  EXPECT_GT(result.deletions, 0u);
}

// Throughput with every new knob at once: MMPP pacing, pcsplit roles,
// shuffled prefill and layout perturbation — one short repetition must
// complete and report the burst diagnostics.
TEST(SkewedEndToEnd, ThroughputWithPacingAndHygieneCompletes) {
  const bench::QueueSpec* mq = bench::find_queue("mq");
  ASSERT_NE(mq, nullptr);
  bench::BenchConfig cfg;
  cfg.threads = 2;
  cfg.workload = Workload::kPcSplit;
  cfg.producer_fraction = 0.5;
  cfg.keys = KeyConfig::hotspot(0.9, 0.1, 20);
  cfg.prefill = 1'000;
  cfg.duration_s = 0.05;
  cfg.repetitions = 1;
  cfg.pin_threads = false;
  cfg.arrivals = ArrivalConfig::mmpp(50'000, 5'000, 0.005, 0.015);
  cfg.perturb_layout = true;
  cfg.label = "workloads_test/mq-paced";
  const bench::ThroughputResult result = mq->throughput(cfg);
  EXPECT_FALSE(result.failed());
  ASSERT_EQ(result.on_fraction_per_rep.size(), 1u);
  EXPECT_GT(result.on_fraction_per_rep[0], 0.0);
  EXPECT_LE(result.on_fraction_per_rep[0], 1.0);
}

}  // namespace
}  // namespace cpq::workloads
