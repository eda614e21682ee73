// Tests for the epoch-based reclamation domain: deferred freeing, epoch
// advancement, drain, nesting, orphan adoption, participant recycling,
// bounded limbo lists, the per-thread participant cache, and a
// multi-threaded retire/read stress with instrumented deleters.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "mm/epoch.hpp"
#include "platform/thread_util.hpp"

namespace cpq::mm {
namespace {

std::atomic<std::uint64_t> g_deleted{0};

struct Counted {
  // Relaxed atomic: the stress test below writes a node's payload after
  // unpublishing it while grace-period readers may still load it.
  std::atomic<std::uint64_t> payload{0};
  ~Counted() { g_deleted.fetch_add(1); }
};

void counted_deleter(void* p) { delete static_cast<Counted*>(p); }

TEST(Ebr, RetireFreesAfterDrain) {
  EbrDomain domain;
  g_deleted.store(0);
  {
    EbrDomain::Guard guard(domain);
    for (int i = 0; i < 10; ++i) {
      domain.retire(new Counted(), &counted_deleter);
    }
    EXPECT_EQ(domain.retired_count(), 10u);
  }
  domain.drain();
  EXPECT_EQ(g_deleted.load(), 10u);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(Ebr, NodesSurviveWhileAnyGuardIsPinnedToOldEpoch) {
  EbrDomain domain;
  g_deleted.store(0);

  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> release_reader{false};
  std::thread reader([&] {
    EbrDomain::Guard guard(domain);
    reader_pinned.store(true);
    while (!release_reader.load()) std::this_thread::yield();
  });
  while (!reader_pinned.load()) std::this_thread::yield();

  {
    EbrDomain::Guard guard(domain);
    domain.retire(new Counted(), &counted_deleter);
    // The pinned reader blocks epoch advancement, so repeated try_advance
    // must not free the node.
    for (int i = 0; i < 10; ++i) domain.try_advance();
    EXPECT_EQ(g_deleted.load(), 0u);
  }
  release_reader.store(true);
  reader.join();
  domain.drain();
  EXPECT_EQ(g_deleted.load(), 1u);
}

TEST(Ebr, EpochAdvancesWhenAllQuiescent) {
  EbrDomain domain;
  const std::uint64_t before = domain.epoch();
  {
    EbrDomain::Guard guard(domain);
    domain.retire(new Counted(), &counted_deleter);
  }
  domain.try_advance();
  domain.try_advance();
  EXPECT_GE(domain.epoch(), before + 2);
}

TEST(Ebr, GuardsAreReentrant) {
  EbrDomain domain;
  g_deleted.store(0);
  {
    EbrDomain::Guard outer(domain);
    {
      EbrDomain::Guard inner(domain);
      domain.retire(new Counted(), &counted_deleter);
    }
    // Still pinned by the outer guard — nothing freed even after advances.
    for (int i = 0; i < 6; ++i) domain.try_advance();
    EXPECT_EQ(g_deleted.load(), 0u);
  }
  domain.drain();
  EXPECT_EQ(g_deleted.load(), 1u);
}

TEST(Ebr, AutomaticAdvanceFreesEventually) {
  EbrDomain domain;
  g_deleted.store(0);
  const int total = 4 * EbrDomain::kRetireInterval + 8;
  for (int i = 0; i < total; ++i) {
    EbrDomain::Guard guard(domain);
    domain.retire(new Counted(), &counted_deleter);
  }
  // Retires exceeded several advance intervals with no concurrent pins, so
  // a strict majority of nodes must already be freed.
  EXPECT_GT(domain.freed_count(), 0u);
  domain.drain();
  EXPECT_EQ(g_deleted.load(), static_cast<std::uint64_t>(total));
}

TEST(Ebr, OrphansOfExitedThreadsAreAdopted) {
  EbrDomain domain;
  g_deleted.store(0);
  std::thread worker([&] {
    EbrDomain::Guard guard(domain);
    for (int i = 0; i < 5; ++i) domain.retire(new Counted(), &counted_deleter);
  });
  worker.join();  // thread exit hands its limbo lists to the orphan store
  domain.drain();
  EXPECT_EQ(g_deleted.load(), 5u);
}

TEST(Ebr, EpochAdvanceFreesOrphansWithoutDrain) {
  EbrDomain domain;
  g_deleted.store(0);
  std::thread worker([&] {
    EbrDomain::Guard guard(domain);
    for (int i = 0; i < 5; ++i) domain.retire(new Counted(), &counted_deleter);
  });
  worker.join();
  // The orphans keep the generation of their retirement epoch; the second
  // advance after it frees them, with no drain().
  for (int i = 0; i < 3; ++i) domain.try_advance();
  EXPECT_EQ(g_deleted.load(), 5u);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(Ebr, ExitedThreadSlotsAreRecycled) {
  // More threads than participant records, one after another: each exit
  // must give its record back (registration aborts when none is free).
  EbrDomain domain;
  g_deleted.store(0);
  const unsigned threads = EbrDomain::kMaxParticipants + 8;
  for (unsigned t = 0; t < threads; ++t) {
    std::thread([&] {
      EbrDomain::Guard guard(domain);
      domain.retire(new Counted(), &counted_deleter);
    }).join();
  }
  domain.drain();
  EXPECT_EQ(g_deleted.load(), threads);
}

TEST(Ebr, UnpinnedRetiresKeepLimboBounded) {
  // With no other reader pinned, the advance every kRetireInterval retires
  // frees the generation two epochs back, so the limbo lists never hold
  // more than a few intervals' worth and no drain() is needed to reclaim.
  EbrDomain domain;
  g_deleted.store(0);
  const unsigned total = 20 * EbrDomain::kRetireInterval;
  for (unsigned i = 0; i < total; ++i) {
    EbrDomain::Guard guard(domain);
    domain.retire(new Counted(), &counted_deleter);
    ASSERT_LE(domain.retired_count(), 3 * EbrDomain::kRetireInterval) << i;
  }
  EXPECT_GE(g_deleted.load(), total - 3 * EbrDomain::kRetireInterval);
  domain.drain();
  EXPECT_EQ(g_deleted.load(), total);
}

// Retire a node under `guard`'s pin and try to advance the domain a few
// times: a pinned participant holds the epoch, so the node must survive.
::testing::AssertionResult pinned_node_survives(EbrDomain& domain) {
  const std::uint64_t before = g_deleted.load();
  domain.retire(new Counted(), &counted_deleter);
  for (int i = 0; i < 4; ++i) domain.try_advance();
  if (g_deleted.load() != before) {
    return ::testing::AssertionFailure()
           << "a node retired under a guard was freed: the guard pinned a "
              "participant the domain does not scan";
  }
  return ::testing::AssertionSuccess();
}

TEST(EbrCache, GuardsOnTwoDomainsPinEachDomainsOwnParticipant) {
  EbrDomain a;
  EbrDomain b;
  g_deleted.store(0);
  {
    EbrDomain::Guard outer(a);
    {
      EbrDomain::Guard inner(b);
      EXPECT_TRUE(pinned_node_survives(a));
      EXPECT_TRUE(pinned_node_survives(b));
    }
    // b's guard is gone: b advances and frees its node; a is still pinned.
    for (int i = 0; i < 4; ++i) b.try_advance();
    EXPECT_EQ(g_deleted.load(), 1u);
    EXPECT_TRUE(pinned_node_survives(a));
  }
  for (int i = 0; i < 4; ++i) a.try_advance();
  EXPECT_EQ(g_deleted.load(), 3u);
}

TEST(EbrCache, DomainRebuiltAtTheSameAddressGetsItsOwnParticipant) {
  // The thread's cached participant points into the first domain's slots;
  // the second domain sits at the same address, so only the instance id
  // tells the cached entry apart from a fresh registration.
  constexpr std::align_val_t align{alignof(EbrDomain)};
  void* storage = ::operator new(sizeof(EbrDomain), align);
  auto* first = new (storage) EbrDomain();
  { EbrDomain::Guard guard(*first); }
  first->~EbrDomain();
  auto* second = new (storage) EbrDomain();
  g_deleted.store(0);
  {
    EbrDomain::Guard guard(*second);
    EXPECT_TRUE(pinned_node_survives(*second));
  }
  second->drain();
  EXPECT_EQ(g_deleted.load(), 1u);
  second->~EbrDomain();
  ::operator delete(storage, align);
}

// A thread_local built before the thread's first guard is destroyed after
// the thread released its participants, so a guard in its destructor finds
// the cache cleared: it must abort rather than pin the released slot, which
// another thread may own by then.
struct GuardAtThreadExit {
  EbrDomain* domain = nullptr;
  ~GuardAtThreadExit() {
    if (domain != nullptr) EbrDomain::Guard guard(*domain);
  }
};

TEST(EbrCacheDeathTest, ThreadExitClearsTheCachedParticipant) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EbrDomain domain;
        std::thread([&domain] {
          thread_local GuardAtThreadExit late;
          late.domain = &domain;
          EbrDomain::Guard guard(domain);
        }).join();
      },
      "participants were released");
}

// Readers traverse a published pointer while writers retire the previous
// value; with EBR this must never touch freed memory (checked indirectly: a
// poisoned payload would trip the EXPECT below, and ASAN/TSAN builds catch
// it directly).
TEST(EbrStress, PublishRetireReadStress) {
  EbrDomain domain;
  g_deleted.store(0);
  std::atomic<Counted*> published{new Counted()};
  published.load()->payload.store(1, std::memory_order_relaxed);
  std::atomic<bool> stop{false};
  constexpr std::uint64_t kWriters = 2;
  constexpr std::uint64_t kUpdates = 4000;

  std::vector<std::thread> team;
  for (unsigned w = 0; w < kWriters; ++w) {
    team.emplace_back([&] {
      for (std::uint64_t i = 0; i < kUpdates; ++i) {
        Counted* fresh = new Counted();
        fresh->payload.store(1, std::memory_order_relaxed);
        EbrDomain::Guard guard(domain);
        Counted* old = published.exchange(fresh);
        // Still dereferenceable: the grace period protects it.
        old->payload.store(1, std::memory_order_relaxed);
        domain.retire(old, &counted_deleter);
      }
    });
  }
  for (unsigned r = 0; r < 2; ++r) {
    team.emplace_back([&] {
      std::uint64_t sum = 0;
      // do-while: on a single-core host the writers can finish before this
      // thread first runs, so guarantee at least one read.
      do {
        EbrDomain::Guard guard(domain);
        Counted* current = published.load(std::memory_order_acquire);
        sum += current->payload.load(std::memory_order_relaxed);
        EXPECT_EQ(current->payload.load(std::memory_order_relaxed), 1u);
      } while (!stop.load(std::memory_order_relaxed));
      EXPECT_GT(sum, 0u);
    });
  }
  for (unsigned w = 0; w < kWriters; ++w) team[w].join();
  stop.store(true);
  for (std::size_t i = kWriters; i < team.size(); ++i) team[i].join();

  delete published.load();  // the last published node, counted too
  domain.drain();
  EXPECT_EQ(g_deleted.load(), kWriters * kUpdates + 1);
}

}  // namespace
}  // namespace cpq::mm
