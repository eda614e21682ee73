#include "mm/epoch.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::mm {

namespace {

// Registry of live domains so that thread-exit cleanup never touches a
// destroyed domain (relevant only for test-local domains; the global domain
// lives for the whole process).
std::mutex& live_domains_mutex() {
  static std::mutex m;
  return m;
}

// Live domains keyed by address, valued by instance id: the id check
// protects against address reuse after destruction.
std::unordered_map<EbrDomain*, std::uint64_t>& live_domains() {
  static std::unordered_map<EbrDomain*, std::uint64_t> s;
  return s;
}

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Tiny scoped lock over std::atomic_flag (we avoid std::mutex on the retire
// fast path; the orphan lock is cold).
class FlagLock {
 public:
  explicit FlagLock(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) cpu_relax();
  }
  ~FlagLock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& flag_;
};

[[noreturn]] void fail(const char* why) {
  std::fprintf(stderr, "cpq::mm::EbrDomain: %s\n", why);
  std::abort();
}

}  // namespace

// Every (domain -> participant) mapping of this thread, released at thread
// exit. EbrDomain::cache_ holds the most recently used one.
struct EbrThreadSlot {
  struct Entry {
    EbrDomain* domain;
    std::uint64_t instance_id;
    EbrDomain::Participant* participant;
  };
  std::vector<Entry> slots;

  EbrDomain::Participant* find(EbrDomain* domain,
                               std::uint64_t instance_id) const noexcept {
    for (const auto& entry : slots) {
      if (entry.domain == domain && entry.instance_id == instance_id) {
        return entry.participant;
      }
    }
    return nullptr;
  }

  ~EbrThreadSlot();
};

namespace {
thread_local EbrThreadSlot tls_slot;
// Set once this thread's participants are released: a later Guard (from a
// thread_local destructor that runs after tls_slot's) has nothing to pin.
thread_local bool tls_released = false;
}  // namespace

EbrThreadSlot::~EbrThreadSlot() {
  {
    std::lock_guard<std::mutex> lock(live_domains_mutex());
    for (auto& [domain, instance_id, participant] : slots) {
      const auto it = live_domains().find(domain);
      if (it == live_domains().end() || it->second != instance_id) continue;
      // Hand limbo lists to the domain's orphan store and release the slot.
      {
        FlagLock olock(domain->orphan_lock_);
        for (int g = 0; g < 3; ++g) {
          auto& limbo = participant->limbo[g];
          auto& orphans = domain->orphans_[g];
          orphans.insert(orphans.end(), limbo.begin(), limbo.end());
          limbo.clear();
        }
      }
      participant->nesting = 0;
      participant->retires_since_advance = 0;
      participant->local_epoch.store(EbrDomain::kQuiescent,
                                     std::memory_order_release);
      participant->registered.store(false, std::memory_order_release);
    }
  }
  EbrDomain::cache_ = {};
  tls_released = true;
}

EbrDomain& EbrDomain::global() {
  static EbrDomain domain;
  return domain;
}

EbrDomain::EbrDomain() : instance_id_(next_instance_id()) {
  std::lock_guard<std::mutex> lock(live_domains_mutex());
  live_domains()[this] = instance_id_;
}

EbrDomain::~EbrDomain() {
  {
    std::lock_guard<std::mutex> lock(live_domains_mutex());
    live_domains().erase(this);
  }
  // Free everything still pending. Callers must have quiesced all threads
  // that used this domain.
  for (auto& participant : participants_) {
    for (auto& generation : participant.limbo) free_generation(generation);
  }
  for (auto& generation : orphans_) free_generation(generation);
}

EbrDomain::Participant* EbrDomain::lookup() {
  if (tls_released) {
    fail("guard after this thread's participants were released");
  }
  Participant* found = tls_slot.find(this, instance_id_);
  for (unsigned i = 0; found == nullptr && i < kMaxParticipants; ++i) {
    Participant& candidate = participants_[i];
    bool expected = false;
    if (!candidate.registered.load(std::memory_order_relaxed) &&
        candidate.registered.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      tls_slot.slots.push_back({this, instance_id_, &candidate});
      found = &candidate;
    }
  }
  if (found == nullptr) fail("participant slots exhausted");
  cache_ = {this, instance_id_, found};
  return found;
}

void EbrDomain::retire(void* ptr, void (*deleter)(void*)) {
  Participant* p = participant();
  assert(p->nesting > 0 && "retire requires an active Guard");
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  // Fault injection: delay filing into limbo while other threads advance.
  CPQ_INJECT("ebr.retire");
  CPQ_COUNT(kEbrRetire);
  p->limbo[e % 3].push_back(RetiredNode{ptr, deleter});
  retired_count_.fetch_add(1, std::memory_order_relaxed);
  if (++p->retires_since_advance >= kRetireInterval) {
    p->retires_since_advance = 0;
    try_advance();
  }
}

void EbrDomain::try_advance() {
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  bool all_observed = true;
  for (const auto& participant : participants_) {
    if (!participant.registered.load(std::memory_order_acquire)) continue;
    const std::uint64_t le =
        participant.local_epoch.load(std::memory_order_acquire);
    if (le != kQuiescent && le != e) {
      all_observed = false;
      break;
    }
  }
  std::uint64_t current = e;
  if (all_observed) {
    // Fault injection: widen the scan-to-CAS window so a racing entrant can
    // publish an older epoch after our scan declared everyone caught up.
    CPQ_INJECT("ebr.advance");
    if (global_epoch_.compare_exchange_strong(current, e + 1,
                                              std::memory_order_acq_rel)) {
      CPQ_COUNT(kEbrAdvance);
      current = e + 1;
      // The advancing thread also drains the now-safe orphan generation.
      std::vector<RetiredNode> adopted;
      {
        FlagLock olock(orphan_lock_);
        adopted.swap(orphans_[(current + 1) % 3]);
      }
      free_generation(adopted);
    }
  }
  // Free this thread's own limbo generation that is at least two epochs old
  // (slot (current+1) % 3 can only hold nodes retired at epoch <= current-2).
  free_generation(participant()->limbo[(current + 1) % 3]);
}

void EbrDomain::drain() {
#ifndef NDEBUG
  for (const auto& participant : participants_) {
    if (participant.registered.load(std::memory_order_acquire)) {
      assert(participant.local_epoch.load(std::memory_order_acquire) ==
                 kQuiescent &&
             "drain requires all participants quiescent");
    }
  }
#endif
  for (auto& participant : participants_) {
    for (auto& generation : participant.limbo) free_generation(generation);
  }
  FlagLock olock(orphan_lock_);
  for (auto& generation : orphans_) free_generation(generation);
}

void EbrDomain::free_generation(std::vector<RetiredNode>& generation) {
  if (generation.empty()) return;
  for (const RetiredNode& node : generation) {
    node.deleter(node.ptr);
  }
  CPQ_COUNT_N(kEbrFree, generation.size());
  freed_count_.fetch_add(generation.size(), std::memory_order_relaxed);
  retired_count_.fetch_sub(generation.size(), std::memory_order_relaxed);
  generation.clear();
}

}  // namespace cpq::mm
