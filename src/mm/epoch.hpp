// Epoch-based memory reclamation (EBR) for the lock-free queues.
//
// Lock-free skiplists (Lindén–Jonsson, Fraser/SprayList) and the SLSM's
// versioned block arrays unlink nodes that racing readers may still be
// traversing. EBR is the classic solution (Fraser 2004): readers enter an
// epoch-protected critical section before touching shared nodes; writers
// retire unlinked nodes into per-thread limbo lists tagged with the epoch of
// retirement, and a node is physically freed only after the global epoch has
// advanced twice past its retirement epoch — at which point every reader
// that could have held a reference has left its critical section.
//
// Three limbo generations suffice: a node retired in epoch e is freed when
// the global epoch reaches e+2, because advancing from e to e+1 requires all
// active readers to have observed e (so none is still inside a section that
// started before the unlink).
//
// The domain is a process-wide singleton; participant records are
// registered on a thread's first use of a domain and recycled through a
// freelist when the thread exits. Orphaned limbo nodes of exited threads are
// adopted by the next epoch advance.
//
// A Guard enters and leaves inline. Each thread caches the participant of
// the domain it last used, keyed by the domain's address and instance id (a
// domain destroyed and rebuilt at the same address gets a new id), so a pin
// is a compare, the nesting count and the epoch publish-and-recheck; only a
// cache miss looks the participant up (or registers one) out of line. The
// cache is cleared when the thread's participants are released at its exit,
// and a Guard taken after that aborts instead of pinning a released slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/cache.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::mm {

// A retired pointer plus its type-erased deleter.
struct RetiredNode {
  void* ptr;
  void (*deleter)(void*);
};

class EbrDomain {
  struct Participant;

 public:
  // The process-wide domain shared by all queues.
  static EbrDomain& global();

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // RAII critical-section pin. Re-entrant: nested guards on the same thread
  // share one pin. A guard keeps the participant it pinned, so guards on
  // two domains may nest in either order.
  class Guard {
   public:
    explicit Guard(EbrDomain& domain = EbrDomain::global());
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Participant* const participant_;
  };

  // Retire a node for deferred deletion. Must be called while holding a
  // Guard (the node must already be unreachable for new readers).
  void retire(void* ptr, void (*deleter)(void*));

  // Attempt to advance the global epoch and free one limbo generation.
  // Called automatically every kRetireInterval retires; public for tests
  // and for draining at known-quiescent points.
  void try_advance();

  // Free everything currently retired. Only safe when no thread holds a
  // Guard (e.g. after a benchmark team has joined). Used by destructors of
  // queues that own their nodes and by tests.
  void drain();

  // Observability (tests, leak diagnostics).
  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }
  std::size_t retired_count() const noexcept {
    return retired_count_.load(std::memory_order_acquire);
  }
  std::uint64_t freed_count() const noexcept {
    return freed_count_.load(std::memory_order_acquire);
  }

  static constexpr unsigned kMaxParticipants = 512;
  static constexpr unsigned kRetireInterval = 64;

 private:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  struct alignas(kCacheLineSize) Participant {
    // Epoch observed at pin time, or kQuiescent when not in a section.
    std::atomic<std::uint64_t> local_epoch{kQuiescent};
    // True once some thread owns (or owned) this slot.
    std::atomic<bool> registered{false};
    // Nesting depth of guards; accessed only by the owning thread.
    unsigned nesting = 0;
    // Limbo lists, indexed by epoch % 3; owner-thread access only, except
    // adoption after the owner exited (protected by orphan_lock_).
    std::vector<RetiredNode> limbo[3];
    unsigned retires_since_advance = 0;
  };

  // The calling thread's participant of the domain it last used (all null
  // until it uses one).
  struct ThreadCache {
    const EbrDomain* domain;
    std::uint64_t instance_id;
    Participant* participant;
  };
  static inline thread_local ThreadCache cache_{};

  // This thread's participant: the cached one, else lookup().
  Participant* participant() {
    const ThreadCache& cache = cache_;
    if (cache.domain == this && cache.instance_id == instance_id_) {
      return cache.participant;
    }
    return lookup();
  }

  // Find this thread's participant (registering one on first use) and cache
  // it. Aborts once the thread's participants have been released at exit.
  Participant* lookup();

  // Publish the observed epoch, then re-check: the store must be globally
  // visible before we read any shared pointers, and the published value
  // must equal the current epoch (otherwise a concurrent advance could
  // already have freed the generation we are about to read).
  void pin(Participant& p) {
    std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    for (;;) {
      p.local_epoch.store(e, std::memory_order_seq_cst);
      // Fault injection: stall between publishing and re-checking the
      // epoch, the window the store/re-load protocol exists to close.
      CPQ_INJECT("ebr.enter");
      const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
    }
  }

  void free_generation(std::vector<RetiredNode>& generation);

  // Unique per domain instance across the whole process lifetime, so that a
  // thread's cached (domain -> participant) mapping can never be satisfied
  // by a different domain later constructed at the same address.
  const std::uint64_t instance_id_;

  Participant participants_[kMaxParticipants];
  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::size_t> retired_count_{0};
  std::atomic<std::uint64_t> freed_count_{0};

  // Limbo lists inherited from exited threads, merged on thread exit and
  // emptied on epoch advance. Guarded by orphan_lock_.
  std::atomic_flag orphan_lock_ = ATOMIC_FLAG_INIT;
  std::vector<RetiredNode> orphans_[3];

  friend struct EbrThreadSlot;
};

inline EbrDomain::Guard::Guard(EbrDomain& domain)
    : participant_(domain.participant()) {
  if (participant_->nesting++ == 0) domain.pin(*participant_);
}

inline EbrDomain::Guard::~Guard() {
  if (--participant_->nesting == 0) {
    participant_->local_epoch.store(kQuiescent, std::memory_order_release);
  }
}

}  // namespace cpq::mm
