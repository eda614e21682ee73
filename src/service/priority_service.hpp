// PriorityService: a sharded, batched task-dispatch engine over any roster
// queue (src/queues/queue_traits.hpp concept).
//
// The paper's central observation is that workload shape — not raw
// throughput — decides which queue wins; a service front-end is where that
// shape is actually controlled. This layer applies the two levers the
// follow-up literature identifies as decisive: insertion/deletion buffering
// ("Engineering MultiQueues", Williams & Sanders; the k-LSM's thread-local
// DLSM blocks) and sharded two-choice routing. It wraps S independent
// instances of an arbitrary queue and gives every client thread a Handle
// with:
//
//   * an insertion buffer: submissions accumulate thread-locally and are
//     flushed to one shard as a batch (amortizing the shard's
//     synchronization over `insert_batch` tasks). The target shard is the
//     less loaded of two uniformly random choices, which keeps shard sizes
//     balanced within O(log log S) whp. A configurable flush deadline bounds
//     how long a task may sit unpublished in a buffer.
//   * a deletion buffer: pops refill thread-locally in batches of
//     `delete_batch` from the shard whose last observed minimum is smaller
//     (two-choice routing on pop); when the favoured shard is empty the
//     handle *steals* from the other choice, and as a last resort sweeps
//     every shard so that emptiness reports are trustworthy.
//   * admission control: a global in-flight bound with reject, block
//     (backpressure), or tiered policy, plus graceful close() + drain()
//     shutdown.
//
// Overload resilience (see service/resilience.hpp for the building blocks):
//
//   * deadline shedding: with ttl_us configured (or try_submit_for), tasks
//     carry an absolute expiry; expired tasks are dropped at pop time,
//     counted, and reported to an optional shed sink instead of delivered.
//     Deadlines ride in a DeadlinePool slot whose index replaces the queue
//     value (top bit tagged), so the inner queue's value type is unchanged —
//     this requires unsigned 64-bit values below 2^63.
//   * tiered admission (AdmissionPolicy::kTiered): the key space is split
//     into priority tiers and low-priority tiers are rejected first as the
//     in-flight window fills, instead of the binary full/not-full cliff.
//   * bounded retry: submit_with_retry retries rejected submissions with
//     exponential backoff up to retry_limit times.
//   * per-shard circuit breaker: flush/refill batches that repeatedly exceed
//     breaker_trip_us take the shard out of preferred routing for a cooldown
//     (re-routes are counted); a half-open probe admits it back. The breaker
//     only steers the two-choice routing — the emptiness sweep still visits
//     every shard, so delete_min's false and drain() stay trustworthy.
//
// Ordering contract: the service inherits the relaxation of its shard queue
// and adds its own — buffered tasks are invisible to other threads until
// flushed, and prefetched tasks are delivered in batch order. Rank error
// therefore grows with insert_batch * shards + delete_batch (measured by
// `cpq_bench_cli --mode=service`). Conservation (exactly-once delivery) is NOT
// relaxed: every accepted task is delivered exactly once, recovered by
// drain(), or (with deadlines enabled) shed exactly once through the shed
// sink; handles flush their insertion buffer and spill unconsumed prefetched
// tasks back to a shard on destruction. tests/torture_test.cpp audits this
// through CheckedQueue under fault injection for every roster queue.
//
// Counters: per-shard (enqueued, dequeued, flushes, refills, steals, shed,
// breaker trips, batch fill) and service-wide (submitted, rejected, tier
// rejections, retries, re-routes, shed, deadline flushes), readable via
// stats() and dumpable through dump_stats() — which the open-loop bench
// installs as the watchdog's diagnostics callback, so a livelocked service
// run dies with a per-shard picture of where tasks piled up.
//
// Fault-injection seams: CPQ_INJECT("service/submit") and
// CPQ_INJECT("service/delete_min") sit at the public entry points, before
// any service state changes, so kThrow there never loses an accepted task
// and never escapes a destructor (~Handle reaches flush/spill directly,
// not through these seams).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/backoff.hpp"
#include "platform/cache.hpp"
#include "platform/rng.hpp"
#include "service/resilience.hpp"
#include "validation/fault_injection.hpp"

namespace cpq::service {

enum class AdmissionPolicy : std::uint8_t {
  kBlock,   // submitters wait (backpressure) until in-flight drops
  kReject,  // try_submit returns false immediately when full
  kTiered,  // low-priority tiers rejected first as the window fills
};

struct ServiceConfig {
  // Shard count; 0 means one shard per client thread (at least one).
  unsigned shards = 0;
  // Insertion-buffer capacity per handle; 1 disables insert batching.
  std::size_t insert_batch = 8;
  // Deletion-buffer refill size per handle; 1 disables pop batching.
  std::size_t delete_batch = 8;
  // Flush the insertion buffer on the next submit once its oldest task has
  // been buffered for this long; 0 disables deadline-based flushing.
  std::uint64_t flush_deadline_us = 0;
  // Admission bound on accepted-but-undelivered tasks; 0 = unbounded.
  std::size_t max_in_flight = 0;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  std::uint64_t seed = 1;

  // ---- overload resilience ----
  // Default time-to-live applied to every submission; 0 disables deadline
  // shedding (per-task deadlines via try_submit_for still work if
  // deadline_slots > 0). Requires unsigned 64-bit values < 2^63.
  std::uint64_t ttl_us = 0;
  // DeadlinePool capacity; 0 derives it from max_in_flight (or 64k).
  std::size_t deadline_slots = 0;
  // Tier count for AdmissionPolicy::kTiered when tier_boundaries is empty:
  // the key space [0, tier_key_space) is split uniformly. 0 means 4.
  unsigned tiers = 0;
  std::uint64_t tier_key_space = std::uint64_t{1} << 32;
  // Explicit ascending tier upper bounds (overrides uniform splitting).
  std::vector<std::uint64_t> tier_boundaries;
  // submit_with_retry: extra attempts after the first rejection, backing off
  // exponentially from retry_base_us.
  unsigned retry_limit = 3;
  std::uint64_t retry_base_us = 50;
  // Circuit breaker: trip after breaker_consecutive flush/refill batches of
  // >= breaker_trip_us against one shard; re-admit after breaker_cooldown_us
  // via a half-open probe. 0 disables the breaker.
  std::uint64_t breaker_trip_us = 0;
  unsigned breaker_consecutive = 2;
  std::uint64_t breaker_cooldown_us = 5000;
};

struct ShardStats {
  std::uint64_t enqueued = 0;   // tasks flushed into the shard
  std::uint64_t dequeued = 0;   // tasks popped out of the shard
  std::uint64_t flushes = 0;    // insertion-buffer flushes landing here
  std::uint64_t refills = 0;    // deletion-buffer refills served here
  std::uint64_t steals = 0;     // refills served when not the routed choice
  std::uint64_t breaker_trips = 0;  // circuit-breaker trips on this shard
  bool breaker_open = false;        // breaker currently not Closed (racy)
  std::size_t approx_size = 0;  // load estimate (racy)
};

struct ServiceStats {
  std::uint64_t submitted = 0;         // accepted tasks
  std::uint64_t rejected = 0;          // admission rejections (all causes)
  std::uint64_t tier_rejected = 0;     // rejections from the tier gate only
  std::uint64_t delivered = 0;         // tasks handed to consumers
  std::uint64_t shed_deadline = 0;     // tasks dropped past their deadline
  std::uint64_t retries = 0;           // submit_with_retry re-attempts
  std::uint64_t retry_exhausted = 0;   // submissions dropped after retries
  std::uint64_t reroutes = 0;          // batches steered off an open breaker
  std::uint64_t breaker_trips = 0;     // circuit-breaker trips (all shards)
  std::uint64_t pool_exhausted = 0;    // deadline slots unavailable
  std::uint64_t deadline_flushes = 0;  // flushes forced by the deadline
  std::uint64_t flushes = 0;           // all insertion-buffer flushes
  std::uint64_t refills = 0;           // all deletion-buffer refills
  std::uint64_t steals = 0;            // all stolen refills
  double mean_insert_fill = 0.0;       // tasks per flush
  double mean_delete_fill = 0.0;       // tasks per refill
  std::vector<ShardStats> shards;
};

template <typename Q>
class PriorityService {
 public:
  using key_type = typename Q::key_type;
  using value_type = typename Q::value_type;
  using InnerHandle = decltype(std::declval<Q&>().get_handle(0u));
  using ShedSink = std::function<void(key_type, value_type)>;

  // Deadline envelopes replace the queue value with a tagged DeadlinePool
  // slot index; only unsigned 64-bit value types have the spare top bit.
  static constexpr bool kDeadlineCapable =
      std::is_integral_v<value_type> && std::is_unsigned_v<value_type> &&
      sizeof(value_type) == 8;

  // `make_shard(shard_index)` constructs one shard queue; every shard must
  // accept get_handle(tid) for tid in [0, max_threads).
  template <typename ShardFactory>
  PriorityService(unsigned max_threads, const ServiceConfig& config,
                  ShardFactory&& make_shard)
      : config_(sanitize(config, max_threads)),
        shards_(config_.shards) {
    for (unsigned s = 0; s < config_.shards; ++s) {
      shards_[s].value.queue = make_shard(s);
      shards_[s].value.breaker.configure(config_.breaker_trip_us,
                                         config_.breaker_consecutive,
                                         config_.breaker_cooldown_us);
    }
    if constexpr (kDeadlineCapable) {
      if (config_.ttl_us > 0 || config_.deadline_slots > 0) {
        std::size_t slots = config_.deadline_slots;
        if (slots == 0) {
          slots = config_.max_in_flight > 0 ? config_.max_in_flight
                                            : std::size_t{1} << 16;
        }
        pool_ = std::make_unique<DeadlinePool<value_type>>(slots);
      }
    }
    if (config_.policy == AdmissionPolicy::kTiered) {
      if (!config_.tier_boundaries.empty()) {
        tier_map_.boundaries = config_.tier_boundaries;
      } else {
        tier_map_ = TierMap::uniform(config_.tiers == 0 ? 4 : config_.tiers,
                                     config_.tier_key_space);
      }
    }
  }

  class Handle {
   public:
    Handle(Handle&&) = default;
    Handle& operator=(Handle&&) = delete;

    // Queue-concept insert: never drops an accepted task. Blocks for a slot
    // regardless of the configured policy (use try_submit for kReject
    // semantics); the only way it can fail is a close()d service — close()
    // deliberately wakes submitters parked on the in-flight bound so
    // shutdown cannot deadlock behind a full admission window. The bool
    // return reports acceptance for callers that track conservation; plain
    // queue-concept users may ignore it.
    bool insert(key_type key, value_type value) {
      return submit(key, value, true, config().ttl_us);
    }

    // Policy-honouring submission. Returns false (and counts a rejection)
    // when the service is closed, or when the in-flight bound (or, under
    // kTiered, the key's tier allowance) is hit.
    bool try_submit(key_type key, value_type value) {
      return submit(key, value, config().policy == AdmissionPolicy::kBlock,
                    config().ttl_us);
    }

    // try_submit with an explicit time-to-live (microseconds; 0 = no
    // deadline) overriding the configured default.
    bool try_submit_for(key_type key, value_type value,
                        std::uint64_t ttl_us) {
      return submit(key, value, config().policy == AdmissionPolicy::kBlock,
                    ttl_us);
    }

    // Bounded retry for rejected submissions: up to retry_limit extra
    // attempts with exponential backoff from retry_base_us. Returns false
    // once the budget is exhausted or the service closes.
    bool submit_with_retry(key_type key, value_type value) {
      if (try_submit(key, value)) return true;
      for (unsigned attempt = 0; attempt < config().retry_limit; ++attempt) {
        if (service_->closed()) return false;
        CPQ_COUNT(kServiceRetry);
        service_->retries_.fetch_add(1, std::memory_order_relaxed);
        const unsigned shift = attempt < 20 ? attempt : 20;
        std::this_thread::sleep_for(
            std::chrono::microseconds(config().retry_base_us << shift));
        if (try_submit(key, value)) return true;
      }
      service_->retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }

    bool delete_min(key_type& key_out, value_type& value_out) {
      CPQ_INJECT("service/delete_min");
      return pop_task(key_out, value_out, /*count_delivery=*/true);
    }

   private:
    // Shared pop path. The shutdown drain() sets count_delivery=false:
    // recovered tasks are reported as `drained`, never as `delivered`, so
    // the two stats can be added without double counting.
    //
    // A false return usually means every shard reported empty just now —
    // but under a full-expiry storm (every queued task dead on arrival,
    // producers still feeding) an unbounded "retry until something
    // survives" here would trap the caller inside delete_min and starve
    // its heartbeat. So shed-only refill rounds are capped: after
    // kMaxShedRounds the call gives up with false and last_pop_shed()
    // reports how many tasks it shed, letting callers (drain, reconcile,
    // poll loops) tell "empty" from "busy shedding".
    bool pop_task(key_type& key_out, value_type& value_out,
                  bool count_delivery) {
      shed_in_pop_ = 0;
      unsigned shed_rounds = 0;
      for (;;) {
        if (dpos_ == dbuf_.size()) {
          refill();
          if (dpos_ == dbuf_.size() && !ibuf_.empty()) {
            // Everything left may be sitting in our own insertion buffer
            // (the hold-model shape: pop depends on a task we just
            // submitted).
            flush(false);
            refill();
          }
          if (dpos_ == dbuf_.size()) {
            // An all-expired sweep is progress, not emptiness: retry a
            // bounded number of rounds before reporting no-task.
            if (shed_in_refill_ != 0 && ++shed_rounds < kMaxShedRounds) {
              continue;
            }
            return false;
          }
        }
        const Task task = dbuf_[dpos_];
        ++dpos_;
        // Deadline re-check at hand-off: the task may have expired while
        // parked in the deletion buffer.
        if (task.deadline_us != 0 && steady_now_us() > task.deadline_us) {
          service_->shed_task(task.key, task.value);
          ++shed_in_pop_;
          // A deletion buffer consumed entirely by hand-off sheds counts
          // toward the round cap as well — otherwise a dead-on-arrival feed
          // could trap the caller in here indefinitely.
          if (dpos_ == dbuf_.size() && ++shed_rounds >= kMaxShedRounds) {
            return false;
          }
          continue;
        }
        key_out = task.key;
        value_out = task.value;
        if (count_delivery) {
          service_->delivered_.fetch_add(1, std::memory_order_relaxed);
        }
        service_->release_slot();
        return true;
      }
    }

   public:
    // Publish every buffered submission now (deadline/batch independent).
    void flush() { flush(false); }

    std::size_t buffered_inserts() const noexcept { return ibuf_.size(); }
    std::size_t buffered_deletes() const noexcept {
      return dbuf_.size() - dpos_;
    }
    // Tasks shed during the most recent delete_min call on this handle.
    // A false delete_min with last_pop_shed() > 0 means "busy shedding an
    // expired backlog", not "empty" — poll again instead of concluding the
    // service has drained.
    std::size_t last_pop_shed() const noexcept { return shed_in_pop_; }

    ~Handle() {
      if (service_ == nullptr) return;  // moved from
      flush(false);
      // Spill prefetched-but-unconsumed tasks back into a shard so they stay
      // deliverable (their in-flight slots are still held, correctly).
      while (dpos_ < dbuf_.size()) {
        const std::size_t s = rng_.next_below(service_->shards_.size());
        const Task& task = dbuf_[dpos_];
        service_->shards_[s].value.push(inner_[s], task.key,
                                        service_->encode(task));
        ++dpos_;
      }
    }

   private:
    friend class PriorityService;

    // A buffered task: deadline_us is the absolute steady-clock expiry
    // (steady_now_us() domain), 0 when the task has no deadline.
    struct Task {
      key_type key;
      value_type value;
      std::uint64_t deadline_us;
    };

    Handle(PriorityService& service, unsigned thread_id)
        : service_(&service),
          rng_(thread_seed(service.config_.seed ^ 0x5e11ce, thread_id)) {
      inner_.reserve(service.shards_.size());
      for (auto& shard : service.shards_) {
        inner_.push_back(shard.value.queue->get_handle(thread_id));
      }
      ibuf_.reserve(service.config_.insert_batch);
      dbuf_.reserve(service.config_.delete_batch);
    }

    const ServiceConfig& config() const noexcept { return service_->config_; }

    bool submit(key_type key, value_type value, bool block,
                std::uint64_t ttl_us) {
      CPQ_INJECT("service/submit");
      unsigned tier = 0;
      if (!block && config().policy == AdmissionPolicy::kTiered &&
          config().max_in_flight > 0) {
        tier = service_->tier_map_.tier_of(static_cast<std::uint64_t>(key));
      }
      bool tier_limited = false;
      if (!service_->acquire_slot(block, tier, tier_limited)) {
        CPQ_COUNT(kServiceReject);
        service_->rejected_.fetch_add(1, std::memory_order_relaxed);
        if (tier_limited) {
          CPQ_COUNT(kServiceTierReject);
          service_->tier_rejected_.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      service_->submitted_.fetch_add(1, std::memory_order_relaxed);
      if (ibuf_.empty()) ibuf_oldest_ = std::chrono::steady_clock::now();
      const std::uint64_t deadline =
          ttl_us != 0 ? steady_now_us() + ttl_us : 0;
      ibuf_.push_back(Task{key, value, deadline});
      if (ibuf_.size() >= config().insert_batch) {
        flush(false);
      } else if (config().flush_deadline_us != 0 && deadline_expired()) {
        flush(true);
      }
      return true;
    }

    bool deadline_expired() const {
      const auto age = std::chrono::steady_clock::now() - ibuf_oldest_;
      return std::chrono::duration_cast<std::chrono::microseconds>(age)
                 .count() >=
             static_cast<std::int64_t>(config().flush_deadline_us);
    }

    void flush(bool deadline) {
      if (ibuf_.empty()) return;
      auto& shards = service_->shards_;
      const std::size_t n = shards.size();
      // Two-choice load balancing: flush into the smaller of two shards.
      std::size_t a = rng_.next_below(n);
      const std::size_t b = rng_.next_below(n);
      if (shards[b].value.size.load(std::memory_order_relaxed) <
          shards[a].value.size.load(std::memory_order_relaxed)) {
        a = b;
      }
      if (service_->breaker_active_) {
        a = service_->reroute_if_open(a, b == a ? kNpos : b, rng_);
      }
      auto& shard = shards[a].value;
      // t0 before the chaos pause: an injected stall must look like a slow
      // batch to note_batch, or the breaker could never detect it.
      const std::uint64_t t0 = steady_now_us();
      shard.chaos_pause();
      for (const Task& task : ibuf_) {
        shard.push(inner_[a], task.key, service_->encode(task));
      }
      service_->note_batch(shard, t0);
      CPQ_COUNT(kServiceFlush);
      shard.flushes.fetch_add(1, std::memory_order_relaxed);
      shard.flush_fill.fetch_add(ibuf_.size(), std::memory_order_relaxed);
      if (deadline) {
        CPQ_COUNT(kServiceDeadlineFlush);
        service_->deadline_flushes_.fetch_add(1, std::memory_order_relaxed);
      }
      ibuf_.clear();
    }

    // Pull up to delete_batch tasks from the two-choice-routed shard, with
    // steal fallback and a full sweep before reporting emptiness. One
    // round; shed_in_refill_ tells the caller whether an empty-handed
    // round actually popped (and shed) expired tasks.
    void refill() {
      dbuf_.clear();
      dpos_ = 0;
      shed_in_refill_ = 0;
      auto& shards = service_->shards_;
      const std::size_t n = shards.size();
      const std::size_t i = rng_.next_below(n);
      std::size_t j = rng_.next_below(n);
      // Route to the shard advertising the smaller minimum (pop side of
      // the two-choice rule); unknown minima (kNoHint) lose against known
      // ones.
      const key_type hint_i =
          shards[i].value.min_hint.load(std::memory_order_acquire);
      const key_type hint_j =
          shards[j].value.min_hint.load(std::memory_order_acquire);
      std::size_t first = (hint_j < hint_i) ? j : i;
      std::size_t second = (first == i) ? j : i;
      if (service_->breaker_active_ && second != first) {
        const std::uint64_t now = steady_now_us();
        if (!shards[first].value.breaker.allow(now) &&
            shards[second].value.breaker.allow(now)) {
          std::swap(first, second);
          service_->count_reroute();
        }
      }
      bool filled = refill_from(first, /*steal=*/false);
      if (!filled && second != first) {
        filled = refill_from(second, /*steal=*/true);
      }
      if (!filled) {
        // Both choices looked empty: sweep every shard — breaker state
        // deliberately ignored — so that an empty-handed shed-free round
        // means every shard really reported empty just now.
        const std::size_t start = rng_.next_below(n);
        for (std::size_t probe = 0; probe < n && !filled; ++probe) {
          const std::size_t s = (start + probe) % n;
          if (s == first || s == second) continue;
          filled = refill_from(s, /*steal=*/true);
        }
      }
    }

    bool refill_from(std::size_t s, bool steal) {
      auto& shard = service_->shards_[s].value;
      const std::uint64_t t0 = steady_now_us();  // include the chaos pause
      shard.chaos_pause();
      key_type key{};
      value_type value;
      std::size_t popped = 0;
      std::size_t kept = 0;
      bool ran_dry = false;
      // Cap the expired-task churn per shard visit: with a producer feeding
      // this shard dead-on-arrival tasks as fast as we shed them, an
      // uncapped loop would never run dry and never fill the batch — the
      // caller must get control back to report the sheds.
      const std::size_t max_pops = config().delete_batch * 8;
      while (kept < config().delete_batch && popped < max_pops) {
        if (!inner_[s].delete_min(key, value)) {
          ran_dry = true;
          break;
        }
        ++popped;
        const Task task = service_->decode(key, value);
        if (task.deadline_us != 0 && t0 > task.deadline_us) {
          service_->shed_task(task.key, task.value);
          ++shed_in_refill_;
          ++shed_in_pop_;
          continue;
        }
        dbuf_.push_back(task);
        ++kept;
      }
      service_->note_batch(shard, t0);
      if (popped == 0) {
        shard.note_empty();
        return false;
      }
      shard.note_popped(popped, key, ran_dry);
      if (kept == 0) return false;
      if (steal) {
        CPQ_COUNT(kServiceSteal);
        shard.steals.fetch_add(1, std::memory_order_relaxed);
      } else {
        CPQ_COUNT(kServiceRefill);
      }
      shard.refills.fetch_add(1, std::memory_order_relaxed);
      shard.refill_fill.fetch_add(kept, std::memory_order_relaxed);
      return true;
    }

    // Bound on consecutive all-expired refill rounds inside one pop_task
    // call: enough to chew through a modest expired backlog in one call,
    // small enough that a full-expiry storm cannot starve the caller.
    static constexpr unsigned kMaxShedRounds = 4;

    PriorityService* service_;
    std::vector<InnerHandle> inner_;  // one per shard
    std::vector<Task> ibuf_;
    std::chrono::steady_clock::time_point ibuf_oldest_{};
    std::vector<Task> dbuf_;
    std::size_t dpos_ = 0;
    std::size_t shed_in_refill_ = 0;
    std::size_t shed_in_pop_ = 0;
    Xoroshiro128 rng_;
  };

  Handle get_handle(unsigned thread_id) { return Handle(*this, thread_id); }

  // Stop admitting work: subsequent submissions fail (and are counted as
  // rejected); submitters blocked on the in-flight bound wake up and fail.
  // Already-accepted tasks stay deliverable. Idempotent and safe to call
  // concurrently with in-flight insert()/try_submit(); returns true for the
  // call that actually transitioned the service to closed.
  bool close() noexcept {
    return !closed_.exchange(true, std::memory_order_acq_rel);
  }
  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // Pop every remaining task into `sink(key, value)`. Call after every
  // worker handle has been destroyed (which flushes their buffers); the
  // drain itself re-polls each shard so relaxed transient emptiness cannot
  // hide tasks. Expired tasks shed during the drain go to the shed sink, not
  // to `sink`. Returns the number of drained tasks.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    auto handle = get_handle(0);
    key_type key;
    value_type value;
    std::size_t drained = 0;
    unsigned misses = 0;
    while (misses < 8) {
      if (handle.pop_task(key, value, /*count_delivery=*/false)) {
        sink(key, value);
        ++drained;
        misses = 0;
      } else if (handle.last_pop_shed() > 0) {
        misses = 0;  // not empty — an expired backlog is being shed
      } else {
        ++misses;  // pop_task already swept every shard
      }
    }
    return drained;
  }

  // Observer for shed tasks (conservation audits, dead-letter queues).
  // Install before traffic starts; called from whichever thread sheds.
  void set_shed_sink(ShedSink sink) { shed_sink_ = std::move(sink); }

  // Chaos hook (always compiled, one relaxed load per batch when idle):
  // every flush/refill batch against shard `s` sleeps for `stall_us` first.
  // A large value effectively kills the shard: the circuit breaker routes
  // around it and only the emptiness sweep still pays the stall.
  void chaos_stall_shard(unsigned s, std::uint32_t stall_us) noexcept {
    if (s < shards_.size()) {
      shards_[s].value.chaos_stall_us.store(stall_us,
                                            std::memory_order_relaxed);
    }
  }
  std::uint32_t chaos_stalled_us(unsigned s) const noexcept {
    return s < shards_.size() ? shards_[s].value.chaos_stall_us.load(
                                    std::memory_order_relaxed)
                              : 0;
  }

  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  const ServiceConfig& config() const noexcept { return config_; }

  ServiceStats stats() const {
    ServiceStats out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.tier_rejected = tier_rejected_.load(std::memory_order_relaxed);
    out.delivered = delivered_.load(std::memory_order_relaxed);
    out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
    out.retries = retries_.load(std::memory_order_relaxed);
    out.retry_exhausted = retry_exhausted_.load(std::memory_order_relaxed);
    out.reroutes = reroutes_.load(std::memory_order_relaxed);
    out.pool_exhausted = pool_ != nullptr ? pool_->exhausted() : 0;
    out.deadline_flushes = deadline_flushes_.load(std::memory_order_relaxed);
    std::uint64_t flush_fill = 0;
    std::uint64_t refill_fill = 0;
    for (const auto& aligned : shards_) {
      const Shard& shard = aligned.value;
      ShardStats s;
      s.enqueued = shard.enqueued.load(std::memory_order_relaxed);
      s.dequeued = shard.dequeued.load(std::memory_order_relaxed);
      s.flushes = shard.flushes.load(std::memory_order_relaxed);
      s.refills = shard.refills.load(std::memory_order_relaxed);
      s.steals = shard.steals.load(std::memory_order_relaxed);
      s.breaker_trips = shard.breaker.trips();
      s.breaker_open = shard.breaker.state() != CircuitBreaker::State::kClosed;
      s.approx_size = shard.size.load(std::memory_order_relaxed);
      out.flushes += s.flushes;
      out.refills += s.refills;
      out.steals += s.steals;
      out.breaker_trips += s.breaker_trips;
      flush_fill += shard.flush_fill.load(std::memory_order_relaxed);
      refill_fill += shard.refill_fill.load(std::memory_order_relaxed);
      out.shards.push_back(s);
    }
    if (out.flushes > 0) {
      out.mean_insert_fill =
          static_cast<double>(flush_fill) / static_cast<double>(out.flushes);
    }
    if (out.refills > 0) {
      out.mean_delete_fill =
          static_cast<double>(refill_fill) / static_cast<double>(out.refills);
    }
    return out;
  }

  // Telemetry gauge snapshot: fills an obs::GaugeSet-shaped sink (templated
  // so this header stays independent of obs/timeseries.hpp) from the same
  // relaxed atomics stats() reads. Allocation-free and safe to call from the
  // telemetry sampler thread while workers run — every field it touches is
  // an atomic or a breaker accessor. Gauge names must be string literals
  // (GaugeSet stores the pointers).
  template <typename GaugeSetT>
  void fill_gauges(GaugeSetT& g) const {
    g.set("submitted", static_cast<double>(
                           submitted_.load(std::memory_order_relaxed)));
    g.set("delivered", static_cast<double>(
                           delivered_.load(std::memory_order_relaxed)));
    g.set("rejected",
          static_cast<double>(rejected_.load(std::memory_order_relaxed) +
                              tier_rejected_.load(std::memory_order_relaxed)));
    g.set("shed", static_cast<double>(
                      shed_deadline_.load(std::memory_order_relaxed)));
    g.set("in_flight",
          static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
    g.set("reroutes",
          static_cast<double>(reroutes_.load(std::memory_order_relaxed)));
    g.set("deadline_flushes", static_cast<double>(deadline_flushes_.load(
                                  std::memory_order_relaxed)));
    std::uint64_t flushes = 0;
    std::uint64_t refills = 0;
    std::uint64_t steals = 0;
    std::uint64_t trips = 0;
    std::size_t breakers_open = 0;
    std::size_t size_max = 0;
    for (const auto& aligned : shards_) {
      const Shard& shard = aligned.value;
      flushes += shard.flushes.load(std::memory_order_relaxed);
      refills += shard.refills.load(std::memory_order_relaxed);
      steals += shard.steals.load(std::memory_order_relaxed);
      trips += shard.breaker.trips();
      if (shard.breaker.state() != CircuitBreaker::State::kClosed) {
        ++breakers_open;
      }
      size_max = std::max(size_max,
                          shard.size.load(std::memory_order_relaxed));
    }
    g.set("flushes", static_cast<double>(flushes));
    g.set("refills", static_cast<double>(refills));
    g.set("steals", static_cast<double>(steals));
    g.set("breaker_trips", static_cast<double>(trips));
    g.set("breakers_open", static_cast<double>(breakers_open));
    g.set("shard_size_max", static_cast<double>(size_max));
  }

  // Human-readable per-shard counter dump; installed as the watchdog's
  // diagnostics callback by the service bench so livelocks die loudly with
  // the shard-level picture.
  void dump_stats(std::FILE* out) const {
    const ServiceStats s = stats();
    std::fprintf(out,
                 "[cpq-service] submitted=%llu delivered=%llu rejected=%llu "
                 "in_flight=%zu deadline_flushes=%llu mean_fill=%.2f/%.2f\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.delivered),
                 static_cast<unsigned long long>(s.rejected), in_flight(),
                 static_cast<unsigned long long>(s.deadline_flushes),
                 s.mean_insert_fill, s.mean_delete_fill);
    if (s.shed_deadline + s.tier_rejected + s.retries + s.reroutes +
            s.breaker_trips + s.pool_exhausted >
        0) {
      std::fprintf(
          out,
          "[cpq-service] shed=%llu tier_rejects=%llu retries=%llu "
          "retry_exhausted=%llu reroutes=%llu breaker_trips=%llu "
          "pool_exhausted=%llu\n",
          static_cast<unsigned long long>(s.shed_deadline),
          static_cast<unsigned long long>(s.tier_rejected),
          static_cast<unsigned long long>(s.retries),
          static_cast<unsigned long long>(s.retry_exhausted),
          static_cast<unsigned long long>(s.reroutes),
          static_cast<unsigned long long>(s.breaker_trips),
          static_cast<unsigned long long>(s.pool_exhausted));
    }
    for (std::size_t i = 0; i < s.shards.size(); ++i) {
      const ShardStats& sh = s.shards[i];
      std::fprintf(out,
                   "[cpq-service]   shard %zu: enq=%llu deq=%llu size~%zu "
                   "flushes=%llu refills=%llu steals=%llu trips=%llu%s\n",
                   i, static_cast<unsigned long long>(sh.enqueued),
                   static_cast<unsigned long long>(sh.dequeued),
                   sh.approx_size, static_cast<unsigned long long>(sh.flushes),
                   static_cast<unsigned long long>(sh.refills),
                   static_cast<unsigned long long>(sh.steals),
                   static_cast<unsigned long long>(sh.breaker_trips),
                   sh.breaker_open ? " [open]" : "");
    }
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::uint64_t kEnvelopeTag = std::uint64_t{1} << 63;

  // Per-shard load/minimum hints are heuristics for routing only; the
  // refill sweep never trusts them for emptiness (the MultiQueue mirror
  // lesson: a hint equal to the maximal key cannot hide real items).
  static constexpr key_type kNoHint = std::numeric_limits<key_type>::max();

  struct Shard {
    std::unique_ptr<Q> queue;
    CircuitBreaker breaker;
    std::atomic<std::uint32_t> chaos_stall_us{0};
    std::atomic<key_type> min_hint{kNoHint};
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> dequeued{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> flush_fill{0};
    std::atomic<std::uint64_t> refill_fill{0};

    void push(InnerHandle& handle, key_type key, value_type value) {
      handle.insert(key, value);
      size.fetch_add(1, std::memory_order_relaxed);
      enqueued.fetch_add(1, std::memory_order_relaxed);
      // Monotone CAS-min keeps the hint a lower-ish bound on the content.
      key_type seen = min_hint.load(std::memory_order_relaxed);
      while (key < seen && !min_hint.compare_exchange_weak(
                               seen, key, std::memory_order_release,
                               std::memory_order_relaxed)) {
      }
    }

    void note_popped(std::size_t count, key_type last_key,
                     bool now_empty) noexcept {
      dequeued.fetch_add(count, std::memory_order_relaxed);
      std::size_t seen = size.load(std::memory_order_relaxed);
      while (!size.compare_exchange_weak(
          seen, seen >= count ? seen - count : 0, std::memory_order_relaxed,
          std::memory_order_relaxed)) {
      }
      // Remaining shard content is (approximately) >= the last popped key;
      // an exhausted shard advertises "unknown/empty".
      min_hint.store(now_empty ? kNoHint : last_key,
                     std::memory_order_release);
    }

    void note_empty() noexcept {
      min_hint.store(kNoHint, std::memory_order_release);
    }

    void chaos_pause() const {
      const std::uint32_t us = chaos_stall_us.load(std::memory_order_relaxed);
      if (us != 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  };

  using Task = typename Handle::Task;

  static ServiceConfig sanitize(ServiceConfig config, unsigned max_threads) {
    if (config.shards == 0) config.shards = max_threads == 0 ? 1 : max_threads;
    if (config.insert_batch == 0) config.insert_batch = 1;
    if (config.delete_batch == 0) config.delete_batch = 1;
    return config;
  }

  // Wrap a task's value for the inner queue: with a deadline and a free
  // DeadlinePool slot, the value becomes the tagged slot index; otherwise
  // (no deadline, pool exhausted, or non-envelope value type) the raw value
  // travels untouched and the task simply cannot be shed.
  value_type encode(const Task& task) noexcept {
    if constexpr (kDeadlineCapable) {
      if (task.deadline_us != 0 && pool_ != nullptr) {
        std::uint32_t slot = 0;
        if (pool_->acquire(task.value, task.deadline_us, slot)) {
          return static_cast<value_type>(kEnvelopeTag |
                                         static_cast<std::uint64_t>(slot));
        }
      }
    }
    return task.value;
  }

  Task decode(key_type key, value_type value) noexcept {
    if constexpr (kDeadlineCapable) {
      if (pool_ != nullptr &&
          (static_cast<std::uint64_t>(value) & kEnvelopeTag) != 0) {
        const auto entry = pool_->take(static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(value) & 0xFFFF'FFFFull));
        return Task{key, entry.value, entry.deadline_us};
      }
    }
    return Task{key, value, 0};
  }

  // Account one shed task: counted, reported to the sink, and its in-flight
  // slot released (it will never reach delete_min's hand-off).
  void shed_task(key_type key, value_type value) {
    CPQ_COUNT(kServiceShed);
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    if (shed_sink_) shed_sink_(key, value);
    release_slot();
  }

  void count_reroute() noexcept {
    CPQ_COUNT(kServiceReroute);
    reroutes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Flush routing with the breaker consulted: keep `a` if its breaker
  // admits, else fall to `b`, else scan for any admitting shard. When every
  // breaker is open, `a` is used anyway — availability beats protection.
  std::size_t reroute_if_open(std::size_t a, std::size_t b,
                              Xoroshiro128& rng) noexcept {
    const std::uint64_t now = steady_now_us();
    if (shards_[a].value.breaker.allow(now)) return a;
    if (b != kNpos && shards_[b].value.breaker.allow(now)) {
      count_reroute();
      return b;
    }
    const std::size_t n = shards_.size();
    const std::size_t start = rng.next_below(n);
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t s = (start + probe) % n;
      if (s == a || s == b) continue;
      if (shards_[s].value.breaker.allow(now)) {
        count_reroute();
        return s;
      }
    }
    return a;
  }

  // Report a finished shard batch to its breaker (no-op unless enabled).
  void note_batch(Shard& shard, std::uint64_t start_us) noexcept {
    if (!breaker_active_) return;
    const std::uint64_t now = steady_now_us();
    if (shard.breaker.record(now, now - start_us)) {
      CPQ_COUNT(kServiceBreakerTrip);
    }
  }

  bool acquire_slot(bool block, unsigned tier, bool& tier_limited) {
    tier_limited = false;
    if (closed()) return false;
    if (config_.max_in_flight == 0) {
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    const unsigned tiers =
        config_.policy == AdmissionPolicy::kTiered ? tier_map_.tiers() : 1;
    Backoff backoff;
    for (;;) {
      std::size_t current = in_flight_.load(std::memory_order_relaxed);
      if (current < config_.max_in_flight) {
        if (!block && tier > 0 &&
            !tier_admitted(current, config_.max_in_flight, tier, tiers)) {
          tier_limited = true;
          return false;
        }
        if (in_flight_.compare_exchange_weak(current, current + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
          return true;
        }
        continue;
      }
      if (!block || closed()) return false;
      backoff.pause();
    }
  }

  void release_slot() noexcept {
    in_flight_.fetch_sub(1, std::memory_order_release);
  }

  ServiceConfig config_;
  std::vector<CacheAligned<Shard>> shards_;
  std::unique_ptr<DeadlinePool<value_type>> pool_;
  TierMap tier_map_;
  ShedSink shed_sink_;
  const bool breaker_active_ = config_.breaker_trip_us > 0;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> tier_rejected_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_exhausted_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  std::atomic<std::uint64_t> deadline_flushes_{0};
  std::atomic<bool> closed_{false};

  friend class Handle;
};

}  // namespace cpq::service
