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
//     balanced within O(log log S) whp. Batching is gated on the handle's
//     own submission rate: a submission is buffered only while the running
//     mean gap between the handle's submissions is below `batch_gap_ns`;
//     otherwise the buffer, that task included, is flushed at once. A
//     saturated producer therefore fills batches, while a slower one
//     publishes every task instead of parking it behind submissions that
//     are not coming. A task is encoded (deadline envelope) when it is
//     buffered. A shard handle with insert_batch(items, n) (mq-eng) takes
//     the whole batch in one call, under one lock, bypassing its own
//     staging buffer, so this is the only insertion buffer such a task
//     passes through and it is visible to every consumer as soon as
//     flush() returns. Other shard queues are fed the batch one insert at
//     a time.
//   * a deletion buffer: pops refill thread-locally in batches of up to
//     `delete_batch` from the shard whose last observed minimum is smaller
//     (two-choice routing on pop); when the favoured shard is empty the
//     handle *steals* from the other choice, and as a last resort sweeps
//     every shard so that emptiness reports are trustworthy. A shard handle
//     with delete_batch(out, n) (mq-eng) fills the buffer in one call, from
//     one of its heaps under one lock, bypassing its own deletion buffer:
//     this is the only deletion buffer such a task passes through, and what
//     the call does not return stays in the heap, poppable by every
//     consumer. A short batch (that heap ran out) ends the refill; further
//     calls only replace tasks shed as expired. Other shard queues are
//     popped one delete_min at a time.
//   * admission control: an optional in-flight bound with reject, block
//     (backpressure), or tiered policy, plus graceful close() + drain()
//     shutdown. A bounded window's admissions CAS one shared counter, but a
//     consumer handle returns the slots of the tasks it delivered or shed
//     with one fetch_sub when its deletion buffer drains (and before its
//     own next submission, on a move and at teardown), not one per
//     hand-off. An unbounded service keeps no shared in-flight counter at
//     all; in_flight() is summed from the per-thread counters.
//
// Overload resilience (see service/resilience.hpp for the building blocks):
//
//   * deadline shedding: with ttl_us configured, tasks carry an absolute
//     expiry; expired tasks are dropped at pop time, counted, and reported
//     to an optional shed sink instead of delivered. Deadlines ride in a
//     DeadlinePool slot whose index replaces the queue value (top bit
//     tagged), so the inner queue's value type is unchanged — this requires
//     unsigned 64-bit values below 2^63. Each handle keeps a cache of free
//     slot indices, so slots move between producer and consumer threads in
//     batches, not one shared CAS per task.
//   * tiered admission (AdmissionPolicy::kTiered): the key space is split
//     into priority tiers and low-priority tiers are rejected first as the
//     in-flight window fills, instead of the binary full/not-full cliff.
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
// `cpq_bench_cli --mode=service`). The insert_batch * shards term applies to
// saturated producers only: a producer slower than one task per
// batch_gap_ns publishes every task. mq-eng shards add no second prefetch:
// their refills go through delete_batch, so the delete_batch term is the
// service's buffer alone. Conservation (exactly-once delivery) is NOT
// relaxed: every accepted task is delivered exactly once, recovered by
// drain(), or (with deadlines enabled) shed exactly once through the shed
// sink; handles flush their insertion buffer and spill unconsumed prefetched
// tasks back to a shard on destruction. tests/torture_test.cpp audits this
// through CheckedQueue under fault injection for every roster queue.
//
// Counters: per-shard (enqueued, dequeued, flushes, refills, steals, breaker
// trips, batch fill) and service-wide (submitted, rejected, tier rejections,
// delivered, re-routes, shed). Both live in per-thread-id slots summed by
// stats(): the service-wide ones in one cache line per thread id, the shard
// tallies in one line per (thread id, shard). So submits, flushes, refills
// and hand-offs on different threads never write a shared counter line. The
// only shard fields a batch writes are its load and minimum hints, once per
// flush or refill, not per task; a bounded window's in-flight count and the
// closed flag share a line of their own. The counters are readable via
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
#include "platform/clock.hpp"
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
  // Insertion-buffer capacity per handle: the batch size of a saturated
  // producer. 1 disables insert batching.
  std::size_t insert_batch = 8;
  // Deletion-buffer refill size per handle; 1 disables pop batching.
  std::size_t delete_batch = 8;
  // Insertion-batching gate. Each handle keeps a running mean (EWMA,
  // alpha 1/8) of the gap between its own submissions; a submission is
  // buffered only while that mean is below batch_gap_ns, otherwise the
  // buffer, this task included, is flushed at once. A fresh handle counts
  // as saturated until its second submission measures the first gap, and a
  // pause of 8 * batch_gap_ns alone lifts the mean over the bound. 0
  // publishes every task; UINT64_MAX batches by insert_batch count only.
  std::uint64_t batch_gap_ns = 2000;
  // Admission bound on accepted-but-undelivered tasks; 0 = unbounded. A
  // consumer handle returns the slots of the tasks it delivered (or shed)
  // all at once when its deletion buffer drains or it submits, so until
  // then the window may also count up to delete_batch - 1 delivered tasks
  // per consumer handle, plus the expired tasks its current refill shed.
  std::size_t max_in_flight = 0;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  std::uint64_t seed = 1;

  // ---- overload resilience ----
  // Time-to-live applied to every submission; 0 disables deadline shedding.
  // Requires unsigned 64-bit values < 2^63. Deadlines ride in a DeadlinePool
  // of max_in_flight (or 64k) plus 2 * DeadlinePool::kBatch slots per
  // thread, so slots parked in the handles' caches cannot exhaust a full
  // admission window; a task that finds no free slot travels untagged.
  std::uint64_t ttl_us = 0;
  // Tier count for AdmissionPolicy::kTiered: the key space
  // [0, tier_key_space) is split uniformly. 0 means 4.
  unsigned tiers = 0;
  std::uint64_t tier_key_space = std::uint64_t{1} << 32;
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
  std::uint64_t flushes = 0;    // insertion-buffer flushes landing here,
                                // a handle's teardown spill included
  std::uint64_t refills = 0;    // deletion-buffer refills served here
  std::uint64_t steals = 0;     // refills served when not the routed choice
  std::uint64_t breaker_trips = 0;  // circuit-breaker trips on this shard
  bool breaker_open = false;        // breaker currently not Closed (racy)
  std::size_t approx_size = 0;  // load hint: racy, exact at quiescence
};

struct ServiceStats {
  std::uint64_t submitted = 0;         // accepted tasks
  std::uint64_t rejected = 0;          // admission rejections (all causes)
  std::uint64_t tier_rejected = 0;     // rejections from the tier gate only
  std::uint64_t delivered = 0;         // tasks handed to consumers
  std::uint64_t shed_deadline = 0;     // tasks dropped past their deadline
  std::uint64_t reroutes = 0;          // batches steered off an open breaker
  std::uint64_t breaker_trips = 0;     // circuit-breaker trips (all shards)
  std::uint64_t pool_exhausted = 0;    // deadline slots unavailable
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
  // A task as the shard stores it: key plus (possibly enveloped) value.
  using Item = std::pair<key_type, value_type>;

  // Shard handles that take a whole flush in one call (mq-eng); every other
  // queue is fed the batch one insert at a time.
  static constexpr bool kBatchInsert =
      requires(InnerHandle& handle, const Item* items, std::size_t n) {
        handle.insert_batch(items, n);
      };
  // Shard handles that fill a whole refill in one call (mq-eng); every
  // other queue is popped one delete_min at a time.
  static constexpr bool kBatchDelete =
      requires(InnerHandle& handle, Item* out, std::size_t n) {
        handle.delete_batch(out, n);
      };

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
        shards_(config_.shards),
        counters_(max_threads == 0 ? 1 : max_threads),
        tallies_(counters_.size() * shards_.size()) {
    for (unsigned s = 0; s < config_.shards; ++s) {
      shards_[s].value.queue = make_shard(s);
      shards_[s].value.breaker.configure(config_.breaker_trip_us,
                                         config_.breaker_consecutive,
                                         config_.breaker_cooldown_us);
    }
    if constexpr (kDeadlineCapable) {
      if (config_.ttl_us > 0) {
        pool_ = std::make_unique<Pool>(
            (config_.max_in_flight > 0 ? config_.max_in_flight
                                       : std::size_t{1} << 16) +
            2 * Pool::kBatch * counters_.size());
      }
    }
    if (config_.policy == AdmissionPolicy::kTiered) {
      tier_map_ = TierMap::uniform(config_.tiers == 0 ? 4 : config_.tiers,
                                   config_.tier_key_space);
    }
  }

 private:
  // Per-thread-id slot of the service-wide counters. Relaxed fetch_adds, so
  // handles that share a thread id still count exactly.
  struct Counters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> tier_rejected{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> drained{0};  // popped by drain(), not delivered
    std::atomic<std::uint64_t> shed_deadline{0};
    std::atomic<std::uint64_t> reroutes{0};
  };
  // One shard's batch tallies, kept per thread id the same way, so a flush
  // or refill writes its own thread's line instead of the shared Shard's.
  struct Tally {
    std::atomic<std::uint64_t> enqueued{0};  // also the flushes' total fill
    std::atomic<std::uint64_t> dequeued{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> refill_fill{0};
  };
  using Pool = DeadlinePool<value_type>;

 public:
  class Handle {
   public:
    // A move hands every buffer over and returns the source's held
    // in-flight slots (see release_held) at once. The source is left inert,
    // service_ null, so its destructor neither flushes nor releases again.
    Handle(Handle&& other) noexcept
        : service_(std::exchange(other.service_, nullptr)),
          counters_(other.counters_),
          tallies_(other.tallies_),
          inner_(std::move(other.inner_)),
          ibuf_(std::move(other.ibuf_)),
          last_submit_ns_(other.last_submit_ns_),
          mean_gap_ns_(other.mean_gap_ns_),
          dbuf_(std::move(other.dbuf_)),
          pbuf_(std::move(other.pbuf_)),
          dpos_(std::exchange(other.dpos_, 0)),
          shed_in_refill_(other.shed_in_refill_),
          shed_in_pop_(other.shed_in_pop_),
          held_(std::exchange(other.held_, 0)),
          rng_(other.rng_),
          cache_(std::move(other.cache_)) {
      release_held();
    }
    Handle& operator=(Handle&&) = delete;

    // Queue-concept insert: never drops an accepted task. Blocks for a slot
    // regardless of the configured policy (use try_submit for kReject
    // semantics); the only way it can fail is a close()d service — close()
    // deliberately wakes submitters parked on the in-flight bound so
    // shutdown cannot deadlock behind a full admission window. The bool
    // return reports acceptance for callers that track conservation; plain
    // queue-concept users may ignore it.
    bool insert(key_type key, value_type value) {
      return submit(key, value, true);
    }

    // Policy-honouring submission. Returns false (and counts a rejection)
    // when the service is closed, or when the in-flight bound (or, under
    // kTiered, the key's tier allowance) is hit.
    bool try_submit(key_type key, value_type value) {
      return submit(key, value, config().policy == AdmissionPolicy::kBlock);
    }

    bool delete_min(key_type& key_out, value_type& value_out) {
      CPQ_INJECT("service/delete_min");
      return pop_task(key_out, value_out, /*count_delivery=*/true);
    }

   private:
    // Shared pop path. The shutdown drain() sets count_delivery=false:
    // recovered tasks are reported as `drained`, never as `delivered`, so
    // the two stats can be added without double counting. Every task the
    // buffer hands off or sheds is held (release_held) until the buffer
    // drains, so the call that empties it returns them all in one step.
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
            flush();
            refill();
          }
          if (dpos_ == dbuf_.size()) {
            // An all-expired sweep is progress, not emptiness: retry a
            // bounded number of rounds before reporting no-task.
            if (shed_in_refill_ != 0 && ++shed_rounds < kMaxShedRounds) {
              continue;
            }
            release_held();
            return false;
          }
        }
        const Task task = dbuf_[dpos_];
        ++dpos_;
        // Deadline re-check at hand-off: the task may have expired while
        // parked in the deletion buffer.
        if (task.deadline_us != 0 && steady_now_us() > task.deadline_us) {
          shed(task);
          // A deletion buffer consumed entirely by hand-off sheds counts
          // toward the round cap as well — otherwise a dead-on-arrival feed
          // could trap the caller in here indefinitely.
          if (dpos_ == dbuf_.size() && ++shed_rounds >= kMaxShedRounds) {
            release_held();
            return false;
          }
          continue;
        }
        key_out = task.key;
        value_out = task.value;
        (count_delivery ? counters_->delivered : counters_->drained)
            .fetch_add(1, std::memory_order_relaxed);
        ++held_;
        if (dpos_ == dbuf_.size()) release_held();
        return true;
      }
    }

   public:
    // Publish every buffered submission now, whatever the batch fill.
    void flush() {
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
        a = service_->reroute_if_open(a, b == a ? kNpos : b, rng_,
                                      *counters_);
      }
      auto& shard = shards[a].value;
      // t0 before the chaos pause: an injected stall must look like a slow
      // batch to note_batch, or the breaker could never detect it. Only the
      // breaker reads t0, so without one the clock is not read here.
      const std::uint64_t t0 =
          service_->breaker_active_ ? steady_now_us() : 0;
      shard.chaos_pause();
      if constexpr (kBatchInsert) {
        inner_[a].insert_batch(ibuf_.data(), ibuf_.size());
      } else {
        for (const Item& item : ibuf_) {
          inner_[a].insert(item.first, item.second);
        }
      }
      shard.note_pushed(ibuf_);
      service_->note_batch(shard, t0);
      CPQ_COUNT(kServiceFlush);
      Tally& tally = tallies_[a].value;
      tally.enqueued.fetch_add(ibuf_.size(), std::memory_order_relaxed);
      tally.flushes.fetch_add(1, std::memory_order_relaxed);
      // Cleared only once the shard took the batch: a throw above leaves
      // every task buffered for the next flush.
      ibuf_.clear();
    }

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
      release_held();
      // Prefetched-but-unconsumed tasks ride the final flush back into a
      // shard so they stay deliverable (their in-flight slots are still
      // taken, correctly).
      for (; dpos_ < dbuf_.size(); ++dpos_) {
        const Task& task = dbuf_[dpos_];
        ibuf_.emplace_back(task.key, service_->encode(cache_, task.value,
                                                      task.deadline_us));
      }
      flush();
      if (service_->pool_ != nullptr) service_->pool_->release(cache_);
    }

   private:
    friend class PriorityService;

    // A decoded task in the deletion buffer: deadline_us is the absolute
    // steady-clock expiry (steady_now_us() domain), 0 when the task has no
    // deadline.
    struct Task {
      key_type key;
      value_type value;
      std::uint64_t deadline_us;
    };

    Handle(PriorityService& service, unsigned thread_id)
        : service_(&service),
          counters_(
              &service.counters_[thread_id % service.counters_.size()].value),
          tallies_(&service.tallies_[(thread_id % service.counters_.size()) *
                                     service.shards_.size()]),
          rng_(thread_seed(service.config_.seed ^ 0x5e11ce, thread_id)) {
      inner_.reserve(service.shards_.size());
      for (auto& shard : service.shards_) {
        inner_.push_back(shard.value.queue->get_handle(thread_id));
      }
      ibuf_.reserve(service.config_.insert_batch);
      dbuf_.reserve(service.config_.delete_batch);
      if constexpr (kBatchDelete) pbuf_.resize(service.config_.delete_batch);
    }

    const ServiceConfig& config() const noexcept { return service_->config_; }

    bool submit(key_type key, value_type value, bool block) {
      CPQ_INJECT("service/submit");
      // A handle must never wait for admission on slots it holds itself:
      // the hold model pops a task and submits its successor.
      release_held();
      unsigned tier = 0;
      if (!block && config().policy == AdmissionPolicy::kTiered &&
          config().max_in_flight > 0) {
        tier = service_->tier_map_.tier_of(static_cast<std::uint64_t>(key));
      }
      bool tier_limited = false;
      if (!service_->acquire_slot(block, tier, tier_limited)) {
        CPQ_COUNT(kServiceReject);
        counters_->rejected.fetch_add(1, std::memory_order_relaxed);
        if (tier_limited) {
          CPQ_COUNT(kServiceTierReject);
          counters_->tier_rejected.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
      counters_->submitted.fetch_add(1, std::memory_order_relaxed);
      // One clock read per accepted submission: it feeds the batching gate
      // and stamps the TTL deadline (steady_now_us() is now_ns / 1000).
      const std::uint64_t now_ns = monotonic_ns();
      note_gap(now_ns);
      const std::uint64_t ttl_us = config().ttl_us;
      const std::uint64_t deadline = ttl_us != 0 ? now_ns / 1000 + ttl_us : 0;
      ibuf_.emplace_back(key, service_->encode(cache_, value, deadline));
      if (ibuf_.size() >= config().insert_batch ||
          mean_gap_ns_ >= config().batch_gap_ns) {
        flush();
      }
      return true;
    }

    // Update the running mean gap between submissions (EWMA, alpha 1/8).
    // The first measured gap starts the average; until then the mean is 0
    // and the handle counts as saturated.
    void note_gap(std::uint64_t now_ns) noexcept {
      if (last_submit_ns_ != 0) {
        const std::uint64_t gap = now_ns - last_submit_ns_;
        mean_gap_ns_ =
            mean_gap_ns_ == 0 ? gap : (7 * mean_gap_ns_ + gap) / 8;
      }
      last_submit_ns_ = now_ns;
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
          service_->count_reroute(*counters_);
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
      // t0 times the batch for the breaker (chaos pause included) and is
      // the shedding cut-off; tasks carry deadlines only with a deadline
      // pool, so without a breaker or a pool the clock is not read.
      const std::uint64_t t0 =
          service_->breaker_active_ || service_->pool_ != nullptr
              ? steady_now_us()
              : 0;
      shard.chaos_pause();
      const std::size_t batch = config().delete_batch;
      std::size_t popped = 0;
      key_type last_key{};
      bool ran_dry = false;
      // Cap the expired-task churn per shard visit: with a producer feeding
      // this shard dead-on-arrival tasks as fast as we shed them, an
      // uncapped loop would never run dry and never fill the batch — the
      // caller must get control back to report the sheds.
      const std::size_t max_pops = batch * 8;
      if constexpr (kBatchDelete) {
        // One call fills the buffer; later calls only replace tasks shed as
        // expired. A short batch means the shard handle's chosen heap ran
        // out, not the shard, so it ends the refill without marking the
        // shard empty.
        while (dbuf_.size() < batch && popped < max_pops) {
          const std::size_t want =
              std::min(batch - dbuf_.size(), max_pops - popped);
          const std::size_t got = inner_[s].delete_batch(pbuf_.data(), want);
          if (got == 0) {
            ran_dry = true;
            break;
          }
          popped += got;
          last_key = pbuf_[got - 1].first;
          for (std::size_t k = 0; k < got; ++k) keep_or_shed(pbuf_[k], t0);
          if (got < want) break;
        }
      } else {
        Item item;
        while (dbuf_.size() < batch && popped < max_pops) {
          if (!inner_[s].delete_min(item.first, item.second)) {
            ran_dry = true;
            break;
          }
          ++popped;
          last_key = item.first;
          keep_or_shed(item, t0);
        }
      }
      service_->note_batch(shard, t0);
      if (popped == 0) {
        shard.note_empty();
        return false;
      }
      shard.note_popped(popped, last_key, ran_dry);
      Tally& tally = tallies_[s].value;
      tally.dequeued.fetch_add(popped, std::memory_order_relaxed);
      const std::size_t kept = dbuf_.size();
      if (kept == 0) return false;
      if (steal) {
        CPQ_COUNT(kServiceSteal);
        tally.steals.fetch_add(1, std::memory_order_relaxed);
      } else {
        CPQ_COUNT(kServiceRefill);
      }
      tally.refills.fetch_add(1, std::memory_order_relaxed);
      tally.refill_fill.fetch_add(kept, std::memory_order_relaxed);
      return true;
    }

    // Decode one popped task into the deletion buffer, or shed it when its
    // deadline passed before `now_us`.
    void keep_or_shed(const Item& item, std::uint64_t now_us) {
      const Task task = service_->decode(cache_, item.first, item.second);
      if (task.deadline_us != 0 && now_us > task.deadline_us) {
        shed(task);
        ++shed_in_refill_;
        return;
      }
      dbuf_.push_back(task);
    }

    // Count one expired task, report it to the shed sink, and hold its
    // in-flight slot with the buffer's deliveries.
    void shed(const Task& task) {
      service_->shed_task(*counters_, task.key, task.value);
      ++shed_in_pop_;
      ++held_;
    }

    // Return the in-flight slots of the tasks delivered or shed since the
    // last release with one fetch_sub. Called when the deletion buffer
    // drains, before a submission, on a move and at teardown. An unbounded
    // service keeps no shared count to return them to.
    void release_held() noexcept {
      if (held_ == 0) return;
      if (config().max_in_flight > 0) {
        service_->in_flight_.fetch_sub(held_, std::memory_order_release);
      }
      held_ = 0;
    }

    // Bound on consecutive all-expired refill rounds inside one pop_task
    // call: enough to chew through a modest expired backlog in one call,
    // small enough that a full-expiry storm cannot starve the caller.
    static constexpr unsigned kMaxShedRounds = 4;

    PriorityService* service_;
    Counters* counters_;              // this thread id's slot
    CacheAligned<Tally>* tallies_;    // this thread id's row, one per shard
    std::vector<InnerHandle> inner_;  // one per shard
    std::vector<Item> ibuf_;          // encoded, as the shard receives them
    std::uint64_t last_submit_ns_ = 0;  // monotonic_ns() of the last submit
    std::uint64_t mean_gap_ns_ = 0;     // batching gate's running mean gap
    std::vector<Task> dbuf_;
    std::vector<Item> pbuf_;  // delete_batch's output, before decoding
    std::size_t dpos_ = 0;
    std::size_t shed_in_refill_ = 0;
    std::size_t shed_in_pop_ = 0;
    std::size_t held_ = 0;  // delivered or shed, in-flight slot not returned
    Xoroshiro128 rng_;
    typename Pool::Cache cache_;  // free deadline slots this handle owns
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

  // Accepted tasks not yet delivered, shed or drained. A bounded window
  // reads its admission counter, which also counts what each consumer
  // handle delivered or shed from a deletion buffer it has not finished;
  // an unbounded service has no shared counter, so the figure is summed
  // from the per-thread slots (racy while threads run). Exact at
  // quiescence, and whenever no handle holds a partly consumed buffer.
  std::size_t in_flight() const noexcept {
    if (config_.max_in_flight > 0) {
      return in_flight_.load(std::memory_order_relaxed);
    }
    // Settled before accepted: both only grow, so the later read of the
    // accepted count keeps the difference from going negative in practice.
    const std::uint64_t settled = sum(&Counters::delivered) +
                                  sum(&Counters::drained) +
                                  sum(&Counters::shed_deadline);
    const std::uint64_t accepted = sum(&Counters::submitted);
    return accepted > settled ? static_cast<std::size_t>(accepted - settled)
                              : 0;
  }

  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  const ServiceConfig& config() const noexcept { return config_; }

  ServiceStats stats() const {
    ServiceStats out;
    out.submitted = sum(&Counters::submitted);
    out.rejected = sum(&Counters::rejected);
    out.tier_rejected = sum(&Counters::tier_rejected);
    out.delivered = sum(&Counters::delivered);
    out.shed_deadline = sum(&Counters::shed_deadline);
    out.reroutes = sum(&Counters::reroutes);
    out.pool_exhausted = pool_ != nullptr ? pool_->exhausted() : 0;
    std::uint64_t flush_fill = 0;
    std::uint64_t refill_fill = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& shard = shards_[i].value;
      ShardStats s;
      s.enqueued = tally_sum(i, &Tally::enqueued);
      s.dequeued = tally_sum(i, &Tally::dequeued);
      s.flushes = tally_sum(i, &Tally::flushes);
      s.refills = tally_sum(i, &Tally::refills);
      s.steals = tally_sum(i, &Tally::steals);
      s.breaker_trips = shard.breaker.trips();
      s.breaker_open = shard.breaker.state() != CircuitBreaker::State::kClosed;
      s.approx_size = shard.size_hint();
      out.flushes += s.flushes;
      out.refills += s.refills;
      out.steals += s.steals;
      out.breaker_trips += s.breaker_trips;
      flush_fill += s.enqueued;
      refill_fill += tally_sum(i, &Tally::refill_fill);
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
    g.set("submitted", static_cast<double>(sum(&Counters::submitted)));
    g.set("delivered", static_cast<double>(sum(&Counters::delivered)));
    g.set("rejected", static_cast<double>(sum(&Counters::rejected) +
                                          sum(&Counters::tier_rejected)));
    g.set("shed", static_cast<double>(sum(&Counters::shed_deadline)));
    g.set("in_flight", static_cast<double>(in_flight()));
    g.set("reroutes", static_cast<double>(sum(&Counters::reroutes)));
    std::uint64_t flushes = 0;
    std::uint64_t refills = 0;
    std::uint64_t steals = 0;
    std::uint64_t trips = 0;
    std::size_t breakers_open = 0;
    std::size_t size_max = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& shard = shards_[i].value;
      flushes += tally_sum(i, &Tally::flushes);
      refills += tally_sum(i, &Tally::refills);
      steals += tally_sum(i, &Tally::steals);
      trips += shard.breaker.trips();
      if (shard.breaker.state() != CircuitBreaker::State::kClosed) {
        ++breakers_open;
      }
      size_max = std::max(size_max, shard.size_hint());
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
                 "in_flight=%zu mean_fill=%.2f/%.2f\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.delivered),
                 static_cast<unsigned long long>(s.rejected), in_flight(),
                 s.mean_insert_fill, s.mean_delete_fill);
    if (s.shed_deadline + s.tier_rejected + s.reroutes + s.breaker_trips +
            s.pool_exhausted >
        0) {
      std::fprintf(
          out,
          "[cpq-service] shed=%llu tier_rejects=%llu reroutes=%llu "
          "breaker_trips=%llu pool_exhausted=%llu\n",
          static_cast<unsigned long long>(s.shed_deadline),
          static_cast<unsigned long long>(s.tier_rejected),
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
    // Tasks flushed in minus tasks popped out, one fetch_add per flush and
    // one fetch_sub per refill. A flush counts its batch only after the
    // shard took it, so a consumer that pops the batch first drives the
    // count below zero for a moment; it is exact whenever no flush or
    // refill is in progress.
    std::atomic<std::int64_t> size{0};

    // The count as stats() and fill_gauges() report it: a transient
    // negative reads as 0. Flush routing compares the raw count.
    std::size_t size_hint() const noexcept {
      const std::int64_t n = size.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<std::size_t>(n) : 0;
    }

    // Load and minimum-hint bookkeeping for one non-empty flushed batch:
    // one fetch_add and one CAS-min loop on the batch minimum.
    void note_pushed(const std::vector<Item>& batch) noexcept {
      key_type lo = batch.front().first;
      for (const Item& item : batch) lo = std::min(lo, item.first);
      size.fetch_add(static_cast<std::int64_t>(batch.size()),
                     std::memory_order_relaxed);
      // Monotone CAS-min keeps the hint a lower-ish bound on the content.
      key_type seen = min_hint.load(std::memory_order_relaxed);
      while (lo < seen && !min_hint.compare_exchange_weak(
                              seen, lo, std::memory_order_release,
                              std::memory_order_relaxed)) {
      }
    }

    void note_popped(std::size_t count, key_type last_key,
                     bool now_empty) noexcept {
      size.fetch_sub(static_cast<std::int64_t>(count),
                     std::memory_order_relaxed);
      // Remaining shard content is (approximately) >= the last popped key;
      // an exhausted shard advertises "unknown/empty".
      min_hint.store(now_empty ? kNoHint : last_key,
                     std::memory_order_release);
    }

    // Only a change is written: idle consumers re-reading an empty shard
    // must not keep invalidating the line producers CAS the hint on.
    void note_empty() noexcept {
      if (min_hint.load(std::memory_order_relaxed) != kNoHint) {
        min_hint.store(kNoHint, std::memory_order_release);
      }
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
  value_type encode(typename Pool::Cache& cache, value_type value,
                    std::uint64_t deadline_us) noexcept {
    if constexpr (kDeadlineCapable) {
      if (deadline_us != 0 && pool_ != nullptr) {
        std::uint32_t slot = 0;
        if (pool_->acquire(cache, value, deadline_us, slot)) {
          return static_cast<value_type>(kEnvelopeTag |
                                         static_cast<std::uint64_t>(slot));
        }
      }
    }
    return value;
  }

  Task decode(typename Pool::Cache& cache, key_type key,
              value_type value) noexcept {
    if constexpr (kDeadlineCapable) {
      if (pool_ != nullptr &&
          (static_cast<std::uint64_t>(value) & kEnvelopeTag) != 0) {
        const auto entry = pool_->take(
            cache, static_cast<std::uint32_t>(static_cast<std::uint64_t>(value) &
                                              0xFFFF'FFFFull));
        return Task{key, entry.value, entry.deadline_us};
      }
    }
    return Task{key, value, 0};
  }

  // Account one shed task: counted and reported to the sink. Its in-flight
  // slot is returned by the shedding handle (Handle::shed).
  void shed_task(Counters& counters, key_type key, value_type value) {
    CPQ_COUNT(kServiceShed);
    counters.shed_deadline.fetch_add(1, std::memory_order_relaxed);
    if (shed_sink_) shed_sink_(key, value);
  }

  static void count_reroute(Counters& counters) noexcept {
    CPQ_COUNT(kServiceReroute);
    counters.reroutes.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t sum(
      std::atomic<std::uint64_t> Counters::*field) const noexcept {
    std::uint64_t total = 0;
    for (const auto& slot : counters_) {
      total += (slot.value.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  // One shard's tally summed over the thread-id rows.
  std::uint64_t tally_sum(std::size_t shard,
                          std::atomic<std::uint64_t> Tally::*field) const {
    std::uint64_t total = 0;
    for (std::size_t i = shard; i < tallies_.size(); i += shards_.size()) {
      total += (tallies_[i].value.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  // Flush routing with the breaker consulted: keep `a` if its breaker
  // admits, else fall to `b`, else scan for any admitting shard. When every
  // breaker is open, `a` is used anyway — availability beats protection.
  std::size_t reroute_if_open(std::size_t a, std::size_t b, Xoroshiro128& rng,
                              Counters& counters) noexcept {
    const std::uint64_t now = steady_now_us();
    if (shards_[a].value.breaker.allow(now)) return a;
    if (b != kNpos && shards_[b].value.breaker.allow(now)) {
      count_reroute(counters);
      return b;
    }
    const std::size_t n = shards_.size();
    const std::size_t start = rng.next_below(n);
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t s = (start + probe) % n;
      if (s == a || s == b) continue;
      if (shards_[s].value.breaker.allow(now)) {
        count_reroute(counters);
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
    if (config_.max_in_flight == 0) return true;  // no shared count to take
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

  ServiceConfig config_;
  std::vector<CacheAligned<Shard>> shards_;
  std::vector<CacheAligned<Counters>> counters_;  // one per thread id
  // [thread id slot * shards + shard]: a row per counters_ slot.
  std::vector<CacheAligned<Tally>> tallies_;
  std::unique_ptr<Pool> pool_;
  TierMap tier_map_;
  ShedSink shed_sink_;
  const bool breaker_active_ = config_.breaker_trip_us > 0;
  // Bounded windows only: written by every admission and by a consumer
  // handle once per drained deletion buffer, so it sits on a line of its
  // own, away from the read-mostly members above.
  alignas(kCacheLineSize) std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> closed_{false};

  friend class Handle;
};

}  // namespace cpq::service
