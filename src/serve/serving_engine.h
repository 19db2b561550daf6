// The online concurrent serving layer.
//
// ShardedEngine (src/shard) scales the paper's single-cell allocators out
// to S cells, but its run() is *batch-parallel*: route a whole batch
// sequentially, apply per-shard sub-sequences under a barrier, repeat.
// ServingEngine turns the same cells into an online service:
//
//   * One worker thread per shard, fed by an MPSC request queue
//     (src/serve/mpsc_queue.h), plus caller-runs: a submit that finds
//     its shard idle (empty queue, no worker batch out, no read-side
//     query in flight) claims it and applies the update on the
//     submitting thread, so a closed-loop client pays for the
//     allocator's work, not for a thread handoff.  A shard with reads in
//     flight is left to its worker: an inline writer's back-to-back
//     applies would otherwise keep the shard's lock and layout lines hot
//     under a reader on another core.  Client threads call
//     submit(update) and get a std::future<double> resolving to the
//     update's cost L/k (or to the InvariantViolation the cell raised);
//     after an inline apply it is ready on return.
//   * Routing reuses ShardedEngine::route_update — the exact admission
//     logic of the batch path (router proposal, least-loaded fallback,
//     live-mass tracking) — under one routing mutex.  Requests are
//     claimed or enqueued on their shard inside that critical section,
//     and a claim succeeds only once everything queued before it is
//     applied, so each shard's apply order equals the global route
//     order; a delete can never overtake the insert it depends on.
//   * Read-side queries (item_at, neighbors_of, payload bytes under
//     arena cells) take a per-shard shared lock that the applying thread
//     (worker or inline submitter) holds exclusively while applying an
//     update, so every query observes a layout *between* updates —
//     snapshot-consistent, never a transient mid-update state.
//
// Determinism: per-shard application order equals route order (FIFO
// queues, claims only on an idle shard), and route order is the
// submission order (routing mutex).  So when updates are submitted in
// sequence order — which the deterministic verification mode
// serve_deterministic() enforces across any number of client lanes via a
// seed-derived ticket schedule — every cell sees exactly the sub-sequence
// the batch ShardedEngine would feed it, and costs and final layouts are
// bit-identical to run() on the same config.  Thread-count invariance
// thus survives the transition to online serving: S worker threads + L
// client lanes produce the same costs as the single-threaded batch
// replay.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "serve/mpsc_queue.h"
#include "shard/sharded_engine.h"

namespace memreal {

class ServingEngine {
 public:
  /// Spawns one worker per shard.  `config.threads`, `batch_size` and
  /// `rebalance_threshold` are batch-path knobs and ignored here.
  explicit ServingEngine(const ShardedConfig& config);
  ~ServingEngine();  ///< stop()s if the caller has not.

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Routes the update, then applies it on the calling thread if its
  /// shard is idle (see the file comment), else enqueues it for the
  /// shard worker; the future resolves to the update's cost L/k once
  /// applied, or rethrows the cell's InvariantViolation on get().
  /// Thread-safe.
  /// Throws immediately (nothing enqueued) for updates the router must
  /// reject: duplicate insert, delete of an absent item, an insert that
  /// fits no shard, or a submit after stop().
  std::future<double> submit(const Update& update);

  /// Blocks until every accepted request has been applied (and every
  /// inline apply has released its shard).
  void drain();

  /// Drain, close the queues and join the workers.  Idempotent; the
  /// engine accepts no submissions afterwards.
  void stop();

  // -- Read-side queries (snapshot-consistent, thread-safe) -----------------

  /// The item covering `offset` in `shard`'s address space, if any.
  [[nodiscard]] std::optional<PlacedItem> item_at(std::size_t shard,
                                                  Tick offset);
  /// Offset-order neighbors of a live item; nullopt when the item is
  /// absent or its insert has not been applied yet.
  [[nodiscard]] std::optional<LayoutStore::Neighbors> neighbors_of(ItemId id);
  /// Copy of the item's payload bytes (arena cells only); empty when the
  /// engine is not arena-backed or the item is not (yet) live.
  [[nodiscard]] std::vector<unsigned char> payload_of(ItemId id);
  /// Whether the item is live AND applied on its shard.
  [[nodiscard]] bool contains(ItemId id);

  // -- Post-drain accounting -------------------------------------------------

  /// Drains, then returns the merged statistics (same shape as the batch
  /// path's).  wall_seconds covers first submit to this drain.
  ShardedRunStats stats();
  /// Drains, then fully audits every cell.
  void audit();

  [[nodiscard]] std::size_t shard_count() const {
    return base_.shard_count();
  }
  /// The wrapped engine, for post-stop() layout inspection.  Touching it
  /// while requests are in flight races with their apply — drain() or
  /// stop() first.
  [[nodiscard]] ShardedEngine& sharded() { return base_; }

  /// Queue-depth high-water mark of one shard's request queue (lifetime,
  /// from MpscQueue accounting).  Thread-safe.
  [[nodiscard]] std::size_t queue_high_water(std::size_t shard) const {
    return queues_.at(shard)->high_water();
  }

 private:
  struct Request {
    Update update;
    std::promise<double> done;
    /// Stamped at submit when queue metrics are wired; apply() turns it
    /// into the queue-wait histogram sample.
    std::chrono::steady_clock::time_point enqueue_time{};
    /// Queue-wait trace span begin (wall us or logical tick), valid when
    /// traced is set.
    std::uint64_t trace_begin = 0;
    bool traced = false;
  };

  void worker_loop(std::size_t shard);
  /// The per-request body, on the worker (`queued`) or the inline
  /// submitter: queue-wait span and metric, the cell step under the
  /// shard's exclusive lock, then the promise.  Never throws.
  void apply(std::size_t shard, Request& r, bool queued);
  void finish_request();

  ShardedEngine base_;
  std::vector<obs::ServeMetrics> serve_metrics_;  ///< empty = off
  std::vector<std::unique_ptr<MpscQueue<Request>>> queues_;
  /// Per-shard read/apply exclusion, one cache line per shard.
  struct alignas(64) ShardLock {
    /// Writer = the thread applying an update; readers = queries.
    std::shared_mutex mu;
    /// Read-side queries in flight, waiting for or holding `mu` shared.
    std::atomic<std::size_t> readers{0};
  };
  /// A read-side query's hold on one shard: counted, then shared-locked.
  class ReadLock {
   public:
    explicit ReadLock(ShardLock& shard) : shard_(shard) {
      shard_.readers.fetch_add(1);
      shard_.mu.lock_shared();
    }
    ~ReadLock() {
      shard_.mu.unlock_shared();
      shard_.readers.fetch_sub(1);
    }
    ReadLock(const ReadLock&) = delete;
    ReadLock& operator=(const ReadLock&) = delete;

   private:
    ShardLock& shard_;
  };
  std::vector<std::unique_ptr<ShardLock>> shard_locks_;
  std::vector<std::thread> workers_;

  /// Serializes route_update + enqueue (and guards placement reads).
  std::mutex route_mu_;
  bool stopped_ = false;
  bool started_ = false;
  std::chrono::steady_clock::time_point first_submit_;
  double wall_seconds_ = 0.0;  ///< guarded by route_mu_

  /// Accepted but not yet finished requests.  finish_request() takes
  /// drain_mu_ only when it brings the count to zero.
  std::atomic<std::size_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

/// Deterministic verification harness: submits the whole sequence through
/// `lanes` client threads whose interleaving is fixed by a seed-derived
/// ticket schedule enforcing global submission order == sequence order.
/// Returns the per-update costs in sequence order.  The resulting costs
/// and final layouts are bit-identical to ShardedEngine::run(seq) on an
/// identically configured engine (test_serve locks this in for every
/// registry allocator on both engine flavors).
std::vector<double> serve_deterministic(ServingEngine& engine,
                                        const Sequence& seq,
                                        std::size_t lanes,
                                        std::uint64_t seed);

}  // namespace memreal
