// The multi-producer single-consumer request queue feeding one shard
// worker, plus the shard's caller-runs claim.
//
// Producers are the serving engine's client threads (any number of them,
// serialized only at the routing step); the consumer is the shard's one
// worker thread.  The worker drains the entire backlog in one pop_all
// call, so under load the mutex is taken once per *batch* of requests on
// the consumer side — the same batching idea as Blelloch & Wei's
// fixed-size fast path, realized with a lock here because the serving
// layer's correctness gates (TSan, deterministic replay) want the
// simplest possible happens-before story.  Closing the queue wakes the
// consumer; a closed queue still hands out its backlog before pop_all
// returns false, so no accepted request is ever dropped.
//
// Caller-runs: when the shard is idle — no backlog and no batch handed
// out — a producer may try_claim() it and apply its request on its own
// thread instead of pushing.  A batch counts as out from the pop_all that
// hands it over until the consumer's next pop_all call, so a claim
// succeeds only once everything pushed before it has been applied.  While
// a claim is held, later producers push as usual and pop_all waits;
// release_claim() hands the backlog to the consumer.  Per-shard apply
// order thus stays the push/claim order.
#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

namespace memreal {

template <typename T>
class MpscQueue {
 public:
  /// Enqueues one item; returns false (dropping the item) iff the queue
  /// has been closed.  On success `depth_out` (if non-null) receives the
  /// backlog depth including this item, measured under the lock — the
  /// serving layer's queue-depth gauge reads it instead of racing a
  /// second size() call.
  bool push(T item, std::size_t* depth_out = nullptr) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      account(items_.size(), depth_out);
      wake = parked_ && !claimed_;
    }
    if (wake) cv_.notify_one();
    return true;
  }

  /// Claims the shard for the caller when it is idle: not closed, no
  /// backlog, no batch out, no other claim.  A successful claim counts as
  /// one accepted item at depth 1 (pushed(), high_water(), `depth_out`).
  /// The caller must release_claim() once its item is applied.
  bool try_claim(std::size_t* depth_out = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || claimed_ || batch_out_ || !items_.empty()) return false;
    claimed_ = true;
    account(1, depth_out);
    return true;
  }

  /// Ends a claim; wakes the consumer if items queued up behind it (or
  /// the queue closed meanwhile).
  void release_claim() {
    // Notified under the lock: once the consumer of a closed queue sees
    // the claim gone it may exit and the queue be destroyed, so nothing
    // here may touch the queue after the unlock.
    std::lock_guard<std::mutex> lock(mu_);
    claimed_ = false;
    if (parked_ && (!items_.empty() || closed_)) cv_.notify_one();
  }

  /// Blocks until the queue is non-empty or closed and no claim is held,
  /// then moves the whole backlog into `out` (cleared first).  Returns
  /// false only when the queue is closed AND empty — the consumer's
  /// termination signal.  Calling it again marks the previous batch done.
  bool pop_all(std::vector<T>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(mu_);
    batch_out_ = false;
    parked_ = true;
    cv_.wait(lock, [&] { return !claimed_ && (!items_.empty() || closed_); });
    parked_ = false;
    if (items_.empty()) return false;
    out.swap(items_);
    batch_out_ = true;
    return true;
  }

  /// Closes the queue: future pushes and claims fail, the consumer drains
  /// the backlog and then sees false from pop_all.  Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Largest backlog ever observed at a push or claim (lifetime
  /// high-water mark).
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  /// Total items ever accepted by push() or try_claim().
  [[nodiscard]] std::size_t pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }

 private:
  void account(std::size_t depth, std::size_t* depth_out) {
    ++pushed_;
    if (depth > high_water_) high_water_ = depth;
    if (depth_out != nullptr) *depth_out = depth;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> items_;
  bool closed_ = false;
  bool claimed_ = false;    ///< a producer is applying its item inline
  bool batch_out_ = false;  ///< the consumer holds a popped batch
  bool parked_ = false;     ///< the consumer is waiting in pop_all
  std::size_t high_water_ = 0;
  std::size_t pushed_ = 0;
};

}  // namespace memreal
